"""Seeded job generator for the four benchmark workloads.

A workload is a fixed cycle of slots.  Each slot fixes the subcommand, the
shape (m, r) and bands for n and the depth; the seed draws the concrete
alphas, beta, place, n and depth inside the slot.  Every cycle visits the
slots in the same order, so a run of any seed sees the same mix of shapes
and of alpha bit-length classes, and the seed only moves values inside each
class.

Alphas are passed as ``--alphas=<list>`` because argparse reads a value that
starts with ``-`` as a flag.  Nothing here imports the program: heights are
computed from their definition, so a change to the program cannot change
the inputs it is benchmarked on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

# Alpha classes, one per bit-length stratum: small positive integers,
# integers of mixed sign, and signed non-integers.
_INTS = [Fraction(k) for k in range(1, 7)]
_SIGNED = _INTS + [-a for a in _INTS]
_FRACS = [
    Fraction(s * p, q)
    for p in range(1, 8)
    for q in range(2, 8)
    for s in (1, -1)
    if gcd(p, q) == 1
]
_ALPHA_POOLS = {"int": _INTS, "signed": _SIGNED, "frac": _FRACS}
_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m rodpade <argv>``, expected to exit 0."""

    slot: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Slot:
    command: str  # pade, det, logpow, audit or criterion
    m: int
    r: int = 1
    ns: tuple[int, ...] = (1,)  # n band (pade/det/logpow) or top of the audit range
    alphas: str = "int"  # alpha class
    depths: tuple[int, ...] = ()  # --depth band, when set
    place: str = "inf"  # inf, or p for a seeded prime

    @property
    def name(self) -> str:
        if self.command == "logpow":
            return f"logpow(m={self.m})"
        name = f"{self.command}({self.m},{self.r})/{self.alphas}"
        return name if self.command in ("pade", "det") else f"{name}/{self.place}"


# Why each workload exists is recorded in BENCHMARK.json.  Within a
# workload, the slots are sized so that about a quarter of the jobs are light
# and most of the rest cost about the same: the median and the tail
# percentile then fall inside one cluster of job times, not on a gap.
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "wide-det": (
        Slot("pade", 1, 3, (1,), "int"),
        Slot("pade", 3, 1, (3, 4), "frac"),
        Slot("det", 1, 3, (1,), "signed"),
        Slot("pade", 2, 2, (1,), "int"),
        Slot("pade", 1, 3, (1,), "frac"),
        Slot("det", 3, 1, (4,), "signed"),
        Slot("det", 1, 3, (1,), "frac"),
        Slot("pade", 1, 3, (1,), "signed"),
    ),
    "high-weight": (
        Slot("pade", 1, 1, (36, 40), "signed"),
        Slot("pade", 1, 2, (6,), "int"),
        Slot("logpow", 2, ns=(10, 11)),
        Slot("pade", 1, 1, (36, 40), "frac"),
        Slot("pade", 1, 2, (6,), "frac"),
        Slot("logpow", 1, ns=(36, 40)),
    ),
    "deep-tail": (
        Slot("logpow", 3, ns=(2,), depths=(46, 48, 50)),
        Slot("pade", 1, 2, (1,), "signed", depths=(186, 190, 194)),
        Slot("logpow", 2, ns=(2,), depths=(74, 76, 78)),
        Slot("pade", 1, 2, (2,), "frac", depths=(156, 160, 164)),
    ),
    "audit": (
        Slot("audit", 1, 1, (12, 13), "signed", place="inf"),
        Slot("audit", 2, 1, (8,), "frac", place="p"),
        Slot("criterion", 1, 1, alphas="frac", place="inf"),
        Slot("audit", 1, 2, (4,), "int", place="inf"),
        Slot("audit", 1, 1, (12, 13), "frac", place="p"),
        Slot("criterion", 2, 1, alphas="frac", place="p"),
        Slot("audit", 2, 1, (8,), "signed", place="inf"),
        Slot("audit", 1, 2, (4,), "frac", place="inf"),
    ),
}


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _height(alphas, p: int | None) -> Fraction:
    """H_v(alpha) = max(1, |alpha_i|_v), with |p|_p = 1/p."""
    if p is None:
        return max([Fraction(1)] + [abs(a) for a in alphas])
    return max([Fraction(1)] + [Fraction(p) ** -_valuation(a, p) for a in alphas])


def _beta(rng: random.Random, alphas, p: int | None, command: str) -> Fraction:
    """A beta with |beta|_v well above H_v(alpha).

    The margin is large for criterion jobs, whose V must come out positive.
    """
    height = _height(alphas, p)
    if p is None:
        floor = 10**6 if command == "criterion" else 20
        return Fraction(rng.randint(2, 5) * max(floor, 8 * int(height) + 8)) * rng.choice((1, -1))
    # |u / p^k|_p = p^k for a unit u: take k past the height exponent.
    k = 1 + max(0, -min(_valuation(a, p) for a in alphas))
    k += 40 if command == "criterion" else rng.randint(1, 2)
    unit = rng.choice([u for u in range(1, 12) if u % p])
    return Fraction(unit, p**k)


def _job(rng: random.Random, slot: Slot) -> Job:
    n = rng.choice(slot.ns)
    depth = ["--depth", str(rng.choice(slot.depths))] if slot.depths else []
    if slot.command == "logpow":
        argv = ["pade", "--appendix-logpow", "--m", str(slot.m), "--n", str(n)]
        return Job(slot.name, tuple(argv + depth))
    alphas = rng.sample(_ALPHA_POOLS[slot.alphas], slot.m)
    head = [slot.command, "--m", str(slot.m), "--r", str(slot.r),
            "--alphas=" + ",".join(_fmt(a) for a in alphas)]
    if slot.command in ("pade", "det"):
        return Job(slot.name, tuple(head + ["--n", str(n)] + depth))
    if slot.place == "inf":
        p = None
    else:
        # a prime dividing a denominator, so H_p(alpha) > 1; else one dividing an alpha
        below = [q for q in _PRIMES if any(_valuation(a, q) < 0 for a in alphas)]
        dividing = [q for q in _PRIMES if any(_valuation(a, q) for a in alphas)]
        p = rng.choice(below or dividing or list(_PRIMES))
    beta = _beta(rng, alphas, p, slot.command)
    tail = ["--beta", _fmt(beta), "--place", "inf" if p is None else f"p{p}"]
    if slot.command == "audit":
        tail = ["--n", f"1..{n}"] + tail
    return Job(slot.name, tuple(head + tail))


def generate(workload: str, seed: int) -> Iterator[Job]:
    """Endless job stream of ``workload``; the same seed gives the same stream."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        for slot in slots:
            yield _job(rng, slot)
