"""Places of Q, exact absolute values and heights.

The layer that the independence criterion (:mod:`rodpade.criterion`) and
the bound audits (:mod:`rodpade.audit`) share.  Absolute values are exact
rationals, or integer pairs (numerator, denominator > 0) where a caller
multiplies many of them; logarithms are taken once, at the end, through a
big-integer safe routine with relative error well below 1e-15.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import Record, as_fraction, log_fraction, log_int as _log_int

__all__ = [
    "Place",
    "abs_v",
    "local_height",
    "local_height_vec",
    "H_v",
    "H_v_vec",
    "global_height",
    "global_height_vec",
]


class Place(Record):
    """A place of Q: the archimedean one (p = None) or a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        super().__init__(p)
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def epsilon(self) -> int:
        """1 at the archimedean place, 0 at finite places."""
        return 0 if self.is_finite else 1

    @classmethod
    def parse(cls, text: str) -> "Place":
        """The place a ``--place`` text names: inf (or infty, oo), or p<prime> (or the bare prime)."""
        key = text.strip().lower()
        if key in ("inf", "infty", "oo"):
            return cls(None)
        try:
            p = int(key[1:] if key.startswith("p") else key)
        except ValueError:
            raise ValueError(f"argument --place: expected inf or p<prime>, got {text!r}") from None
        return cls(p)

    def __str__(self):
        return "inf" if self.p is None else f"p{self.p}"


#: the first 13 primes; as Miller-Rabin bases they decide primality of every
#: n below _MR_LIMIT (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n.

    At p = 2 it is the index of the lowest set bit.  Otherwise the powers
    p, p^2, p^4, ... that divide n are found by repeated squaring, and the
    exponent is read off their binary expansion from the largest down, so a
    valuation v costs O(log v) divisions instead of v.
    """
    if n == 0:
        raise ValueError("valuation of zero")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    powers = [p]
    while n % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def _int_norm_v(nums: Sequence[int], den: int, place: Place) -> tuple[int, int]:
    """max_i |nums[i] / den|_v for integers nums and den > 0, as (numerator, denominator > 0).

    The value is 0 when every num is 0.  At infinity it is max|num| / den, not
    reduced.  At p the largest value belongs to the smallest valuation,
    min_i v_p(num_i) = v_p(gcd nums), so it is p^(v_p(den) - v_p(gcd nums)):
    one gcd and two valuations, whatever the number of coefficients.
    """
    if not place.is_finite:
        return max(map(abs, nums), default=0), den
    g = math.gcd(*nums)
    if g == 0:
        return 0, 1
    v = _int_valuation(den, place.p) - _int_valuation(g, place.p)
    return (place.p**v, 1) if v >= 0 else (1, place.p**-v)


def abs_v(x: Fraction, place: Place) -> Fraction:
    """Normalized absolute value, exact: |p|_p = 1/p, usual value at infinity."""
    x = as_fraction(x)
    return Fraction(*_int_norm_v((x.numerator,), x.denominator, place))


def local_height(x: Fraction, place: Place) -> float:
    """h_v(x) = log max(1, |x|_v); the intermediate max is exact."""
    return log_fraction(H_v(x, place))


def local_height_vec(xs: Sequence[Fraction], place: Place) -> float:
    return log_fraction(H_v_vec(xs, place))


def H_v(x: Fraction, place: Place) -> Fraction:
    return max(Fraction(1), abs_v(x, place))


def H_v_vec(xs: Sequence[Fraction], place: Place) -> Fraction:
    return max([Fraction(1)] + [abs_v(x, place) for x in xs])


def global_height(x: Fraction) -> float:
    """h(x) = log max(|num|, |den|) for x in lowest terms."""
    x = as_fraction(x)
    if x == 0:
        return 0.0
    return _log_int(max(abs(x.numerator), x.denominator))


def _global_H_vec(xs: Sequence[Fraction]) -> Fraction:
    """prod_v max(1, |x_1|_v, ..) = max(1, |x_i|) * lcm(denominators).

    At a prime p the factor is p^(max_i v_p(den x_i)), so the finite places
    together contribute exactly the lcm of the denominators.
    """
    xs = [as_fraction(x) for x in xs]
    return max([Fraction(1)] + [abs(x) for x in xs]) * math.lcm(*(x.denominator for x in xs))


def global_height_vec(xs: Sequence[Fraction]) -> float:
    return log_fraction(_global_H_vec(xs))


def _round15(x: float | None) -> float | None:
    """x to 15 significant digits for the JSON; None for None, an infinity or NaN."""
    if x is None:
        return None
    if math.isinf(x) or math.isnan(x):
        return None
    return float(f"{x:.15g}")


def _bound_constant(m: int, r: int, M: int) -> float:
    """M log2 + r(r+1)/2 log(m+1) + r, the constant shared by V and the decay slope."""
    return M * math.log(2) + r * (r + 1) / 2 * math.log(m + 1) + r
