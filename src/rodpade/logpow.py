"""Pade-type tables for powers of the logarithm log^s(1 - 1/z), s = 1..m.

The rows are the tail coefficients of log^s(1 - 1/z), extended by the
first-order recurrence that E_1 = z(z-1) D gives them.  The columns are
P_l = R_n* . t^l for R_n = (1/(n!)^m) (z^n (z-1)^n D^n)^m, computed by the
Rodrigues chain: (-1)^n (1/n!) D^n (z^n (z-1)^n . ) applied m times to t^l,
in integer arithmetic (``transform.rodrigues_chain``).  Delta and theta are
read off the built table (``determinant.table_determinants``).  ``run`` is
the ``logpow-identities`` subcommand: it proves the identities of the
iterated factors E_n = z^n (z-1)^n D^n on integer coefficient lists
(``verify_En_identities``).  No operator is ever built as an object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .exact import falling_derivative, int_convolve, shown
from .transform import (
    MomentSeq,
    PadeTable,
    build_table,
    rodrigues_columns,
    rodrigues_factor,
)

__all__ = [
    "logpow_moment_stirling",
    "moment_seqs",
    "rodrigues_stages",
    "logpow_table",
    "verify_En_identities",
    "run",
]


def _stirling_cycle(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k) (cycle numbers).

    Built row by row from c(i, t) = c(i-1, t-1) + (i-1) c(i-1, t), keeping
    only the entries t <= k of one row: O(n k) time, O(k) memory and no
    recursion, so any n is reachable.
    """
    row = [1] + [0] * k  # c(0, t) for t = 0..k
    for i in range(1, n + 1):
        for t in range(k, 0, -1):
            row[t] = row[t - 1] + (i - 1) * row[t]
        row[0] = 0
    return row[k]


def logpow_moment_stirling(s: int, j: int) -> Fraction:
    """Independent closed form: (-1)^s s! c(j+1, s) / (j+1)!."""
    sign = -1 if s % 2 else 1
    return Fraction(sign * math.factorial(s) * _stirling_cycle(j + 1, s), math.factorial(j + 1))


def moment_seqs(m: int) -> list[MomentSeq]:
    """Rows log^1..log^m, each extended by its first-order recurrence.

    The log powers satisfy z(z-1) D log^s(1 - 1/z) = s log^(s-1)(1 - 1/z),
    the relation of E_1 = z(z-1) D.  The coefficients of z^-j give

        mu_s(j) = (j mu_s(j-1) - s mu_{s-1}(j-1)) / (j+1),

    with mu_0 = 0 (log^0 = 1 has no tail), mu_1(0) = -1 and mu_s(0) = 0 for
    s >= 2.  Moment j of row s reads moment j-1 of rows s and s-1, so the m
    rows advance together at O(m) operations per moment index.
    """
    seqs: list[MomentSeq] = []
    for s in range(1, m + 1):
        lower = seqs[-1] if seqs else None

        def fn(j, prefix, s=s, lower=lower):
            if j == 0:
                return Fraction(-1 if s == 1 else 0)
            below = lower[j - 1] if lower is not None else 0
            return (j * prefix[j - 1] - s * below) / (j + 1)

        seqs.append(MomentSeq(fn, label=f"log^{s}"))
    return seqs


def rodrigues_stages(m: int, n: int) -> list[tuple[int, tuple[list[int], int]]]:
    """m stages (n, (z-1)^n): the factors of R_n* in the order they act."""
    return [(n, rodrigues_factor(n, (1,)))] * m


def logpow_table(m: int, n: int) -> PadeTable:
    """Columns l = 0..m by the Rodrigues chain, rows log^1..log^m; m and n must be positive."""
    if m < 1:
        raise ValueError(f"m must be positive, got {shown(str(m))}")
    if n < 1:
        raise ValueError(f"n must be positive, got {shown(str(n))}")
    return build_table(rodrigues_columns(rodrigues_stages(m, n), m + 1), moment_seqs(m), n)


def _En_image(n: int, k: int) -> list[int]:
    """E_n z^k = k(k-1)...(k-n+1) z^k (z-1)^n, as integer coefficients (ascending)."""
    fall = math.perm(k, n)
    if not fall:
        return []
    return [0] * k + [fall * c for c in rodrigues_factor(n, (1,))[0]]


def _minus_factor(p: list[int], q: Sequence[int]) -> list[int]:
    """(E_1 - q) p = z(z-1) p' - q p for integer coefficient lists, trailing zeros dropped."""
    derived = int_convolve((0, -1, 1), falling_derivative(p, 1, 1))
    out = [a - b for a, b in zip_longest(derived, int_convolve(q, p), fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def verify_En_identities(n_max: int) -> bool:
    """Exact operator identities for the iterated factors, n = 1..n_max.

    (i)  E_n = (E_1 - (n-1)(2z-1)) ... (E_1 - (2z-1)) E_1
    (ii) E_{n+1} z = z (E_1 - (n-1)z - 1) E_n

    An operator sum_{j<=J} b_j(z) D^j is determined by its images of
    z^0..z^J: the system is triangular with diagonal entries j!.  So each
    side is applied to monomials, on integer coefficient lists, and (i) is
    compared on z^0..z^n and (ii) on z^0..z^(n+1); equal images prove the
    operators equal.  The images of the product in (i) are carried from
    n - 1 to n.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    product = [_En_image(1, k) for k in range(n_max + 1)]  # its images of z^0..z^n_max
    for n in range(1, n_max + 1):
        if n > 1:
            product = [_minus_factor(p, (1 - n, 2 * (n - 1))) for p in product]
        if any(product[k] != _En_image(n, k) for k in range(n + 1)):
            return False
        for k in range(n + 2):
            image = _minus_factor(_En_image(n, k), (1, n - 1))
            if _En_image(n + 1, k + 1) != ([0] + image if image else []):
                return False
    return True


def run(args) -> tuple[dict, bool]:
    """The ``logpow-identities`` subcommand: (payload, whether every identity holds) for parsed flags ``args``."""
    n = 4 if args.n is None else args.n
    ok = verify_En_identities(n)
    return {"command": "logpow-identities", "n_max": n, "ok": ok}, ok
