"""Pade-type tables for powers of the logarithm log^s(1 - 1/z), s = 1..m.

The rows are the tail coefficients of log^s(1 - 1/z), extended by the
first-order recurrence that E_1 = z(z-1) D gives them.  The columns are
P_l = R_n* . t^l for R_n = (1/(n!)^m) (z^n (z-1)^n D^n)^m, computed by the
Rodrigues chain: (-1)^n (1/n!) D^n (z^n (z-1)^n . ) applied m times to t^l,
in integer arithmetic (``transform.rodrigues_chain``).  Delta and theta are
read off the built table (``determinant.table_determinants``).  As an
operator, R_n is ``weyl.rodrigues_operator`` on the sizes of
``rodrigues_stages``, and E_n and its identities live in ``weyl`` too; this
module never builds an operator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Record
from .transform import (
    MomentSeq,
    PadeTable,
    build_table,
    rodrigues_columns,
    rodrigues_factor,
)

__all__ = [
    "LogPowConfig",
    "logpow_moment_stirling",
    "moment_seqs",
    "rodrigues_stages",
    "logpow_table",
]


class LogPowConfig(Record):
    """Highest log power m and weight n."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        super().__init__(m, n)
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}


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


def rodrigues_stages(config: LogPowConfig) -> list[tuple[int, tuple[list[int], int]]]:
    """m stages (n, (z-1)^n): the factors of R_n* in the order they act."""
    return [(config.n, rodrigues_factor(config.n, (1,)))] * config.m


def logpow_table(config: LogPowConfig) -> PadeTable:
    """Columns l = 0..m by the Rodrigues chain, rows log^1..log^m."""
    columns = rodrigues_columns(rodrigues_stages(config), config.m + 1)
    return build_table(columns, moment_seqs(config.m), config.n)
