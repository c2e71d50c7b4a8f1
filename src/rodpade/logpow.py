"""Pade-type tables for powers of the logarithm log^s(1 - 1/z), s = 1..m.

The rows are the coefficients of exact truncated powers of the base series
log(1 - 1/z) = -sum_{k>=1} z^-k / k; the columns come from the adjoint of
R_n = (1/(n!)^m) (z^n (z-1)^n D^n)^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Poly
from .transform import (
    MomentSeq,
    NonConstantDeterminantError,
    PadeCell,
    PadeTable,
    ZeroDeterminantError,
    build_table,
    constant_determinant,
    theta_det,
)
from .weyl import DiffOp, adjoint, op_compose

__all__ = [
    "LogPowConfig",
    "NonConstantDeterminantError",
    "ZeroDeterminantError",
    "logpow_moment",
    "logpow_moment_stirling",
    "moment_seq",
    "moment_seqs",
    "build_En",
    "build_Lm",
    "build_Rn_log",
    "verify_En_identities",
    "logpow_pade",
    "logpow_table",
    "logpow_delta",
    "logpow_theta",
]


@dataclass(frozen=True)
class LogPowConfig:
    """Highest log power m and weight n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}


@lru_cache(maxsize=None)
def _log_power_coeffs(s: int, depth: int) -> tuple[Fraction, ...]:
    """Coefficients of z^-1..z^-depth of (log(1 - 1/z))^s, by exact convolution."""
    base = [Fraction(0)] + [Fraction(-1, k) for k in range(1, depth + 1)]
    power = [Fraction(0)] * (depth + 1)
    power[0] = Fraction(1)
    for _ in range(s):
        nxt = [Fraction(0)] * (depth + 1)
        for i, c in enumerate(power):
            if c == 0:
                continue
            for k in range(1, depth + 1 - i):
                nxt[i + k] += c * base[k]
        power = nxt
    return tuple(power[1:])


def logpow_moment(s: int, j: int) -> Fraction:
    """Moment j of log^s(1 - 1/z): the coefficient of z^-(j+1)."""
    if s < 1:
        raise ValueError("s must be positive")
    if j < s - 1:
        return Fraction(0)
    return _log_power_coeffs(s, j + 1)[j]


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


def moment_seq(s: int) -> MomentSeq:
    return MomentSeq(lambda j, _prefix, s=s: logpow_moment(s, j), label=f"log^{s}")


def moment_seqs(m: int) -> list[MomentSeq]:
    return [moment_seq(s) for s in range(1, m + 1)]


def build_En(n: int) -> DiffOp:
    """E_n = z^n (z-1)^n D^n."""
    if n < 1:
        raise ValueError("n must be positive")
    return DiffOp.of_term(Poly.monomial(n) * Poly((-1, 1)) ** n, n)


def build_Lm(m: int) -> DiffOp:
    """(z(z-1) D)^m, the operator whose tails are spanned by the log powers."""
    acc = DiffOp.identity()
    e1 = build_En(1)
    for _ in range(m):
        acc = op_compose(e1, acc)
    return acc


def build_Rn_log(n: int, m: int) -> DiffOp:
    """(1/(n!)^m) E_n^m."""
    if m < 1:
        raise ValueError("m must be positive")
    en = build_En(n)
    acc = DiffOp.identity()
    for _ in range(m):
        acc = op_compose(en, acc)
    return acc * Fraction(1, math.factorial(n) ** m)


def verify_En_identities(n_max: int) -> bool:
    """Exact operator identities for the iterated factors, n = 1..n_max.

    (i)  E_n = (E_1 - (n-1)(2z-1)) ... (E_1 - (2z-1)) E_1
    (ii) E_{n+1} z = z (E_1 - (n-1)z - 1) E_n
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    e1 = build_En(1)
    two_z_minus_1 = Poly((-1, 2))
    z = Poly((0, 1))
    for n in range(1, n_max + 1):
        product = e1
        for i in range(1, n):
            product = op_compose(e1 - two_z_minus_1 * i, product)
        if product != build_En(n):
            return False
        lhs = op_compose(build_En(n + 1), DiffOp.mul_by(z))
        rhs = op_compose(
            DiffOp.mul_by(z), op_compose(e1 - (z * (n - 1) + Poly.one()), build_En(n))
        )
        if lhs != rhs:
            return False
    return True


def logpow_pade(config: LogPowConfig, ell: int) -> PadeCell:
    """Column ell of the appendix table: deg P = m*n + ell."""
    if not 0 <= ell <= config.m:
        raise ValueError(f"column index must be in 0..{config.m}")
    return logpow_table(config).cells[ell]


def logpow_table(config: LogPowConfig) -> PadeTable:
    """Columns l = 0..m from the adjoint of R_n, rows log^1..log^m."""
    rstar = adjoint(build_Rn_log(config.n, config.m))
    return build_table(rstar, moment_seqs(config.m), config.n, config.m)


def logpow_delta(config: LogPowConfig, table: PadeTable | None = None) -> Fraction:
    """The (m+1) x (m+1) determinant, asserted to be a nonzero constant."""
    if table is None:
        table = logpow_table(config)
    return constant_determinant(table.matrix())


def logpow_theta(config: LogPowConfig) -> Fraction:
    rstar = adjoint(build_Rn_log(config.n, config.m))
    return theta_det(moment_seqs(config.m), rstar, config.n)
