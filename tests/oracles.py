"""Fraction-route oracles and row helpers that the tests share.

The program computes its tables on integer pairs (numerators, denominator).
The oracles here take every value the slow, obvious way, one ``Fraction``
product and sum per term, on :class:`rodpade.weyl.Poly` polynomials, so
they share no kernel with the program.  The helpers turn a table's pairs
into polynomials and build the moment rows (shifted, stored, zero) and the
Laurent tails that the operator tests feed in.
"""

from __future__ import annotations

from fractions import Fraction as F

from rodpade.transform import MomentSeq
from rodpade.weyl import LaurentTail, Poly


def fraction_phi(f, p, k=0):
    """The Fraction route of phi_f(t^k P): one Fraction product and sum per term."""
    return sum((c * f[i + k] for i, c in enumerate(p.coeffs) if c != 0), F(0))


def fraction_q(f, p):
    """The Fraction route of Q(z) = sum_u (sum_{k>u} p_k f_{k-1-u}) z^u."""
    if p.is_zero or p.degree == 0:
        return Poly.zero()
    deg = int(p.degree)
    return Poly(
        sum((p.coeff(k) * f[k - 1 - u] for k in range(u + 1, deg + 1)), F(0))
        for u in range(deg)
    )


def fraction_remainder(f, p, n, depth):
    """(start, coefficients, orthogonal) of the tail of P f - Q, by the Fraction route.

    The tail starts at z^-(k+1) for the first k < n with phi(t^k P) != 0, or
    at z^-(n+1) when there is none (P is then orthogonal to t^k, k < n).
    """
    start_k = next((k for k in range(n) if fraction_phi(f, p, k) != 0), n)
    return start_k + 1, tuple(fraction_phi(f, p, start_k + j) for j in range(depth)), start_k == n


def poly(pair):
    """The polynomial nums / d of a pair (nums, d)."""
    return Poly.from_ints(*pair)


def column_polys(table):
    """P_l of every cell, as polynomials."""
    return [poly(cell.column) for cell in table.cells]


def q_polys(cell):
    """Q_j of a cell per row label, as polynomials."""
    return {label: poly(pair) for label, pair in cell.q_pairs.items()}


def shifted(f, k):
    """The row of z^k f, cut to (1/z)Q[[1/z]]: moment j is f_(j+k)."""
    if k == 0:
        return f
    return MomentSeq(lambda j, _prefix: f[j + k], f"z^{k}*{f.label}")


def stored(values, label):
    """A row of finitely many given moments; reading past them raises IndexError."""
    vals = [F(v) for v in values]

    def fn(k, _prefix):
        if k < len(vals):
            return vals[k]
        raise IndexError(f"moment sequence '{label}' only has {len(vals)} stored values")

    return MomentSeq(fn, label)


def zero_row():
    """The row of the zero series, labelled "0"."""
    return MomentSeq(lambda _k, _prefix: F(0), "0")


def series(f, depth):
    """The row's series sum_k f_k z^-(k+1), truncated to ``depth`` proved coefficients."""
    return LaurentTail(1, f.prefix(depth))
