"""Fraction-route oracles and row helpers that the tests share.

The program computes its tables on integer pairs (numerators, denominator).
The oracles here take every value the slow, obvious way, one ``Fraction``
product and sum per term, on :class:`algebra.Poly` polynomials, so they
share no kernel with the program.  ``det_bareiss`` is the determinant of a
``Fraction`` matrix, through the program's integer Bareiss.  The helpers turn a table's pairs into polynomials and
build the moment rows (shifted, stored, zero) and the Laurent tails that
the operator tests feed in.  ``audit_rows`` and ``audit_payload`` reach the
bound rows of one table and the ``audit`` payload of a run from Python.  ``build_parser`` is the command line's former
argparse front end, the reference that the flag table's reader is compared
against.
"""

from __future__ import annotations

import argparse
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from algebra import LaurentTail, Poly

from rodpade import audit
from rodpade.determinant import _int_det
from rodpade.exact import as_fraction, format_rational, over_common_denominator
from rodpade.heights import abs_v
from rodpade.transform import MomentSeq


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


def det_bareiss(matrix):
    """Exact determinant of a Fraction matrix: rows scaled to integers, then integer Bareiss.

    Row i is multiplied by the lcm s_i of its denominators; the integer
    determinant is divided once by prod s_i.
    """
    rows = [[as_fraction(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    scale = 1
    int_rows = []
    for row in rows:
        ints, s = over_common_denominator(row)
        int_rows.append(ints)
        scale *= s
    return F(_int_det(int_rows), scale)


def poly(pair):
    """The polynomial nums / d of a pair (nums, d)."""
    return Poly.from_ints(*pair)


def _height_pair(xs, place):
    """max(1, |x|_v over xs) as a reduced pair, one ``abs_v`` each."""
    h = max([F(1)] + [abs_v(x, place) for x in xs])
    return h.numerator, h.denominator


def audit_rows(config, table, place, beta=None):
    """``audit.bounds_audit`` of one table, handed its column norms and heights by the Fraction route.

    ``audit.run`` takes these pairs once and passes them in; here each is a
    max of ``abs_v`` over the coefficients or values, reduced.
    """
    norms = []
    for column in table.columns:
        norm = max((abs_v(c, place) for c in poly(column).coeffs), default=F(0))
        norms.append((norm.numerator, norm.denominator))
    return audit.bounds_audit(
        config, table, place,
        column_norms=norms,
        H_alphas=[_height_pair([a], place) for a in config.alphas],
        H_alpha=_height_pair(config.alphas, place),
        beta=beta,
        H_beta=None if beta is None else _height_pair([beta], place),
    )


def audit_payload(config, place, ns, beta=None, tables=None):
    """The payload of ``audit.run`` on config at place over the weights ns (a range), given beta.

    ``tables``, when given, stand in for the ones the run would build.
    """
    args = SimpleNamespace(
        lcm=None, m=config.m, r=config.r, alphas=",".join(map(format_rational, config.alphas)),
        n=f"{ns[0]}..{ns[-1]}", place=str(place), beta=None if beta is None else format_rational(beta),
    )
    with pytest.MonkeyPatch.context() as mp:
        if tables is not None:
            mp.setattr("rodpade.mpl.pade_tables", lambda _config, _ns: tables)
        return audit.run(args)[0]


def column_polys(table):
    """P_l of every column, as polynomials."""
    return [poly(column) for column in table.columns]


def q_polys(table, ell):
    """Q_(j,l) of column ``ell`` per row label, as polynomials."""
    d = table.columns[ell][1]
    return {f.label: poly((qs[ell], lcm * d)) for f, lcm, qs in zip(table.seqs, table.scales, table.qs)}


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
    return LaurentTail(1, [f[k] for k in range(depth)])


def _add_common(parser, *, alphas=True, n=True):
    parser.add_argument("--m", type=int, default=None, help="number of alphas / top log power")
    if alphas:
        parser.add_argument("--r", type=int, default=None, help="depth budget")
        parser.add_argument("--alphas", type=str, default=None, help="comma-separated rationals")
    if n:
        parser.add_argument("--n", type=str, default=None, help="weight, or range lo..hi where supported")
    parser.add_argument("--config", type=str, default=None, help="JSON/TOML run-config document")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodpade",
        description="Exact Pade-type tables for multiple polylogarithms and log powers, "
        "with height-based independence checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pade = sub.add_parser("pade", help="build and verify a weight-n table")
    _add_common(p_pade)
    p_pade.add_argument("--appendix-logpow", action="store_true", help="log-power rows instead")
    p_pade.add_argument("--depth", type=int, help="no longer changes output or work")

    p_det = sub.add_parser("det", help="determinant constants of a table")
    _add_common(p_det)
    p_det.add_argument("--appendix-logpow", action="store_true")

    p_crit = sub.add_parser("criterion", help="evaluate the independence criterion")
    _add_common(p_crit, n=False)
    p_crit.add_argument("--beta", type=str, default=None)
    p_crit.add_argument("--place", type=str, default=None, help="inf or p<prime>")
    p_crit.add_argument("--products", action="store_true", help="also list product labels")

    p_audit = sub.add_parser("audit", help="check the proven norm/decay bounds")
    p_audit.add_argument("--lcm", type=int, default=None, help="lcm growth check mode")
    _add_common(p_audit)
    p_audit.add_argument("--beta", type=str, default=None)
    p_audit.add_argument("--place", type=str, default=None, help="inf or p<prime>")

    p_ids = sub.add_parser("logpow-identities", help="exact operator identities check")
    p_ids.add_argument("--n", type=int, default=4, help="verify up to this n")
    p_ids.add_argument("--format", choices=("json", "csv"), default="json")
    p_ids.add_argument("--out", type=str, default=None)

    return parser
