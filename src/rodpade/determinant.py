"""The determinants Delta and theta of a built table, and the ``pade`` and ``det`` subcommands.

Delta is Delta(0), certified constant by the degree lemma
(``_degree_lemma_holds``), and theta is the determinant of the values
phi_j(t^n P_l); both are one integer Bareiss determinant over the table's
cells (``table_determinants``).  The ``audit`` subcommand builds tables but
computes no determinant, so this module is off its path.  ``run`` builds
the table of the chosen row family, verifies it (``pade`` only, through
``transform.verify_pade``) and reports Delta, theta and the identity
|Delta| = |lc(P_M) theta|.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import transform
from .exact import as_fraction, format_rational, over_common_denominator, parse_rationals

__all__ = [
    "DegreeLemmaError",
    "ZeroDeterminantError",
    "det_bareiss",
    "table_determinants",
    "run",
]


class DegreeLemmaError(Exception):
    """A table failed the checks that make its Delta the constant Delta(0)."""


class ZeroDeterminantError(Exception):
    """A determinant that must be a unit came out zero."""


def _int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free with row pivoting: after step k every entry is a (k+1)-minor
    of the row-permuted matrix, so each division by the previous pivot is
    exact and ``//`` never rounds (Bareiss 1968).
    """
    rows = [list(row) for row in matrix]
    sign, prev = 1, 1
    while len(rows) > 1:
        pivot_row = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot_row is None:
            return 0
        if pivot_row:
            rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
            sign = -sign
        pivot, top = rows[0][0], rows[0][1:]
        rows = [
            [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
            for row in rows[1:]
        ]
        prev = pivot
    return sign * rows[0][0] if rows else 1


def det_bareiss(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: rows scaled to integers, then integer Bareiss.

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
    return Fraction(_int_det(int_rows), scale)


def _degree_lemma_holds(table: transform.PadeTable) -> bool:
    """True when the table's Delta is provably the constant Delta(0).

    The row operation row_j <- f_j row_P - row_j turns entry (j, l) into
    R_(j,l) = P_l f_j - Q_(j,l), the tail of P_l f_j, whose coefficient of
    z^-(k+1) is phi_j(t^k P_l).  When phi_j(t^k P_l) = 0 for k < n the tail
    has order >= n + 1 at infinity, so expanding along the P row, every
    Leibniz term of Delta has degree <= deg P_l - M (n + 1) <= l - M <= 0 as
    soon as deg P_l <= M n + l.  Delta is a polynomial, hence a constant.
    Checked here: M rows (a square matrix), the degree bound, and the n
    orthogonality values of every (row, column), read from the cells' runs.
    The Q of each cell are taken to be the polynomial parts
    phi_j((P_l(z) - P_l(t)) / (z - t)), as ``build_table`` makes them.
    """
    if len(table.seqs) != table.M:
        return False
    if any(cell.degree > table.M * table.n + cell.ell for cell in table.cells):
        return False
    return not any(any(run[: table.n]) for cell in table.cells for run, _ in cell.heads.values())


def table_determinants(table: transform.PadeTable) -> tuple[Fraction, Fraction]:
    """(Delta, theta) of a built table, one integer Bareiss determinant each.

    Delta is Delta(0), the determinant of the constant coefficients; a table
    that fails ``_degree_lemma_holds`` raises DegreeLemmaError, and
    Delta(0) = 0 raises ZeroDeterminantError.  Either signals a broken
    construction, never a math failure.  theta is the determinant of the
    d x d moment matrix phi_j(t^n P_l), l < d: the k = n entries of the
    first d cells' runs.  Row j is over L_j and column l over d_l (the P row
    over 1), so each is an integer determinant over prod L_j prod d_l; L_j
    is read off the first cell's run scale L_j d_0.
    """
    if not _degree_lemma_holds(table):
        raise DegreeLemmaError(
            f"weight-{table.n} table fails the degree lemma: Delta is not certified constant"
        )
    labels, cells = table.row_labels, table.cells
    # the lemma's M = d rows: theta's columns are the first d, and Delta adds d_M
    first = cells[0]
    scale = math.prod(first.heads[label][1] // first.column[1] for label in labels)
    scale *= math.prod(cell.column[1] for cell in cells[:-1])
    constants = [[(cell.column[0] or (0,))[0] for cell in cells]]
    constants += [[(cell.q_pairs[label][0] or (0,))[0] for cell in cells] for label in labels]
    delta = _int_det(constants)
    if delta == 0:
        raise ZeroDeterminantError("determinant is zero")
    theta = _int_det([[cell.heads[label][0][table.n] for cell in cells[:-1]] for label in labels])
    return Fraction(delta, scale * cells[-1].column[1]), Fraction(theta, scale)


def _build_table(args):
    """Returns (kind, config, table).

    The table carries its rows, each with its integer moment window, and,
    per cell, the run phi_j(t^k P_l), k <= n, over the window's scale; the
    verification and determinant blocks read both.
    Only the module of the chosen row family is imported.
    """
    if args.appendix_logpow:
        from . import logpow as logpow_mod

        config = logpow_mod.LogPowConfig(m=args.m, n=args.n)
        return "logpow", config, logpow_mod.logpow_table(config)
    from . import mpl as mpl_mod

    config = mpl_mod.MplConfig(m=args.m, r=args.r, alphas=parse_rationals(args.alphas))
    return "mpl", config, mpl_mod.pade_table(config, args.n)


def _verification_block(table) -> dict:
    """Checks of every cell; the kernel route and remainder starts read ``cell.heads``."""
    n = table.n  # column l has degree M n + l; M is m for log-power rows
    orth = all(transform.verify_pade(cell, table.seqs, table.M * n + cell.ell) for cell in table.cells)
    degrees = all(cell.degree == table.M * n + cell.ell for cell in table.cells)
    starts = []
    starts_ok = True
    for label in table.row_labels:
        row = []
        for cell in table.cells:
            # the tail of P_l f_j - Q starts at z^-(k+1) for its first nonzero phi_j(t^k P_l)
            first = next((k for k, v in enumerate(cell.heads[label][0][:n]) if v), n)
            row.append(first + 1)
            starts_ok = starts_ok and first == n
        starts.append({"label": label, "starts": row})
    return {
        "orthogonality_ok": orth,
        "degrees_ok": degrees,
        "remainder_starts_ok": starts_ok,
        "remainder_starts": starts,
    }


def _determinant_block(table) -> dict:
    delta, theta = table_determinants(table)
    nums, den = table.cells[-1].column
    lc = Fraction(nums[-1], den)
    ok = abs(delta) == abs(lc * theta)
    return {
        "delta": format_rational(delta),
        "theta": format_rational(theta),
        "lc_last_column": format_rational(lc),
        "abs_identity_ok": ok,
        "sign": 1 if lc * theta == delta else -1,
    }


def run(args) -> tuple[dict, int]:
    """The ``pade`` or ``det`` subcommand (``args.subcommand``): (payload, exit code).

    ``pade`` reports the table and its verification before the determinant
    block; ``det`` only the determinant block.  A table whose Delta is not
    certified, or zero, gives a payload with the error and exit code 1.
    """
    from .cli import EXIT_OK, EXIT_VERIFY

    command = args.subcommand
    kind, config, table = _build_table(args)
    verification = _verification_block(table) if command == "pade" else None
    try:
        determinant = _determinant_block(table)
    except (DegreeLemmaError, ZeroDeterminantError) as exc:
        return {"command": command, "error": str(exc)}, EXIT_VERIFY
    payload = {"command": command, "kind": kind, "config": config.to_json(), "n": args.n}
    if command == "det":
        payload["determinant"] = determinant
        return payload, EXIT_OK if determinant["abs_identity_ok"] else EXIT_VERIFY
    checks = ("orthogonality_ok", "degrees_ok", "remainder_starts_ok")
    ok = all(verification[key] for key in checks) and determinant["abs_identity_ok"]
    payload.update(table=table.to_json(), verification=verification, determinant=determinant, ok=ok)
    return payload, EXIT_OK if ok else EXIT_VERIFY
