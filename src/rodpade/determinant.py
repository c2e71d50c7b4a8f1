"""Every check of a built table, its determinants, and the ``pade`` and ``det`` subcommands.

The checks are orthogonality by two independent routes (``verify_pade``),
the degree lemma (``_degree_lemma_holds``), which makes Delta the constant
Delta(0), and Delta(0) != 0; a route disagreement, a failed lemma and a zero
Delta(0) raise ``TableCheckError``.  Delta(0) and theta (the determinant of
phi_j(t^n P_l)) are one Bareiss determinant each (``table_determinants``)
on the table's stored Q and run numerators, divided once by the product of
the row scales L_j and column denominators d_l.
``audit`` builds tables but checks none, so this module is off its path.
``run`` builds the table of the chosen row family, verifies it (``pade``
only) and reports Delta, theta and the identity |Delta| = |lc(P_M) theta|.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from . import transform
from .exact import format_rational, int_convolve, parse_n_range, parse_rationals

__all__ = [
    "TableCheckError",
    "table_determinants",
    "verify_pade",
    "run",
]


class TableCheckError(Exception):
    """A built table failed a check that a correct construction always passes."""


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


def _first_nonzero(table: transform.PadeTable) -> list[list[int]]:
    """Per row j and column l, the first k < n with phi_j(t^k P_l) != 0, or n if there is none."""
    n = table.n
    return [[next((k for k, v in enumerate(run[:n]) if v), n) for run in runs] for runs in table.runs]


def _degree_lemma_holds(table: transform.PadeTable) -> bool:
    """True when the table's Delta is provably the constant Delta(0).

    The row operation row_j <- f_j row_P - row_j turns entry (j, l) into
    R_(j,l) = P_l f_j - Q_(j,l), the tail of P_l f_j, whose coefficient of
    z^-(k+1) is phi_j(t^k P_l).  When phi_j(t^k P_l) = 0 for k < n the tail
    has order >= n + 1 at infinity, so expanding along the P row, every
    Leibniz term of Delta has degree <= deg P_l - M (n + 1) <= l - M <= 0 as
    soon as deg P_l <= M n + l.  Delta is a polynomial, hence a constant.
    Checked here: M rows (a square matrix), the degree bound, and the n
    orthogonality values of every (row, column): every ``_first_nonzero``
    entry is n.  The Q_(j,l) are taken to be the polynomial parts
    phi_j((P_l(z) - P_l(t)) / (z - t)), as ``build_table`` makes them.
    """
    if len(table.seqs) != table.M:
        return False
    if any(len(nums) - 1 > table.M * table.n + ell for ell, (nums, _) in enumerate(table.columns)):
        return False
    return all(k == table.n for row in _first_nonzero(table) for k in row)


def table_determinants(table: transform.PadeTable) -> tuple[Fraction, Fraction]:
    """(Delta, theta) of a built table, one integer Bareiss determinant each.

    Delta is Delta(0), the determinant of the constant coefficients; a table
    that fails ``_degree_lemma_holds``, or whose Delta(0) is 0, raises
    ``TableCheckError``: either signals a broken construction, never a math
    failure.  theta is the determinant of the d x d moment matrix
    phi_j(t^n P_l), l < d: the k = n entries of the first d columns' runs.
    Row j is over L_j (``table.scales``) and column l over d_l (the P row
    over 1), so each is an integer determinant over prod L_j prod d_l.
    """
    if not _degree_lemma_holds(table):
        raise TableCheckError(
            f"weight-{table.n} table fails the degree lemma: Delta is not certified constant"
        )
    columns = table.columns
    # the lemma's M = d rows: theta's columns are the first d, and Delta adds d_M
    scale = math.prod(table.scales) * math.prod(den for _, den in columns[:-1])
    constants = [[(nums or (0,))[0] for nums, _ in columns]]
    constants += [[(q or (0,))[0] for q in qs] for qs in table.qs]
    delta = _int_det(constants)
    if delta == 0:
        raise TableCheckError("determinant is zero")
    theta = _int_det([[run[table.n] for run in runs[:-1]] for runs in table.runs])
    return Fraction(delta, scale * columns[-1][1]), Fraction(theta, scale)


def _series_coefficients(nums: Sequence[int], ws: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """P f over L d: (coefficients of z^-1..z^-n, of z^0..z^(deg P - 1)), P = nums / d.

    With the window ``ws`` (over L, at least deg P + n moments) cut to
    f_0..f_(deg P + n - 1) and reversed, the coefficient of z^e is entry
    deg P + n + e of one product.
    """
    depth = len(nums) - 1 + n
    product = int_convolve(nums, ws[depth - 1 :: -1])
    return product[depth - n : depth][::-1], product[depth : depth + len(nums) - 1]


def verify_pade(table: transform.PadeTable) -> bool:
    """Check every column against every row of ``table.seqs``, by two independent routes.

    Kernel route: phi_j(t^k P_l) = 0 for 0 <= k <= n-1, that is, the
    cell's ``_first_nonzero`` entry is n.  Series route, which reads no run:
    one ``int_convolve`` of P_l with the row's integer window
    (``MomentSeq.ints``, over its L) gives P_l f_j over L d_l
    (``_series_coefficients``): the first n tail coefficients of
    P_l f_j - Q_(j,l) must vanish, and the polynomial part must be Q_(j,l),
    over L_j d_l, compared by integer cross-multiplication.  The two routes
    computing the same coefficients through different code paths must agree
    exactly; a mismatch raises TableCheckError.  Columns are checked in
    order, each against every row, and the first that fails returns False.
    """
    n, firsts = table.n, _first_nonzero(table)
    for ell, (nums, den) in enumerate(table.columns):
        if not nums:
            return False
        ok = True
        for f, scale_j, qs, row in zip(table.seqs, table.scales, table.qs, firsts):
            kernel_ok = row[ell] == n
            ws, lcm = f.ints(len(nums) - 1 + n)
            tail, part = _series_coefficients(nums, ws, n)
            series_ok = not any(tail)
            if kernel_ok != series_ok:
                raise TableCheckError(
                    f"row {f.label}: kernel test says {kernel_ok}, series test says {series_ok}"
                )
            q, q_den, scale = qs[ell], scale_j * den, lcm * den
            if not kernel_ok or any(a * q_den != b * scale for a, b in zip_longest(part, q, fillvalue=0)):
                ok = False
        if not ok:
            return False
    return True


def _build_table(args, n: int):
    """Returns (kind, config JSON, table) of weight ``n``.

    The table carries its rows, each with its integer moment window, and,
    per row and column, the run phi_j(t^k P_l), k <= n, over L_j d_l; the
    verification and determinant blocks read both.
    Only the module of the chosen row family is imported.
    """
    if args.appendix_logpow:
        from . import logpow as logpow_mod

        table = logpow_mod.logpow_table(args.m, n)
        return "logpow", {"m": args.m, "n": n}, table
    from . import mpl as mpl_mod

    config = mpl_mod.MplConfig(m=args.m, r=args.r, alphas=parse_rationals(args.alphas))
    return "mpl", config.to_json(), mpl_mod.pade_table(config, n)


def _verification_block(table) -> dict:
    """Checks of every column; the kernel route and remainder starts read ``_first_nonzero``."""
    n = table.n  # column l has degree M n + l; M is m for log-power rows
    rows = list(zip(table.seqs, _first_nonzero(table)))
    return {
        "orthogonality_ok": verify_pade(table),
        "degrees_ok": all(len(nums) - 1 == table.M * n + ell for ell, (nums, _) in enumerate(table.columns)),
        "remainder_starts_ok": all(k == n for _, row in rows for k in row),
        # the tail of P_l f_j - Q starts at z^-(k+1) for its first nonzero phi_j(t^k P_l)
        "remainder_starts": [{"label": f.label, "starts": [k + 1 for k in row]} for f, row in rows],
    }


def _determinant_block(table) -> dict:
    delta, theta = table_determinants(table)
    nums, den = table.columns[-1]
    lc = Fraction(nums[-1], den)
    product = lc * theta
    return {
        "delta": format_rational(delta),
        "theta": format_rational(theta),
        "lc_last_column": format_rational(lc),
        "abs_identity_ok": abs(delta) == abs(product),
        "sign": 1 if product == delta else -1,
    }


def run(args) -> tuple[dict, bool]:
    """The ``pade`` or ``det`` subcommand (``args.subcommand``): (payload, whether every check holds).

    ``pade`` reports the table and its verification before the determinant
    block; ``det`` only the determinant block.  A table that fails a check
    (``TableCheckError``) gives a payload with the error, and False.
    """
    command = args.subcommand
    if args.m is None:
        raise ValueError(f"{command} needs --m (flag or config document)")
    ns = parse_n_range(args.n) if args.n else []
    if len(ns) != 1 or ns[0] < 1:
        raise ValueError("pade/det need a single weight --n >= 1")
    n = ns[0]
    kind, config, table = _build_table(args, n)
    try:
        verification = _verification_block(table) if command == "pade" else None
        determinant = _determinant_block(table)
    except TableCheckError as exc:
        return {"command": command, "error": str(exc)}, False
    payload = {"command": command, "kind": kind, "config": config, "n": n}
    if command == "det":
        payload["determinant"] = determinant
        return payload, determinant["abs_identity_ok"]
    checks = ("orthogonality_ok", "degrees_ok", "remainder_starts_ok")
    ok = all(verification[key] for key in checks) and determinant["abs_identity_ok"]
    payload.update(table=table.to_json(), verification=verification, determinant=determinant, ok=ok)
    return payload, ok
