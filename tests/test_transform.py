"""Moment functionals, Q-polynomials, remainder tails, determinants.

The D+1-point route to Delta (``delta_det``, ``constant_determinant``) and
the one-value-at-a-time ``theta_det`` live here, as the oracles of
``table_determinants``; the program reads Delta and theta off one run of
functional values per (row, column).  The Fraction routes of phi and Q
(``oracles``) check the integer kernels through ``build_table``.
"""

from __future__ import annotations

import math
import random
import threading
from fractions import Fraction as F

import pytest
from algebra import DiffOp, Poly, adjoint, op_apply
from oracles import (
    column_polys,
    det_bareiss,
    fraction_phi,
    fraction_q,
    fraction_remainder,
    poly,
    q_polys,
    shifted,
    stored,
    zero_row,
)

from rodpade.determinant import _int_det, verify_pade
from rodpade.exact import over_common_denominator
from rodpade.transform import MomentSeq, PadeTable, _dots, build_table

LI1 = MomentSeq(lambda k, _p: F(1, k + 1), "Li_1(1/z)")
E1 = DiffOp.of_term(Poly((0, -1, 1)), 1)


def fresh_li1():
    return MomentSeq(lambda k, _p: F(1, k + 1), "Li_1(1/z)")


def pairs(polys):
    """Each polynomial as the (numerators, denominator) pair ``build_table`` takes."""
    return [over_common_denominator(p.coeffs) for p in polys]


def fresh_rows(t):
    """The one-row table ``t`` as ``verify_pade`` reads it: a fresh Li_1 row instead of its own."""
    return PadeTable(t.n, t.columns, (fresh_li1(),), t.scales, t.qs, t.runs)


def run_values(table, j, ell):
    """The run phi_j(t^k P_l), k <= n, as Fractions."""
    scale = table.scales[j] * table.columns[ell][1]
    return [F(t, scale) for t in table.runs[j][ell]]


def test_phi_examples():
    table = build_table(pairs([Poly((1, -2)), Poly((0, 1, -2))]), [LI1], 0)
    assert [run_values(table, 0, ell) for ell in range(2)] == [[0], [F(-1, 6)]]


def test_phi_offset_matches_shifted_polynomial():
    # the run's entry k is phi(t^k P): the entry 0 of the column t^k P
    rng = random.Random(4)
    seq = MomentSeq(lambda k, _p: F((-1) ** k * (k + 2), 3 * k + 1), "probe")
    polys = [
        Poly(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 12)))
        for _ in range(40)
    ]
    polys = [p for p in polys if not p.is_zero]
    runs = build_table(pairs(polys), [seq], 30)
    for k in (0, 1, 2, 7, 30):
        offsets = build_table(pairs(p.shift(k) for p in polys), [seq], 0)
        assert [run_values(runs, 0, ell)[k] for ell in range(len(polys))] == [
            run_values(offsets, 0, ell)[0] for ell in range(len(polys))
        ]


def polynomial_matrix(table):
    """The (d+1) x (d+1) table as Fraction polynomials: the P row, then one Q row per label."""
    qs = [q_polys(table, ell) for ell in range(table.M + 1)]
    return [column_polys(table)] + [[q[f.label] for q in qs] for f in table.seqs]


def kernel_polys(rng):
    """Zero, constants, and random P with negative, fractional and 40-digit coefficients."""
    polys = [Poly.zero(), Poly.constant(F(-7, 3)), Poly.constant(F(1, 10**39 + 7))]
    for i in range(44):
        if i % 4 == 0:  # 40-digit denominators
            coeff = lambda: F(rng.randint(-10**6, 10**6), rng.randint(10**39, 10**40))
        elif i % 4 == 1:  # sparse, with zero interior terms
            coeff = lambda: F(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 9))
        else:
            coeff = lambda: F(rng.randint(-99, 99), rng.randint(1, 60))
        polys.append(Poly(coeff() for _ in range(rng.randint(1, 13))))
    return polys


def kernel_rows():
    """Fresh mpl, log-power, shifted and stored-value moment rows."""
    from rodpade import logpow, mpl

    rng = random.Random(8)
    mpl_rows = mpl.moment_seqs(mpl.MplConfig(m=2, r=2, alphas=(F(3, 2), F(-5, 7))))
    log_rows = logpow.moment_seqs(3)
    values = [F(rng.randint(-10**12, 10**12), rng.randint(1, 10**40)) for _ in range(60)]
    extra = [shifted(mpl_rows[4], 5), shifted(log_rows[1], 2), stored(values, "stored")]
    return mpl_rows[:3] + log_rows + extra


def test_phi_and_q_match_the_fraction_route():
    rows = kernel_rows()
    polys = kernel_polys(random.Random(6))
    n = 30
    table = build_table(pairs(polys), rows, n)
    for ell, p in enumerate(polys):
        qs = q_polys(table, ell)
        for j, f in enumerate(rows):
            assert qs[f.label] == fraction_q(f, p), (f.label, p)
            want = [fraction_phi(f, p, k) for k in range(n + 1)]
            assert run_values(table, j, ell) == want, (f.label, p)


def test_remainder_tail_matches_the_fraction_route():
    # the tail starts where the table's run first fails to vanish, and the
    # terms from there on are the dot products the remainder sums take on
    # the row's integer window
    rows, n = kernel_rows(), 3
    polys = [p for p in kernel_polys(random.Random(10))[:20] if not p.is_zero]
    table = build_table(pairs(polys), rows, n - 1)
    for ell, p in enumerate(polys):
        nums, den = table.columns[ell]
        for j, f in enumerate(rows):
            start, coeffs, orthogonal = fraction_remainder(f, p, n, 5)
            run = run_values(table, j, ell)  # phi(t^k P), k < n
            assert orthogonal == (not any(run))
            assert start == next((k + 1 for k, v in enumerate(run) if v), n + 1)
            ws, lcm = f.ints(start + 4 + len(nums) - 1)
            totals = _dots(nums, ws[start - 1 :], 5)
            assert tuple(F(t, lcm * den) for t in totals) == coeffs


def test_deep_remainder_tail_matches_the_fraction_route():
    from rodpade.mpl import MplConfig, pade_table

    table = pade_table(MplConfig(m=1, r=2, alphas=(F(4),)), 1)
    for j, f in enumerate(table.seqs):
        for ell, (nums, den) in enumerate(table.columns):
            route = fraction_remainder(f, poly((nums, den)), 1, 190)
            ws, lcm = f.ints(191 + len(nums) - 1)
            totals = _dots(nums, ws[1:], 190)
            assert route == (2, tuple(F(t, lcm * den) for t in totals), True)
            assert run_values(table, j, ell) == [0, route[1][0]]


def test_divided_difference_examples():
    table = build_table(pairs([Poly((1, -2)), Poly((0, 2, -3)), Poly.constant(9)]), [LI1], 1)
    assert [q_polys(table, ell)[LI1.label] for ell in range(3)] == [
        Poly.constant(-2), Poly((F(1, 2), -3)), Poly.zero()
    ]


def test_remainder_tail_legendre_cell():
    table = build_table(pairs([Poly((1, -2))]), [LI1], 2)
    assert run_values(table, 0, 0) == [0, F(-1, 6), F(-1, 6)]


def test_remainder_tail_precondition_downgrade():
    # phi(1) != 0: the tail of 1 * f - Q starts at z^-1, not at z^-(n+1)
    table = build_table(pairs([Poly.one()]), [LI1], 1)
    run = run_values(table, 0, 0)
    assert run == [1, F(1, 2)]
    assert fraction_remainder(LI1, Poly.one(), 1, 2) == (1, tuple(run), False)


def test_remainder_tail_of_zero_series():
    row = zero_row()
    table = build_table(pairs([Poly((3, 1, 4))]), [row], 2)
    assert table.runs == (((0, 0, 0),),) and table.qs == (((),),)
    assert table.scales[0] * table.columns[0][1] == 1
    assert verify_pade(PadeTable(table.n, table.columns, (zero_row(),), table.scales, table.qs, table.runs))


def legendre_table() -> PadeTable:
    return build_table(pairs([Poly((1, -2))]), [LI1], 1)


def test_verify_pade_legendre_true():
    table = legendre_table()
    assert q_polys(table, 0) == {"Li_1(1/z)": Poly.constant(-2)}
    assert verify_pade(fresh_rows(table))


def test_verify_pade_nonorthogonal_false():
    table = build_table(pairs([Poly.one()]), [LI1], 1)
    assert q_polys(table, 0) == {"Li_1(1/z)": Poly.zero()}
    assert not verify_pade(fresh_rows(table))


def test_verify_pade_weight_zero_kernel_is_empty():
    p = Poly((2, 5, 1))
    table = build_table(pairs([p]), [LI1], 0)
    assert q_polys(table, 0) == {"Li_1(1/z)": fraction_q(LI1, p)}
    assert verify_pade(fresh_rows(table))


def test_verify_pade_wrong_q_false():
    good = legendre_table()
    seven = 7 * good.scales[0] * good.columns[0][1]  # Q = 7, over L d
    table = PadeTable(good.n, good.columns, good.seqs, good.scales, (((seven,),),), good.runs)
    assert not verify_pade(fresh_rows(table))


# --------------------------------------------------------------------------
# Oracles: the D+1-point route to Delta and theta one value at a time


class NonConstantDeterminantError(Exception):
    """A determinant that must be constant came out with positive degree."""


class ZeroDeterminantError(Exception):
    """A determinant that must be a unit came out zero."""


def interpolate(xs, ys):
    """Exact polynomial through the given points (Newton divided differences)."""
    if len(xs) != len(ys):
        raise ValueError("point count mismatch")
    xs = [F(x) for x in xs]
    coeffs = [F(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form sum_j coeffs[j] * prod_{i<j} (z - xs[i])
    result = Poly.zero()
    basis = Poly.one()
    for j in range(n):
        result = result + basis * coeffs[j]
        basis = basis * Poly((-xs[j], 1))
    return result


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def delta_det(table):
    """Exact polynomial determinant, by integer evaluation at D+1 points.

    D is the column-degree bound sum_l max_i deg(table[i][l]), so the
    determinant has degree <= D and is fixed by its values at 0..D.  Column
    l is scaled by the lcm c_l of its coefficient denominators, the integer
    entries are evaluated by Horner at x = 0..D, and each point costs one
    integer Bareiss determinant.  If all D+1 values agree the determinant is
    that constant; only otherwise are the values, divided by prod c_l,
    interpolated.
    """
    size = len(table)
    if any(len(row) != size for row in table):
        raise ValueError("table must be square")
    bound = 0
    scale = 1
    int_cols = []
    for ell in range(size):
        col = [table[i][ell] for i in range(size)]
        bound += max((int(p.degree) for p in col if not p.is_zero), default=0)
        c = math.lcm(*(a.denominator for p in col for a in p.coeffs))
        int_cols.append([[a.numerator * (c // a.denominator) for a in p.coeffs] for p in col])
        scale *= c
    ys = [
        _int_det([[_horner(int_cols[ell][i], x) for ell in range(size)] for i in range(size)])
        for x in range(bound + 1)
    ]
    if all(y == ys[0] for y in ys):
        return Poly.constant(F(ys[0], scale))
    return interpolate(range(bound + 1), [F(y, scale) for y in ys])


def constant_determinant(table):
    """delta_det checked to be a nonzero constant; returns the constant."""
    det = delta_det(table)
    if det.is_zero:
        raise ZeroDeterminantError("determinant is zero")
    if det.degree != 0:
        raise NonConstantDeterminantError(f"determinant has degree {det.degree}: {det}")
    return det.coeff(0)


def theta_det(fs, columns, n):
    """Determinant of the d x d moment matrix phi_{f_j}(t^n * P_l), one phi per entry."""
    return det_bareiss([[fraction_phi(f, p, n) for p in columns] for f in fs])


def test_interpolate_recovers_polynomial():
    p = Poly((F(1, 3), -2, 0, 5))
    xs = list(range(6))
    ys = [p(F(x)) for x in xs]
    assert interpolate(xs, ys) == p


def columns_of(rstar, d):
    """P_l = R* . t^l for l < d, the first d column polynomials of a table."""
    return [op_apply(rstar, Poly.monomial(ell)) for ell in range(d)]


def test_theta_det_legendre():
    assert theta_det([fresh_li1()], columns_of(adjoint(E1), 1), 1) == F(-1, 6)


def test_theta_det_repeated_row_is_zero():
    assert theta_det([fresh_li1(), fresh_li1()], columns_of(adjoint(E1), 2), 1) == 0


def test_theta_det_weight_zero_identity():
    assert theta_det([fresh_li1()], columns_of(DiffOp.identity(), 1), 0) == F(1)


def test_delta_det_legendre():
    matrix = [
        [Poly((1, -2)), Poly((0, 2, -3))],
        [Poly.constant(-2), Poly((F(1, 2), -3))],
    ]
    det = delta_det(matrix)
    assert det == Poly.constant(F(1, 2))
    # |Delta / Theta| equals |lc| of the last column polynomial
    theta = theta_det([fresh_li1()], columns_of(adjoint(E1), 1), 1)
    assert abs(F(1, 2) / theta) == abs(Poly((0, 2, -3)).lc)


def test_constant_determinant_error_signals():
    z = Poly((0, 1))
    with pytest.raises(NonConstantDeterminantError):
        constant_determinant([[z, Poly.one()], [Poly.one(), z]])  # det = z^2 - 1
    with pytest.raises(NonConstantDeterminantError):
        # det = z^2 - 2z takes the value 0 at both ends of the points 0, 1, 2
        constant_determinant([[z, Poly.zero()], [Poly.zero(), z - 2]])
    with pytest.raises(ZeroDeterminantError):
        constant_determinant([[z, z], [Poly.one(), Poly.one()]])


def test_delta_det_identical_columns():
    col = [Poly((1, 1)), Poly((2, 0, 1))]
    matrix = [[col[0], col[0]], [col[1], col[1]]]
    assert delta_det(matrix) == Poly.zero()


def test_delta_det_generic_against_cofactor():
    rng = random.Random(17)
    for _ in range(10):
        mat = [[Poly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(3)] for _ in range(3)]
        direct = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        assert delta_det(mat) == direct


def test_det_bareiss_against_cofactor():
    rng = random.Random(23)
    for _ in range(30):
        m = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)]
        direct = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det_bareiss(m) == direct


def test_det_bareiss_needs_pivoting():
    m = [[F(0), F(1)], [F(1), F(0)]]
    assert det_bareiss(m) == -1


def _cofactor_det(m):
    """Laplace expansion along the first row; works for Fractions and Polys."""
    if not m:
        return 1
    total = 0
    for j, a in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = a * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_bareiss_pivoting_against_cofactor():
    # zero leading pivot, and a zero pivot that only appears mid-elimination
    fixed = [
        [[F(0), F(2), F(1, 3)], [F(5, 7), F(1), F(0)], [F(1), F(-4, 9), F(2)]],
        [[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(3), F(5), F(6)]],
    ]
    rng = random.Random(29)

    def sparse_entry():
        return F(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 6))

    sparse = [[[sparse_entry() for _ in range(4)] for _ in range(4)] for _ in range(40)]
    for m in fixed + sparse:
        assert det_bareiss(m) == _cofactor_det(m)


def test_det_bareiss_empty_and_singular():
    assert det_bareiss([]) == 1
    assert det_bareiss([[F(3, 4)]]) == F(3, 4)
    assert det_bareiss([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]) == 0
    assert det_bareiss([[F(0), F(1)], [F(0), F(5)]]) == 0
    with pytest.raises(ValueError):
        det_bareiss([[F(1), F(2)]])


def test_delta_det_fractional_against_cofactor():
    rng = random.Random(31)

    def entry():
        return Poly([F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))])

    for trial in range(12):
        mat = [[entry() for _ in range(3)] for _ in range(3)]
        if trial % 3 == 0:
            zero_col = trial % 2
            for row in mat:
                row[zero_col] = Poly.zero()
        assert delta_det(mat) == _cofactor_det(mat)


def _seed_fraction_bareiss(matrix):
    m = [list(row) for row in matrix]
    size = len(m)
    sign, prev = 1, F(1)
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def _seed_delta_route(table):
    """Fraction evaluation, Fraction Bareiss, interpolation: the original route."""
    size = len(table)
    bound = sum(
        max((int(table[i][ell].degree) for i in range(size) if not table[i][ell].is_zero), default=0)
        for ell in range(size)
    )
    xs = [F(x) for x in range(bound + 1)]
    ys = [_seed_fraction_bareiss([[entry(x) for entry in row] for row in table]) for x in xs]
    det = interpolate(xs, ys)
    assert det.degree == 0
    return det.coeff(0)


@pytest.mark.parametrize(
    "m, r, alphas, n",
    [
        (1, 3, (1,), 1),
        (2, 2, (1, 2), 1),
        (3, 1, (1, F(-1, 2), 3), 4),
        (2, None, None, 3),  # log-power rows
    ],
)
def test_constant_determinant_matches_fraction_route(m, r, alphas, n):
    from rodpade.logpow import logpow_table
    from rodpade.mpl import MplConfig, pade_table

    if r is None:
        table = polynomial_matrix(logpow_table(m, n))
    else:
        table = polynomial_matrix(pade_table(MplConfig(m=m, r=r, alphas=alphas), n))
    assert constant_determinant(table) == _seed_delta_route(table)


def test_moment_seq_memoization_is_stable():
    calls = []

    def fn(k, _prefix):
        calls.append(k)
        return F(k)

    seq = MomentSeq(fn, "probe")
    first = [seq[k] for k in range(10)]
    second = [seq[k] for k in range(10)]
    assert first == second
    assert calls == list(range(10))  # generator ran once per index


def test_moment_seq_concurrent_extension_yields_identical_values():
    seq = MomentSeq(lambda k, _p: F(1, k + 1), "li1")
    results, windows = {}, {}

    def worker(tag, upto):
        results[tag] = [seq[k] for k in range(upto)]
        # integer windows of mixed lengths, each kept as it was handed out
        windows[tag] = [seq.ints(stop) for stop in (upto // (tag + 2), 3 + 7 * tag, upto)]

    threads = [threading.Thread(target=worker, args=(i, 200)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [F(1, k + 1) for k in range(200)]
    assert all(results[i] == expected for i in range(8))
    for tag, pairs_seen in windows.items():
        for stop, (nums, lcm) in zip((200 // (tag + 2), 3 + 7 * tag, 200), pairs_seen):
            assert len(nums) >= stop
            assert over_common_denominator([seq[k] for k in range(len(nums))]) == (list(nums), lcm)


def test_moment_seq_ints_grows_without_rescaling_earlier_windows():
    # the lcm grows at every index; a window handed out earlier keeps its
    # integers and its L, and the grown one equals a fresh conversion
    seq = MomentSeq(lambda k, _p: F(1, k + 1), "li1")
    early = seq.ints(3)
    assert early == ((6, 3, 2), 6)
    late = seq.ints(5)
    assert early == ((6, 3, 2), 6)
    assert late == ((60, 30, 20, 15, 12), 60)
    assert seq.ints(2) is late


def test_moment_seq_shift_matches_definition():
    row = shifted(LI1, 3)
    assert [row[k] for k in range(5)] == [F(1, k + 4) for k in range(5)]
    assert row.label == "z^3*Li_1(1/z)"
    assert shifted(LI1, 0) is LI1


def test_pade_table_json_shape():
    table = build_table(pairs([Poly((1, -2))]), [LI1], 1)
    assert table.to_json() == {
        "n": 1,
        "M": 0,
        "columns": [0],
        "P": [["1", "-2"]],
        "rows": [{"label": "Li_1(1/z)", "Q": [["-2"]]}],
    }


# --------------------------------------------------------------------------
# Delta by the degree lemma, against the D+1-point route

_ALPHA_KINDS = {"int": (1, 2), "negative": (-3, 2), "fraction": (F(3, 2), F(-5, 3))}
_LEMMA_GRID = [
    (m, r, kind, n)
    for m, r, top in [(1, 1, 6), (2, 1, 3), (1, 2, 3), (2, 2, 2), (1, 3, 1)]
    for kind in _ALPHA_KINDS
    for n in range(1, top + 1)
] + [(m, None, "logpow", n) for m in range(1, 4) for n in range(1, 6)]


def _grid_table(m, r, kind, n):
    from rodpade.logpow import logpow_table
    from rodpade.mpl import MplConfig, pade_table

    if r is None:
        return logpow_table(m, n)
    return pade_table(MplConfig(m=m, r=r, alphas=_ALPHA_KINDS[kind][:m]), n)


@pytest.mark.parametrize("m, r, kind, n", _LEMMA_GRID)
def test_degree_lemma_delta_equals_the_evaluation_route(m, r, kind, n):
    from rodpade.determinant import _degree_lemma_holds, table_determinants

    table = _grid_table(m, r, kind, n)
    # the table carries phi_j(t^k P_l), k <= n, as the Fraction sum gives it
    for ell, p in enumerate(column_polys(table)):
        for j, f in enumerate(table.seqs):
            assert run_values(table, j, ell) == [fraction_phi(f, p, k) for k in range(n + 1)]
    assert _degree_lemma_holds(table)
    delta, theta = table_determinants(table)
    assert delta == constant_determinant(polynomial_matrix(table))
    columns = column_polys(table)[: len(table.seqs)]
    assert theta == theta_det(table.seqs, columns, n)


# the high-weight benchmark shapes, beside the lemma grid
_HIGH_WEIGHT = [
    (1, 1, "fraction", 40), (1, 1, "negative", 36), (1, 2, "int", 6), (1, 2, "fraction", 6),
    (2, None, "logpow", 11), (1, None, "logpow", 40),
]


@pytest.mark.parametrize("m, r, kind, n", _LEMMA_GRID + _HIGH_WEIGHT)
def test_integer_routes_match_the_fraction_oracles(m, r, kind, n):
    from oracles import series

    from rodpade.determinant import TableCheckError, _series_coefficients, table_determinants
    from algebra import laurent_mul_poly

    table = _grid_table(m, r, kind, n)
    for ell, (nums, d) in enumerate(table.columns):
        degree = len(nums) - 1
        qs = q_polys(table, ell)
        for f in table.seqs:
            # the integer series route against the Fraction product of the truncated series
            part, tail = laurent_mul_poly(series(f, degree + n + 5), poly((nums, d)))
            ws, lcm = f.ints(degree + n)
            int_tail, int_part = _series_coefficients(nums, ws, n)
            assert [F(c, lcm * d) for c in int_tail] == [tail.coeff(k) for k in range(1, n + 1)]
            assert poly((int_part, lcm * d)) == part == qs[f.label]
            # three coefficients past the n that vanish, on a longer window of its own
            ws, lcm = over_common_denominator([f[k] for k in range(degree + n + 3)])
            int_tail, _ = _series_coefficients(nums, ws, n + 3)
            assert [F(c, lcm * d) for c in int_tail] == [tail.coeff(k) for k in range(1, n + 4)]
    assert verify_pade(table)

    def first_row_with(field, ell, value):
        """``field`` (qs or runs) of the table with entry ell of its first row replaced by value."""
        rows = getattr(table, field)
        return (rows[0][:ell] + (value,) + rows[0][ell + 1 :],) + rows[1:]

    for ell in range(table.M + 1):
        # a corrupted run of the first row: the kernel route now disagrees with the series route
        run = table.runs[0][ell]
        runs = first_row_with("runs", ell, (run[0] + 1,) + run[1:])
        bad = PadeTable(n, table.columns, table.seqs, table.scales, table.qs, runs)
        with pytest.raises(TableCheckError, match="kernel test says False, series test says True"):
            verify_pade(bad)
        # a wrong Q: one more coefficient than the polynomial part has
        qs = first_row_with("qs", ell, table.qs[0][ell] + (1,))
        bad = PadeTable(n, table.columns, table.seqs, table.scales, qs, table.runs)
        assert not verify_pade(bad)
    # Delta(0) and theta, each divided once by prod L_j prod d_l, against the Fraction matrices
    delta, theta = table_determinants(table)
    assert delta == det_bareiss([[p.coeff(0) for p in row] for row in polynomial_matrix(table)])
    columns = column_polys(table)[: len(table.seqs)]
    assert theta == det_bareiss([[fraction_phi(f, p, n) for p in columns] for f in table.seqs])


@pytest.mark.parametrize(
    "m, alphas, n, index, perturb, message",
    [
        (1, (F(3, 2),), 2, -1, lambda p: p + Poly.one(), "297/32 - 9*z"),
        (2, (F(-3), F(2)), 1, 0, lambda p: p * F(1, 7) + Poly.monomial(1), "-1125/7 + 765/2*z"),
    ],
    ids=["last-plus-one", "first-scaled-plus-z"],
)
def test_perturbed_column_fails_the_degree_lemma(m, alphas, n, index, perturb, message):
    from rodpade.mpl import MplConfig, pade_table
    from rodpade.determinant import TableCheckError, table_determinants
    from rodpade.transform import build_table

    table = pade_table(MplConfig(m=m, r=1, alphas=alphas), n)
    columns = column_polys(table)
    columns[index] = perturb(columns[index])
    broken = build_table(pairs(columns), table.seqs, n)
    with pytest.raises(TableCheckError, match="fails the degree lemma"):
        table_determinants(broken)
    # the oracle still finds the determinant of the broken matrix non-constant
    with pytest.raises(NonConstantDeterminantError) as exc:
        constant_determinant(polynomial_matrix(broken))
    assert str(exc.value) == f"determinant has degree 1: {message}"


def test_columns_past_the_degree_bound_fail_the_degree_lemma():
    from rodpade.mpl import MplConfig, pade_table
    from rodpade.determinant import TableCheckError, _degree_lemma_holds, table_determinants
    from rodpade.transform import build_table

    # weight-2 columns are orthogonal up to k < 1 too, but deg P_l = 2M + l > M + l
    table = pade_table(MplConfig(m=2, r=1, alphas=(F(1), F(-2))), 2)
    relabelled = build_table(table.columns, table.seqs, 1)
    assert not _degree_lemma_holds(relabelled)
    with pytest.raises(TableCheckError, match="fails the degree lemma"):
        table_determinants(relabelled)
    # the matrix is the weight-2 one, whose Delta the oracle still reads as a constant
    assert constant_determinant(polynomial_matrix(relabelled)) == table_determinants(table)[0]


def test_verification_flags_an_over_degree_cell_with_zero_runs():
    from rodpade.mpl import MplConfig, pade_table
    from rodpade.determinant import TableCheckError, _verification_block, table_determinants
    from rodpade.transform import build_table

    # column 1 of the weight-2 table, deg 2M + 1 = 5, stands as column l = M of a weight-1
    # table, whose bound is M + l = 4: its run phi(t^0 P) is still zero
    config = MplConfig(m=2, r=1, alphas=(F(1), F(-2)))
    weight1, weight2 = pade_table(config, 1), pade_table(config, 2)
    columns = [*weight1.columns[:-1], weight2.columns[1]]
    table = build_table(columns, weight1.seqs, 1)
    assert len(table.columns[-1][0]) - 1 == 5 and all(runs[-1][0] == 0 for runs in table.runs)
    verification = _verification_block(table)
    assert verification["orthogonality_ok"] and verification["remainder_starts_ok"]
    assert not verification["degrees_ok"]
    with pytest.raises(TableCheckError, match="fails the degree lemma"):
        table_determinants(table)


def test_table_with_a_missing_row_fails_the_degree_lemma():
    from rodpade.mpl import MplConfig, pade_table
    from rodpade.determinant import TableCheckError, table_determinants
    from rodpade.transform import build_table

    table = pade_table(MplConfig(m=2, r=1, alphas=(F(1), F(-2))), 1)
    short = build_table(table.columns, table.seqs[:-1], 1)
    with pytest.raises(TableCheckError, match="fails the degree lemma"):
        table_determinants(short)
    with pytest.raises(ValueError, match="table must be square"):
        constant_determinant(polynomial_matrix(short))


def test_det_job_takes_one_integer_determinant_for_delta(monkeypatch, capsys):
    import rodpade.determinant
    from rodpade.cli import main

    sizes = []
    real = rodpade.determinant._int_det

    def counting(matrix):
        sizes.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(rodpade.determinant, "_int_det", counting)
    assert main(["det", "--m", "2", "--r", "2", "--alphas=3/2,-5/3", "--n", "2"]) == 0
    capsys.readouterr()
    # M = 8: one (M+1)-square determinant for Delta(0), one M-square for theta
    assert sizes == [9, 8]
