"""Recurrence extraction and the moment-solution space."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from oracles import stored, zero_row

from rodpade.holonomic import (
    PropertyPFailureError,
    check_membership,
    recurrence_coeffs,
    solve_V1,
)
from rodpade.mpl import MplConfig, moment_seqs, rodrigues_stages
from rodpade.transform import MomentSeq
from rodpade.weyl import (
    DiffOp,
    LaurentTail,
    Poly,
    ZeroOperatorError,
    op_apply_laurent,
    ord_weight,
    property_P,
    rising_factorial_poly,
    rodrigues_operator,
)

E1 = DiffOp.of_term(Poly((0, -1, 1)), 1)


def _rank(matrix) -> int:
    rows = [list(map(F, row)) for row in matrix]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_recurrence_of_legendre_factor():
    sys = recurrence_coeffs(E1)
    assert sys.d == 1
    # (k+1) x_k - (k+2) x_{k+1} = 0
    assert sys.shifts[0] == Poly((1, 1))
    assert sys.shifts[1] == Poly((-2, -1))
    seq = MomentSeq(lambda k, _p: F(1, k + 1), "li1")
    for k in range(30):
        assert sys.residual(seq, k) == 0


def test_recurrence_of_pure_derivative_forces_zero():
    sys = recurrence_coeffs(DiffOp.d())
    # only shift -1 with coefficient -k: every x_j is forced to vanish
    assert set(sys.shifts) == {-1}
    assert sys.shifts[-1] == Poly((0, -1))
    assert check_membership(DiffOp.d(), zero_row(), 20)
    li1 = MomentSeq(lambda k, _p: F(1, k + 1), "li1")
    assert not check_membership(DiffOp.d(), li1, 20)


def test_recurrence_of_multiplication_operator():
    sys = recurrence_coeffs(DiffOp.identity())
    assert set(sys.shifts) == {0}
    assert sys.shifts[0] == Poly.one()
    assert not check_membership(DiffOp.identity(), MomentSeq(lambda k, _p: F(1), "ones"), 5)


def test_recurrence_rejects_zero_operator():
    with pytest.raises(ZeroOperatorError):
        recurrence_coeffs(DiffOp.zero())


def test_recurrence_matches_operator_action_with_boundary():
    # residual at k must equal the coefficient of z^-(k+1) of L . f,
    # including the clamped boundary equations at small k
    rng = random.Random(31)
    for _ in range(40):
        op = DiffOp(
            Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 4))
        )
        if op.is_zero:
            continue
        sys = recurrence_coeffs(op)
        values = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(24)]
        seq = stored(values, "probe")
        _, tail = op_apply_laurent(op, LaurentTail(1, values))
        top = tail.start + tail.depth - 1
        for k in range(min(12, top)):
            assert sys.residual(seq, k) == tail.coeff(k + 1)


def test_solve_reproduces_li1_moments():
    seq = solve_V1(E1, [F(1)], 6)
    assert [seq[k] for k in range(6)] == [F(1, k + 1) for k in range(6)]


def test_solve_zero_seed_gives_zero_sequence():
    seq = solve_V1(E1, [F(0)], 10)
    assert all(seq[k] == 0 for k in range(10))


def test_solve_computes_depth_moments_up_front():
    # depth 0 computes none; later moments still come on demand
    assert solve_V1(E1, [F(1)], 0)._cache == []
    seq = solve_V1(E1, [F(1)], 5)
    assert len(seq._cache) == 5 and seq[7] == F(1, 8)


def test_solve_requires_leading_nonvanishing():
    bad = DiffOp((Poly((0, -3)), -Poly.monomial(2)))
    with pytest.raises(PropertyPFailureError):
        solve_V1(bad, [F(1)], 5)


def test_solve_checks_seed_length():
    with pytest.raises(ValueError):
        solve_V1(E1, [F(1), F(2)], 5)


def test_membership_examples():
    li1 = MomentSeq(lambda k, _p: F(1, k + 1), "li1")
    li2 = MomentSeq(lambda k, _p: F(1, (k + 1) ** 2), "li2")
    assert check_membership(E1, li1, 50)
    assert not check_membership(E1, li2, 50)
    assert check_membership(E1, zero_row(), 50)


def composite_L(config):
    """R_1 = L_{(m+1)^(r-1)} ... L_1, whose recurrence every row satisfies."""
    return rodrigues_operator([N for N, _ in rodrigues_stages(config, 1)], config.alphas)


def test_solution_space_has_full_dimension():
    # d unit seeds give sequences of rank d on their first 2d entries
    config = MplConfig(m=1, r=2, alphas=(F(1),))
    op = composite_L(config)
    d = ord_weight(op)
    assert d == config.M == 3
    seeds = [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]
    sols = [solve_V1(op, seed, 2 * d) for seed in seeds]
    window = [[s[k] for k in range(2 * d)] for s in sols]
    assert _rank(window) == d


def test_named_rows_solve_their_recurrence():
    config = MplConfig(m=1, r=2, alphas=(F(1),))
    op = composite_L(config)
    d = ord_weight(op)
    for f in moment_seqs(config):
        assert check_membership(op, f, 60)
        rebuilt = solve_V1(op, [f[k] for k in range(d)], 50)
        assert all(rebuilt[k] == f[k] for k in range(50))


def test_lead_matches_symbol_up_to_positive_factors():
    # single-top-term operators: symbol = lead * (k+d+j+1)...(k+d+m_j)
    for op, j_top in ((E1, 1), (DiffOp.of_term(Poly.monomial(2) * Poly((-1, 1)) ** 2 / 2, 2), 2)):
        sys = recurrence_coeffs(op)
        res = property_P(op)
        assert sys.lead == res.lead
        d = sys.d
        m_top = int(op.coeff(j_top).degree)
        assert res.symbol == res.lead * rising_factorial_poly(d + j_top + 1, m_top - j_top)


def test_recurrence_json_shape():
    data = recurrence_coeffs(E1).to_json()
    assert data["d"] == 1
    assert data["shifts"] == [
        {"delta": 0, "coeff": ["1", "1"]},
        {"delta": 1, "coeff": ["-2", "-1"]},
    ]
    assert "boundary" in data["boundary_rules"] or "drop" in data["boundary_rules"]
