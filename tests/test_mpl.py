"""Multiple-polylogarithm rows, composed operators, tables, determinants."""

from __future__ import annotations

import itertools
import time
from fractions import Fraction as F

import pytest
from oracles import fraction_remainder, poly, q_polys, series, shifted

from rodpade import criterion
from rodpade.holonomic import check_membership
from rodpade.mpl import (
    DegenerateAlphasError,
    MplConfig,
    MplIndex,
    index_set,
    moment_seqs,
    mpl_moment_oracle,
    pade_table,
    pade_tables,
    rodrigues_stages,
)
from rodpade.determinant import table_determinants
from rodpade.transform import verify_pade
from rodpade.weyl import (
    DiffOp,
    Poly,
    op_apply_laurent,
    op_compose,
    ord_weight,
    property_P,
    rodrigues_operator,
)

CFG11 = MplConfig(m=1, r=1, alphas=(F(1),))
CFG12 = MplConfig(m=1, r=2, alphas=(F(1),))
CFG21 = MplConfig(m=2, r=1, alphas=(F(1), F(2)))
CFG22 = MplConfig(m=2, r=2, alphas=(F(1), F(2)))


def rows_by_index(config):
    """The family's rows keyed by their index."""
    return dict(zip(index_set(config.m, config.r), moment_seqs(config)))


def mpl_Rn(n, config):
    """R_n as an operator: the composed L_N over the family's stage sizes."""
    return rodrigues_operator([N for N, _ in rodrigues_stages(config, n)], config.alphas)


def solve_exact(rows, rhs):
    """Gaussian elimination over Q; returns a solution or None if inconsistent."""
    aug = [list(map(F, row)) + [F(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    sol = [F(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][-1]
    return sol


def test_config_validation():
    # the alphas' three checks raise the one error class, which criterion re-exports
    for alphas in ((F(1), F(1)), (F(0), F(1)), (F(1),)):
        with pytest.raises(DegenerateAlphasError):
            MplConfig(m=2, r=1, alphas=alphas)
    with pytest.raises(ValueError):
        MplConfig(m=0, r=1, alphas=())
    assert criterion.DegenerateAlphasError is DegenerateAlphasError
    assert CFG22.M == 8


def test_index_set_cardinality_and_order():
    assert index_set(1, 1) == [MplIndex(s=(1,), a=(1,))]
    assert index_set(1, 2) == [
        MplIndex(s=(1,), a=(1,)),
        MplIndex(s=(2,), a=(1,)),
        MplIndex(s=(1, 1), a=(1, 1)),
    ]
    assert len(index_set(2, 2)) == 8
    for m, r in ((1, 3), (2, 2), (3, 2), (2, 3)):
        assert len(index_set(m, r)) == (m + 1) ** r - 1


def _index_set_by_enumeration(m, r):
    """The enumeration ``index_set`` replaced: all r^k tuples s, kept when |s| <= r."""
    out = []
    for k in range(1, r + 1):
        for s in sorted(s for s in itertools.product(range(1, r + 1), repeat=k) if sum(s) <= r):
            out.extend(MplIndex(s=s, a=a) for a in itertools.product(range(1, m + 1), repeat=k))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_index_set_matches_the_enumeration(m):
    for r in range(1, 7):
        assert index_set(m, r) == _index_set_by_enumeration(m, r)


def test_index_set_time_follows_its_output():
    # the enumeration visited more than 12^12 tuples here; the compositions are 2^12 - 1
    start = time.perf_counter()
    indices = index_set(1, 12)
    assert time.perf_counter() - start < 1.0
    assert len(indices) == 4095


def test_moment_closed_forms():
    li1 = rows_by_index(CFG11)[MplIndex(s=(1,), a=(1,))]
    li2 = rows_by_index(CFG12)[MplIndex(s=(2,), a=(1,))]
    for j in range(10):
        assert li1[j] == F(1, j + 1)
        assert li2[j] == F(1, (j + 1) ** 2)
    assert rows_by_index(CFG22)[MplIndex(s=(1, 1), a=(1, 2))][1] == 1


def test_moment_vanishing_split_is_depth_minus_one():
    # moments vanish exactly below j = depth-1; the chain n_t = t already
    # contributes at j = depth-1
    li11 = MplIndex(s=(1, 1), a=(1, 1))
    row = rows_by_index(CFG12)[li11]
    assert row[0] == 0
    assert row[1] != 0
    assert mpl_moment_oracle(li11, 0, CFG12) == 0
    assert mpl_moment_oracle(li11, 1, CFG12) != 0


def test_two_route_moments_agree():
    for config in (CFG12, CFG21, CFG22):
        for idx, seq in rows_by_index(config).items():
            for j in range(16):
                assert seq[j] == mpl_moment_oracle(idx, j, config)


@pytest.mark.parametrize(
    "alphas",
    [(F(1), F(3)), (F(-2), F(1)), (F(2, 3), F(-5, 7))],
    ids=["integer", "negative", "fractional"],
)
def test_running_sum_rows_match_oracle_to_depth_3(alphas):
    config = MplConfig(m=2, r=3, alphas=alphas)
    for idx, seq in zip(index_set(2, 3), moment_seqs(config)):
        for j in range(26):
            assert seq[j] == mpl_moment_oracle(idx, j, config), (seq.label, j)


def test_rows_read_their_familys_parent_row():
    rows = dict(zip(index_set(2, 2), moment_seqs(CFG22)))
    child = rows[MplIndex(s=(1, 1), a=(2, 1))]
    parent = rows[MplIndex(s=(1,), a=(2,))]
    child[9]
    # moment j of a depth-2 row extends its depth-1 parent to j+1 values, and
    # computes nothing beside the two rows
    assert len(parent._cache) == 10
    assert all(not f._cache for f in rows.values() if f is not child and f is not parent)


def test_rows_are_made_by_the_modules_moment_seq(monkeypatch):
    # mpl reads MomentSeq from transform only when asked, and a class set on
    # mpl (as the benchmark's tracer sets a timed one) is the one rows use
    import rodpade.mpl as mpl_mod
    from rodpade.transform import MomentSeq

    assert mpl_mod.MomentSeq is MomentSeq
    made = []

    class Counting(MomentSeq):
        def __init__(self, fn, label):
            made.append(label)
            super().__init__(fn, label)

    monkeypatch.setattr(mpl_mod, "MomentSeq", Counting)
    seqs = moment_seqs(CFG22)
    assert made == [f.label for f in seqs] and all(type(f) is Counting for f in seqs)


def test_row_labels():
    assert moment_seqs(CFG11)[0].label == "Li_1(1/z)"
    assert rows_by_index(CFG22)[MplIndex(s=(1, 1), a=(1, 2))].label == "Li_1,1(1/2,2/z)"


# L_1 and L_2 for alpha = 1, and L_1 for alphas 1, 2, written out by hand
L1 = DiffOp.of_term(Poly((0, -1, 1)), 1)
L2 = DiffOp.of_term(Poly((0, 0, 1, -2, 1)) / 2, 2)
L1_12 = DiffOp.of_term(Poly((0, 2, -3, 1)), 1)


def test_rodrigues_operator_single_factors():
    assert rodrigues_operator([1], CFG11.alphas) == L1
    assert rodrigues_operator([2], CFG11.alphas) == L2
    assert rodrigues_operator([1], CFG22.alphas) == L1_12
    for m, config in ((1, CFG12), (2, CFG22)):
        for N in (1, 2, 3):
            op = rodrigues_operator([N], config.alphas)
            assert ord_weight(op) == m * N
            assert property_P(op).holds


def test_rodrigues_operator_composes_in_stage_order():
    assert mpl_Rn(1, CFG11) == L1
    # sizes [2, 1]: L_2 o L_1, so the adjoint applies L_2* first
    assert mpl_Rn(1, CFG12) == op_compose(L2, L1)
    assert rodrigues_operator([1, 2], CFG12.alphas) == op_compose(L1, L2)
    assert op_compose(L1, L2) != op_compose(L2, L1)
    assert mpl_Rn(1, CFG22) == op_compose(rodrigues_operator([3], CFG22.alphas), L1_12)
    for config, n in ((CFG12, 2), (CFG21, 2), (CFG22, 1)):
        op = mpl_Rn(n, config)
        assert ord_weight(op) == config.M * n
        assert property_P(op).holds


@pytest.mark.parametrize("sizes", [[], [0], [2, -1]])
def test_rodrigues_operator_rejects_empty_or_nonpositive_sizes(sizes):
    with pytest.raises(ValueError):
        rodrigues_operator(sizes, CFG11.alphas)


def test_composite_L_annihilates_every_row():
    for config in (CFG12, CFG21, CFG22):
        op = mpl_Rn(1, config)
        assert ord_weight(op) == config.M
        for f in moment_seqs(config):
            assert check_membership(op, f, 40)


def test_rodrigues_membership_zero_tails():
    # R_n sends z^k * (every row) into polynomials, watched to depth >= 30
    for config, n_max in ((CFG11, 3), (CFG12, 2), (CFG21, 2), (CFG22, 1)):
        for n in range(1, n_max + 1):
            rn = mpl_Rn(n, config)
            spread = max(int(b.degree) - j for j, b in enumerate(rn.terms) if not b.is_zero)
            depth = 30 + spread + len(rn.terms)
            for f in moment_seqs(config):
                for k in range(n):
                    _, tail = op_apply_laurent(rn, series(shifted(f, k), depth))
                    assert tail.depth >= 30
                    assert tail.is_zero_to_depth(), (config, n, f.label, k)


def test_cascade_lands_in_lower_depth_span():
    # L_n . z^k f lands in K[z] + sum over the one-level-down rows with
    # polynomial coefficients of degree < (m+1)n; solved exactly
    for config in (CFG12, CFG22):
        family = rows_by_index(config)
        sub_rows = [family[MplIndex(s=(1,), a=(i,))] for i in range(1, config.m + 1)]
        for n in (1, 2, 3):
            ln = rodrigues_operator([n], config.alphas)
            width = (config.m + 1) * n
            unknown_count = len(sub_rows) * width
            depth = unknown_count + 25
            for idx, f in family.items():
                for k in range(n):
                    _, tail = op_apply_laurent(ln, series(shifted(f, k), depth + 3 * n + 2))
                    usable = min(tail.depth, depth)
                    rows = []
                    rhs = []
                    for t in range(usable):
                        row = []
                        for g in sub_rows:
                            for u in range(width):
                                # tail coefficient of z^-(t+1) of z^u * g
                                row.append(g[t + u])
                        rows.append(row)
                        rhs.append(tail.coeff(t + 1))
                    assert solve_exact(rows, rhs) is not None, (config, n, idx, k)


def test_degree_law_of_columns():
    table = pade_table(CFG12, 2)
    for cell in table.cells:
        assert cell.degree == CFG12.M * 2 + cell.ell
    assert table.cells[3].degree == 9  # M*n + l = 3*2 + 3


def test_legendre_table_cells():
    table = pade_table(CFG11, 1)
    assert poly(table.cells[0].column) == Poly((1, -2))
    assert q_polys(table.cells[0])["Li_1(1/z)"] == Poly.constant(-2)
    assert poly(table.cells[1].column) == Poly((0, 2, -3))
    assert q_polys(table.cells[1])["Li_1(1/z)"] == Poly((F(1, 2), -3))
    rem = fraction_remainder(moment_seqs(CFG11)[0], poly(table.cells[0].column), 1, 2)
    assert rem == (2, (F(-1, 6), F(-1, 6)), True)
    run, scale = table.cells[0].heads["Li_1(1/z)"]
    assert [F(t, scale) for t in run] == [0, F(-1, 6)]


def test_tables_verify_on_small_grid():
    for config, n in ((CFG11, 2), (CFG12, 1), (CFG21, 2), (CFG22, 1)):
        table = pade_table(config, n)
        seqs = moment_seqs(config)
        for cell in table.cells:
            # the series route on a fresh family's windows, not the table's
            assert verify_pade(cell, seqs, cell.degree)


def test_tables_compare_by_value_whatever_their_windows_grew_to():
    # the weight-3 table grows the rows' windows first, so the weight-2 one's
    # Q pairs are over a larger L than a fresh weight-2 table's
    fresh = pade_table(CFG11, 2)
    grown = pade_tables(CFG11, [3, 2])[2]
    assert fresh.cells[0].q_pairs != grown.cells[0].q_pairs
    assert fresh == grown
    assert fresh != pade_table(CFG11, 3)
    assert fresh != pade_table(MplConfig(m=1, r=1, alphas=(2,)), 2)


def test_delta_constants():
    assert table_determinants(pade_table(CFG11, 1)) == (F(1, 2), F(-1, 6))
    assert table_determinants(pade_table(CFG11, 2))[0] == F(1, 3)  # frozen regression value
    assert table_determinants(pade_table(CFG21, 1))[0] != 0


def test_delta_theta_absolute_identity():
    for config, n in ((CFG11, 1), (CFG11, 2), (CFG11, 3), (CFG12, 1), (CFG21, 1)):
        table = pade_table(config, n)
        delta, theta = table_determinants(table)
        assert abs(delta) == abs(poly(table.cells[-1].column).lc * theta)


def test_value_labels_for_criterion():
    idx = MplIndex(s=(1, 1), a=(1, 2))
    assert idx.value_label(CFG22, F(30)) == "Li_1,1(1/2,1/15)"
