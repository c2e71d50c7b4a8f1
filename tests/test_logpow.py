"""Log-power rows: moments by two routes, operator identities, determinants."""

from __future__ import annotations

from fractions import Fraction as F

from rodpade.exact import Poly
from rodpade.logpow import (
    LogPowConfig,
    build_En,
    build_Lm,
    build_Rn_log,
    logpow_moment,
    logpow_moment_stirling,
    logpow_table,
    moment_seq,
    moment_seqs,
    verify_En_identities,
)
from rodpade.holonomic import check_membership
from rodpade.mpl import MplConfig, pade_table
from rodpade.transform import table_determinants, verify_pade
from rodpade.weyl import DiffOp, op_apply_laurent, op_compose, ord_weight, property_P


def test_moment_basic_values():
    for j in range(12):
        assert logpow_moment(1, j) == F(-1, j + 1)
    assert logpow_moment(2, 0) == 0
    assert logpow_moment(2, 2) == 1


def test_moment_two_routes_agree():
    for s in range(1, 5):
        for j in range(41):
            assert logpow_moment(s, j) == logpow_moment_stirling(s, j)


def test_stirling_oracle_is_iterative():
    # c(j+1, 1) = j! and c(j+1, 2) = j! H_j, so the moments are -1/(j+1) and
    # 2 H_j/(j+1); the recursive route overflowed the stack near j = 1000
    j = 1500
    harmonic = sum(F(1, k) for k in range(1, j + 1))
    assert logpow_moment_stirling(1, j) == F(-1, j + 1)
    assert logpow_moment_stirling(2, j) == 2 * harmonic / (j + 1)


def _log_power_coeffs(s: int, depth: int) -> tuple[F, ...]:
    """Coefficients of z^-1..z^-depth of (log(1 - 1/z))^s, by exact convolution."""
    base = [F(0)] + [F(-1, k) for k in range(1, depth + 1)]
    power = [F(0)] * (depth + 1)
    power[0] = F(1)
    for _ in range(s):
        nxt = [F(0)] * (depth + 1)
        for i, c in enumerate(power):
            if c == 0:
                continue
            for k in range(1, depth + 1 - i):
                nxt[i + k] += c * base[k]
        power = nxt
    return tuple(power[1:])


def test_stirling_oracle_against_convolution_to_depth_200():
    # the depth-200 convolution of the base series holds every moment j < 200
    # at once: a third route, sharing no code with the recurrence or Stirling
    for s in range(1, 4):
        coeffs = _log_power_coeffs(s, 200)
        assert coeffs[199] == logpow_moment(s, 199)
        for j in range(200):
            assert logpow_moment_stirling(s, j) == coeffs[j]


def test_recurrence_rows_against_stirling_to_300():
    seqs = moment_seqs(4)
    for s in range(1, 5):
        for j in range(300):
            expected = logpow_moment_stirling(s, j)
            assert seqs[s - 1][j] == expected, (s, j)
            if j % 23 == 0 or j == 299:
                assert logpow_moment(s, j) == expected, (s, j)


def test_recurrence_reaches_depth_1500():
    assert logpow_moment(3, 1500) == logpow_moment_stirling(3, 1500)


def test_build_operators():
    z2z1 = Poly.monomial(2) * Poly((-1, 1)) ** 2
    assert build_En(2).to_json() == [{"order": 2, "coeff": z2z1.to_strings()}]
    assert build_Rn_log(1, 1) == build_En(1)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            rn = build_Rn_log(n, m)
            assert ord_weight(rn) == m * n
            assert property_P(rn).holds


def test_En_identities():
    assert verify_En_identities(4)
    # n = 1 instance of the shift identity: both sides z^3(z-1)^2 D^2 + 2 z^2(z-1)^2 D
    lhs = op_compose(build_En(2), DiffOp.mul_by(Poly((0, 1))))
    expected = DiffOp(
        (
            Poly.zero(),
            2 * Poly.monomial(2) * Poly((-1, 1)) ** 2,
            Poly.monomial(3) * Poly((-1, 1)) ** 2,
        )
    )
    assert lhs == expected


def test_log_rows_satisfy_composite_recurrence():
    for m in (1, 2, 3):
        lm = build_Lm(m)
        assert ord_weight(lm) == m
        for f in moment_seqs(m):
            assert check_membership(lm, f, 200), (m, f.label)


def test_basic_relation_decomposition():
    # E_n . z^(n-1) log^s decomposes over lower log powers with
    # polynomial coefficients of degree <= n-1
    from test_mpl import solve_exact

    for n in (1, 2, 3, 4):
        en = build_En(n)
        for s in (1, 2, 3):
            f = moment_seq(s)
            depth = 70
            _, tail = op_apply_laurent(en, f.shift(n - 1).tail(depth))
            usable = min(tail.depth, 40)
            lower = [moment_seq(j) for j in range(1, s)]
            if not lower:
                assert all(tail.coeff(t + 1) == 0 for t in range(usable))
                continue
            rows, rhs = [], []
            for t in range(usable):
                row = []
                for g in lower:
                    for u in range(n):  # deg <= n-1
                        row.append(g[t + u])
                rows.append(row)
                rhs.append(tail.coeff(t + 1))
            assert solve_exact(rows, rhs) is not None, (n, s)


def test_rodrigues_membership_log_rows():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            rn = build_Rn_log(n, m)
            spread = ord_weight(rn)
            depth = 40 + spread + len(rn.terms)
            for s in range(1, m + 1):
                f = moment_seq(s)
                for k in range(n):
                    _, tail = op_apply_laurent(rn, f.shift(k).tail(depth))
                    assert tail.depth >= 40
                    assert tail.is_zero_to_depth(), (m, n, s, k)


def test_legendre_cell_with_negated_moments():
    cell = logpow_table(LogPowConfig(m=1, n=1)).cells[0]
    assert cell.P == Poly((1, -2))
    assert cell.Qs["log^1"] == Poly.constant(2)


def test_table_cells_verify():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        config = LogPowConfig(m=m, n=n)
        table = logpow_table(config)
        seqs = moment_seqs(m)
        for cell in table.cells:
            assert cell.P.degree == m * n + cell.ell
            assert verify_pade(cell, seqs, int(cell.P.degree))


def test_determinants():
    def delta(table):
        return table_determinants(table)[0]

    assert delta(logpow_table(LogPowConfig(1, 1))) == F(-1, 2)
    assert delta(logpow_table(LogPowConfig(2, 1))) == F(-1, 6)  # frozen regression value
    # m=1 rows are the negated classical rows, so the determinant flips sign
    assert delta(logpow_table(LogPowConfig(1, 2))) == -delta(
        pade_table(MplConfig(m=1, r=1, alphas=(F(1),)), 2)
    )


def test_delta_theta_absolute_identity():
    for m, n in ((1, 1), (1, 2), (2, 1)):
        config = LogPowConfig(m=m, n=n)
        table = logpow_table(config)
        delta, theta = table_determinants(table)
        assert abs(delta) == abs(table.cells[-1].P.lc * theta)
