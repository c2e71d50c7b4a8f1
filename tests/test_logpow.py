"""Log-power rows: moments by two routes, operator identities, determinants."""

from __future__ import annotations

from fractions import Fraction as F

from oracles import poly, q_polys, series, shifted

from rodpade.logpow import (
    LogPowConfig,
    logpow_moment_stirling,
    logpow_table,
    moment_seqs,
    rodrigues_stages,
)
from rodpade.holonomic import check_membership
from rodpade.mpl import MplConfig, pade_table
from rodpade.determinant import table_determinants
from rodpade.transform import verify_pade
from rodpade.weyl import (
    DiffOp,
    Poly,
    build_En,
    op_apply_laurent,
    op_compose,
    ord_weight,
    property_P,
    rodrigues_operator,
    verify_En_identities,
)

E1 = DiffOp.of_term(Poly((0, -1, 1)), 1)


def log_Rn(n, m):
    """R_n = (1/(n!)^m) E_n^m as an operator: L_n with alpha = 1 over the m stages."""
    stages = rodrigues_stages(LogPowConfig(m=m, n=n))
    return rodrigues_operator([N for N, _ in stages], (1,))


def test_moment_basic_values():
    log1, log2 = moment_seqs(2)
    for j in range(12):
        assert log1[j] == F(-1, j + 1)
    assert log2[0] == 0
    assert log2[2] == 1


def test_moment_two_routes_agree():
    for s, seq in enumerate(moment_seqs(4), start=1):
        for j in range(41):
            assert seq[j] == logpow_moment_stirling(s, j)


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
    for s, seq in enumerate(moment_seqs(3), start=1):
        coeffs = _log_power_coeffs(s, 200)
        assert coeffs[199] == seq[199]
        for j in range(200):
            assert logpow_moment_stirling(s, j) == coeffs[j]


def test_recurrence_rows_against_stirling_to_300():
    seqs = moment_seqs(4)
    for s in range(1, 5):
        for j in range(300):
            expected = logpow_moment_stirling(s, j)
            assert seqs[s - 1][j] == expected, (s, j)


def test_recurrence_reaches_depth_1500():
    assert moment_seqs(3)[-1][1500] == logpow_moment_stirling(3, 1500)


def test_build_operators():
    z2z1 = Poly.monomial(2) * Poly((-1, 1)) ** 2
    assert build_En(2).to_json() == [{"order": 2, "coeff": z2z1.to_strings()}]
    # L_n with alpha = 1 is E_n / n!, and R_n is it taken m times
    assert log_Rn(1, 1) == build_En(1) == E1
    assert log_Rn(2, 1) == build_En(2) * F(1, 2)
    assert log_Rn(1, 2) == op_compose(E1, E1)
    assert log_Rn(2, 3) == op_compose(log_Rn(2, 1), op_compose(log_Rn(2, 1), log_Rn(2, 1)))
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            rn = log_Rn(n, m)
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


def test_En_identities_fail_on_a_wrong_factor(monkeypatch):
    from rodpade import weyl

    real = weyl.build_En
    monkeypatch.setattr(weyl, "build_En", lambda n: real(n) * 2 if n == 3 else real(n))
    assert verify_En_identities(1)
    assert not verify_En_identities(2)  # (ii) at n = 2 reads E_3


def test_log_rows_satisfy_composite_recurrence():
    for m in (1, 2, 3):
        lm = log_Rn(1, m)
        assert ord_weight(lm) == m
        for f in moment_seqs(m):
            assert check_membership(lm, f, 200), (m, f.label)


def test_basic_relation_decomposition():
    # E_n . z^(n-1) log^s decomposes over lower log powers with
    # polynomial coefficients of degree <= n-1
    from test_mpl import solve_exact

    family = moment_seqs(3)
    for n in (1, 2, 3, 4):
        en = build_En(n)
        for s in (1, 2, 3):
            f = family[s - 1]
            depth = 70
            _, tail = op_apply_laurent(en, series(shifted(f, n - 1), depth))
            usable = min(tail.depth, 40)
            lower = family[: s - 1]
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
            rn = log_Rn(n, m)
            spread = ord_weight(rn)
            depth = 40 + spread + len(rn.terms)
            for s, f in enumerate(moment_seqs(m), start=1):
                for k in range(n):
                    _, tail = op_apply_laurent(rn, series(shifted(f, k), depth))
                    assert tail.depth >= 40
                    assert tail.is_zero_to_depth(), (m, n, s, k)


def test_legendre_cell_with_negated_moments():
    cell = logpow_table(LogPowConfig(m=1, n=1)).cells[0]
    assert poly(cell.column) == Poly((1, -2))
    assert q_polys(cell)["log^1"] == Poly.constant(2)


def test_table_cells_verify():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        config = LogPowConfig(m=m, n=n)
        table = logpow_table(config)
        seqs = moment_seqs(m)
        for cell in table.cells:
            assert cell.degree == m * n + cell.ell
            # the series route on a fresh family's windows, not the table's
            assert verify_pade(cell, seqs, cell.degree)


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
        assert abs(delta) == abs(poly(table.cells[-1].column).lc * theta)
