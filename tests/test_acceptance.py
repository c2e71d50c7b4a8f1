"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines on the console.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import lru_cache

from algebra import (
    DiffOp,
    Poly,
    adjoint,
    op_apply,
    op_apply_laurent,
    op_compose,
    ord_weight,
    rodrigues_operator,
)
from holonomic import solve_V1
from oracles import fraction_phi, fraction_remainder, poly, q_polys, series, shifted

from rodpade.audit import bounds_audit, log_lcm_upto, remainder_decay
from rodpade.criterion import _V
from rodpade.determinant import table_determinants
from rodpade.heights import Place
from rodpade.logpow import LogPowConfig, logpow_table, verify_En_identities
from rodpade.logpow import moment_seqs as log_moment_seqs
from rodpade.logpow import rodrigues_stages as log_rodrigues_stages
from rodpade.mpl import (
    MplConfig,
    index_set,
    moment_seqs,
    mpl_moment_oracle,
    pade_table,
    pade_tables,
    rodrigues_stages,
)

# (m, r) -> highest weight exercised; alphas are (1) for m=1 and (1,2) for m=2
GRID = {(1, 1): 4, (1, 2): 4, (2, 1): 4, (2, 2): 2}


@lru_cache(maxsize=None)
def grid_config(m: int, r: int) -> MplConfig:
    return MplConfig(m=m, r=r, alphas=(F(1),) if m == 1 else (F(1), F(2)))


@lru_cache(maxsize=None)
def grid_table(m: int, r: int, n: int):
    return pade_table(grid_config(m, r), n)


@lru_cache(maxsize=None)
def grid_seqs(m: int, r: int):
    return tuple(moment_seqs(grid_config(m, r)))


def _report(num: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {tag}{suffix}")
    assert ok, f"criterion {num} failed {suffix}"


def test_criterion_01_legendre_fixture():
    t0 = time.perf_counter()
    table = grid_table(1, 1, 1)
    li1 = grid_seqs(1, 1)[0]
    ok = poly(table.cells[0].column) == Poly((1, -2))
    ok = ok and q_polys(table.cells[0])["Li_1(1/z)"] == Poly.constant(-2)
    ok = ok and poly(table.cells[1].column) == Poly((0, 2, -3))
    ok = ok and q_polys(table.cells[1])["Li_1(1/z)"] == Poly((F(1, 2), -3))
    start, coeffs, _ = fraction_remainder(li1, poly(table.cells[0].column), 1, 2)
    ok = ok and start == 2 and coeffs[0] == F(-1, 6)
    run, scale = table.cells[0].heads["Li_1(1/z)"]
    ok = ok and [F(t, scale) for t in run] == [0, F(-1, 6)]
    delta, theta = table_determinants(table)
    ok = ok and delta == F(1, 2)
    ok = ok and theta == F(-1, 6)
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_criterion_02_orthogonality_and_degree_grid():
    t0 = time.perf_counter()
    ok = True
    for (m, r), n_max in GRID.items():
        config = grid_config(m, r)
        seqs = grid_seqs(m, r)
        for n in range(1, n_max + 1):
            table = grid_table(m, r, n)
            for cell in table.cells:
                p = poly(cell.column)
                ok = ok and p.degree == config.M * n + cell.ell
                for f in seqs:
                    for k in range(n):
                        ok = ok and fraction_phi(f, p.shift(k)) == 0
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 120.0, f"{elapsed:.1f}s < 120s")


def test_criterion_03_determinant_constancy_grid():
    ok = True
    for (m, r), n_max in GRID.items():
        for n in range(1, n_max + 1):
            table = grid_table(m, r, n)
            delta, theta = table_determinants(table)  # raises if zero/nonconstant
            ok = ok and delta != 0
            ok = ok and abs(delta) == abs(poly(table.cells[-1].column).lc * theta)
    _report(3, ok)


def test_criterion_04_two_route_moments_and_solver():
    ok = True
    for m, r in GRID:
        config = grid_config(m, r)
        for idx, f in zip(index_set(m, r), grid_seqs(m, r)):
            for j in range(41):
                ok = ok and f[j] == mpl_moment_oracle(idx, j, config)
    for m, r in GRID:
        config = grid_config(m, r)
        op = rodrigues_operator([N for N, _ in rodrigues_stages(config, 1)], config.alphas)
        d = ord_weight(op)
        for f in grid_seqs(m, r):
            rebuilt = solve_V1(op, [f[k] for k in range(d)], 50)
            ok = ok and all(rebuilt[k] == f[k] for k in range(50))
    _report(4, ok)


def test_criterion_05_randomized_adjoint_algebra():
    rng = random.Random(20240809)
    seqs = [
        grid_seqs(1, 2)[0],
        grid_seqs(1, 2)[1],
        grid_seqs(1, 2)[2],
        *log_moment_seqs(2),
    ]

    def random_op(nonzero=True):
        while True:
            op = DiffOp(
                Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 4))
            )
            if not nonzero or not op.is_zero:
                return op

    failures = 0
    for trial in range(100):
        l1, l2 = random_op(), random_op()
        if adjoint(adjoint(l1)) != l1:
            failures += 1
        if adjoint(op_compose(l1, l2)) != op_compose(adjoint(l2), adjoint(l1)):
            failures += 1
        if ord_weight(op_compose(l1, l2)) != ord_weight(l1) + ord_weight(l2):
            failures += 1
        probe = DiffOp(
            Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 3))
        )
        if probe.is_zero:
            probe = DiffOp.identity()
        f = seqs[trial % len(seqs)]
        _, tail = op_apply_laurent(probe, series(f, 45))
        star = adjoint(probe)
        for k in range(26):
            if tail.moment(k) != fraction_phi(f, op_apply(star, Poly.monomial(k))):
                failures += 1
                break
    _report(5, failures == 0, f"{failures} failures in 100 trials")


def test_criterion_06_appendix_suite():
    ok = verify_En_identities(4)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            stages = log_rodrigues_stages(LogPowConfig(m=m, n=n))
            rn = rodrigues_operator([N for N, _ in stages], (1,))
            depth = 40 + ord_weight(rn) + len(rn.terms)
            for f in log_moment_seqs(m):
                for k in range(n):
                    _, tail = op_apply_laurent(rn, series(shifted(f, k), depth))
                    ok = ok and tail.depth >= 40 and tail.is_zero_to_depth()
    deltas = {
        mn: table_determinants(logpow_table(LogPowConfig(*mn)))[0]
        for mn in ((1, 1), (1, 2), (2, 1))
    }
    ok = ok and deltas[1, 1] == F(-1, 2)
    ok = ok and deltas[1, 2] != 0
    ok = ok and deltas[2, 1] != 0
    _report(6, ok)


def test_criterion_07_criterion_threshold():
    place = Place()
    config = MplConfig(1, 1, (F(1),))
    values = {b: _V(config, F(b), place)[0].value for b in range(2, 41)}
    minimal = min(b for b, v in values.items() if v > 0)
    expected_30 = math.log(30) - 2 * math.log(2) - 2
    expected_29 = math.log(29) - 2 * math.log(2) - 2
    ok = minimal == 30
    ok = ok and abs(values[30] - expected_30) < 1e-6 and abs(values[30] - 0.0149) < 1e-4
    ok = ok and abs(values[29] - expected_29) < 1e-6 and abs(values[29] + 0.0190) < 1e-4
    _report(7, ok, f"minimal beta = {minimal}, V(30) = {values[30]:.7f}")


def test_criterion_08_bound_audits_and_decay():
    t0 = time.perf_counter()
    ok = True
    places = [Place(), Place(2), Place(3)]
    for (m, r), n_max in GRID.items():
        config = grid_config(m, r)
        for n in range(1, n_max + 1):
            table = grid_table(m, r, n)
            for place in places:
                rows = bounds_audit(config, table, place, beta=F(30))
                ok = ok and all(row.holds for row in rows)
    config = grid_config(1, 1)
    decay = remainder_decay(config, F(30), Place(), pade_tables(config, range(2, 13)))
    ok = ok and decay["slope"] <= -1.01
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 180.0, f"slope {decay['slope']:.2f} <= -1.01, {elapsed:.1f}s < 180s")


def test_criterion_09_lcm_growth():
    t0 = time.perf_counter()
    ratio = log_lcm_upto(100_000) / 100_000
    elapsed = time.perf_counter() - t0
    ok = 0.95 <= ratio <= 1.05 and elapsed < 30.0
    _report(9, ok, f"ratio {ratio:.5f} in [0.95, 1.05], {elapsed:.1f}s < 30s")


def test_criterion_10_cli_determinism():
    commands = [
        ["pade", "--m", "1", "--r", "2", "--alphas", "1", "--n", "1"],
        ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30", "--place", "inf"],
        ["audit", "--lcm", "10000"],
    ]
    ok = True
    for cmd in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "rodpade"] + cmd, capture_output=True)
            for _ in range(2)
        ]
        ok = ok and runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode
    _report(10, ok)
