"""Table columns by the Rodrigues chain, against the composed-operator route.

The tables take P_l from ``transform.rodrigues_columns``: the adjoint factors
(-1)^N (1/N!) D^N z^N prod_i (z - alpha_i)^N applied to t^l one after
another in integer arithmetic.  The oracle is the operator route it
replaced: compose R_n in ``Fraction`` polynomials
(``algebra.rodrigues_operator`` on the stage sizes), take its adjoint and apply
that to t^l.  The two share no column code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from algebra import Poly, adjoint, op_apply, rodrigues_operator
from oracles import poly

from rodpade import logpow as logpow_mod
from rodpade import mpl as mpl_mod
from rodpade.exact import int_convolve
from rodpade.transform import rodrigues_columns, rodrigues_factor, rodrigues_lift

ALPHAS = {
    1: [(F(1),), (F(-3),), (F(-5, 2),)],
    2: [(F(1), F(2)), (F(-2), F(1, 3)), (F(3, 2), F(-5, 7))],
    3: [(F(1), F(-2), F(1, 2)), (F(2, 3), F(-3, 4), F(5))],
}
GRID = [(1, 1, n) for n in range(1, 9)]
GRID += [(1, 2, n) for n in range(1, 4)] + [(2, 1, n) for n in range(1, 4)]
GRID += [(2, 2, n) for n in range(1, 4)] + [(1, 3, 1), (3, 1, 2)]
MPL_CASES = [(m, r, alphas, n) for m, r, n in GRID for alphas in ALPHAS[m]]
MPL_IDS = [f"m{m}r{r}n{n}-a{ALPHAS[m].index(a)}" for m, r, a, n in MPL_CASES]


def _chain_by_stage(stages, ell):
    """The chain run stage by stage, each stage checked to be over a reduced denominator."""
    nums, den = [0] * ell + [1], 1
    for N, (b_nums, b_den) in stages:
        nums, den = rodrigues_lift(int_convolve(nums, b_nums), den * b_den, N)
        assert den > 0 and math.gcd(den, *nums) == 1
    sign = (-1) ** sum(N for N, _ in stages)
    return Poly.from_ints(nums, den) * sign


@pytest.mark.parametrize("m, r, alphas, n", MPL_CASES, ids=MPL_IDS)
def test_mpl_columns_match_the_adjoint_route(m, r, alphas, n):
    config = mpl_mod.MplConfig(m=m, r=r, alphas=alphas)
    stages = mpl_mod.rodrigues_stages(config, n)
    assert [N for N, _ in stages] == [(m + 1) ** j * n for j in range(r - 1, -1, -1)]
    rstar = adjoint(rodrigues_operator([N for N, _ in stages], alphas))
    expected = [op_apply(rstar, Poly.monomial(ell)) for ell in range(config.M + 1)]
    assert [poly(c) for c in rodrigues_columns(stages, config.M + 1)] == expected
    assert [_chain_by_stage(stages, ell) for ell in range(config.M + 1)] == expected
    assert [poly(c) for c in mpl_mod.pade_table(config, n).columns] == expected


@pytest.mark.parametrize("m", range(1, 5))
def test_logpow_columns_match_the_adjoint_route(m):
    for n in range(1, 7):
        stages = logpow_mod.rodrigues_stages(m, n)
        assert [N for N, _ in stages] == [n] * m
        rstar = adjoint(rodrigues_operator([N for N, _ in stages], (1,)))
        expected = [op_apply(rstar, Poly.monomial(ell)) for ell in range(m + 1)]
        assert [poly(c) for c in rodrigues_columns(stages, m + 1)] == expected, (m, n)
        assert [_chain_by_stage(stages, ell) for ell in range(m + 1)] == expected, (m, n)
        assert [poly(c) for c in logpow_mod.logpow_table(m, n).columns] == expected, (m, n)


def test_factor_is_the_product_of_binomial_powers():
    for alphas in [a for sets in ALPHAS.values() for a in sets]:
        for N in range(0, 6):
            expected = Poly.one()
            for a in alphas:
                expected = expected * Poly((-a, 1)) ** N
            nums, den = rodrigues_factor(N, alphas)
            assert Poly.from_ints(nums, den) == expected
            assert den > 0 and math.gcd(den, *nums) == 1


def test_lift_is_the_scaled_derivative_over_a_reduced_denominator():
    rng = random.Random(61)
    for _ in range(60):
        nums = [rng.randint(-40, 40) for _ in range(rng.randint(1, 9))]
        den = rng.choice([1, 2, 6, 12, 35, 2**7 * 3])
        N = rng.randint(0, 6)
        out, d = rodrigues_lift(nums, den, N)
        expected = (Poly.monomial(N) * Poly.from_ints(nums, den)).derivative(N) / math.factorial(N)
        assert Poly.from_ints(out, d) == expected
        if any(out):
            assert d > 0 and math.gcd(d, *out) == 1
