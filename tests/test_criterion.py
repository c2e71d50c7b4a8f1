"""Heights, lcm growth, the quantity V, bound audits, remainder decay."""

from __future__ import annotations

import decimal
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction as F

import pytest
from algebra import log_fraction
from oracles import audit_payload, audit_rows, fraction_phi, poly, q_polys

from rodpade.audit import _primes_upto, _row_json, lcm_upto
from rodpade.criterion import _V, evaluate_criterion
from rodpade.exact import log_int
from rodpade.heights import (
    H_v_vec,
    Place,
    _int_valuation,
    _is_prime,
    _round15,
    _int_height_v,
    _log_pair,
    abs_v,
    global_height_vec,
)
from rodpade.mpl import MplConfig, pade_table, pade_tables

INF_PLACE = Place()
BAD_BETA = re.escape("|beta|_v must exceed the local height of the alphas")


def norm_v(p, place):
    """max_i |p_i|_v over a polynomial's coefficients, one ``abs_v`` each; 0 for zero."""
    return max((abs_v(c, place) for c in p.coeffs), default=F(0))


def H_v(x, place):
    """max(1, |x|_v), through ``abs_v``."""
    return max(F(1), abs_v(x, place))


def pair(x):
    """A rational as the integer pair (numerator, denominator) that ``_remainder_sum`` reads."""
    return x.numerator, x.denominator


def local_height(x, place):
    """h_v(x) = log max(1, |x|_v), the log of x's height pair: how the program reads a local height."""
    return _log_pair(_int_height_v((x.numerator,), x.denominator, place))


def test_place_parsing_and_validation():
    assert Place.parse("inf") == INF_PLACE
    assert Place.parse("p2") == Place(2)
    assert Place.parse("3") == Place(3)
    with pytest.raises(ValueError):
        Place(4)


def test_normalized_absolute_values():
    assert abs_v(F(1, 2), Place(2)) == 2
    assert abs_v(F(12), Place(2)) == F(1, 4)
    assert abs_v(F(-7, 3), INF_PLACE) == F(7, 3)
    assert (_int_valuation(9, 2), _int_valuation(8, 2), _int_valuation(-24, 3)) == (0, 3, 1)


def test_local_height_examples():
    assert abs(local_height(F(30), INF_PLACE) - math.log(30)) < 1e-14
    assert abs(local_height(F(1, 2), Place(2)) - math.log(2)) < 1e-14
    for place in (INF_PLACE, Place(2), Place(5)):
        assert local_height(F(1), place) == 0.0


def test_product_formula_exact():
    rng = random.Random(41)
    for _ in range(50):
        x = F(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        prod = abs(x)  # archimedean factor of prod_v max(1,|x|_v) is max(1,|x|)
        prod = max(F(1), abs(x))
        for p in {2, 3, 5, 7, 11, 13}.union(
            set(_prime_factors(x.denominator)), set(_prime_factors(abs(x.numerator)))
        ):
            prod *= max(F(1), abs_v(x, Place(p)))
        assert prod == max(abs(x.numerator), x.denominator)


def _prime_factors(n: int):
    """The primes of n, with multiplicity, by trial division: the oracle's own factorizer."""
    n = abs(n)
    f = 2
    while f * f <= n:
        while n % f == 0:
            yield f
            n //= f
        f += 1
    if n > 1:
        yield n


def test_height_profile_sums_to_global():
    # h(x) is the sum of the local heights at infinity and at the primes of the denominator
    for x in (F(3, 4), F(30), F(-22, 7), F(1), F(5, 72)):
        places = [INF_PLACE] + [Place(p) for p in set(_prime_factors(x.denominator))]
        assert abs(sum(local_height(x, place) for place in places) - global_height_vec((x,))) < 1e-12


def _factored_global_H_vec(xs):
    """prod_v max(1, |x_1|_v, ..) place by place, over the factored denominators."""
    acc = max([F(1)] + [abs(x) for x in xs])
    for p in {q for x in xs for q in _prime_factors(x.denominator)}:
        acc *= F(p) ** max(_naive_valuation(x.denominator, p) for x in xs)
    return acc


def test_global_height_lcm_matches_factoring():
    rng = random.Random(43)
    for _ in range(200):
        xs = [F(rng.randint(-60, 60), rng.randint(1, 360)) for _ in range(rng.randint(1, 4))]
        want = _factored_global_H_vec(xs)
        assert want.denominator == 1
        assert global_height_vec(xs) == log_int(want.numerator)
        assert global_height_vec(xs[:1]) == log_int(_factored_global_H_vec(xs[:1]).numerator)


def test_global_height_huge_denominator_is_fast(capsys):
    from rodpade.cli import main

    alpha = f"1/{10**119 + 7}"
    start = time.perf_counter()
    code = main(["criterion", "--m", "1", "--r", "1", "--alphas", alpha, "--beta", "10"])
    assert time.perf_counter() - start < 2.0
    assert code == 3  # the height of alpha makes V negative
    v = json.loads(capsys.readouterr().out)["V"]
    assert abs(v["terms"]["h_alpha_vec"] - math.log(10**119 + 7)) < 1e-9


def test_is_prime_matches_sieve():
    primes = set(_primes_upto(10**5))
    assert all(_is_prime(n) == (n in primes) for n in range(-3, 10**5 + 1))


def test_is_prime_large_inputs():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(10**18 + 3)
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * (10**9 + 7))
    with pytest.raises(ValueError):
        _is_prime(3317044064679887385961981)


def test_place_beyond_primality_bound_exits_2(capsys):
    from rodpade.cli import main

    place = f"p{10**25 + 13}"
    argv = ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30"]
    code = main(argv + ["--place", place])
    assert code == 2
    assert "primality" in capsys.readouterr().err


def test_lcm_values():
    assert lcm_upto(1) == 1
    assert lcm_upto(5) == 60
    assert lcm_upto(10) == 2520
    assert lcm_upto(30) % 29 == 0 and lcm_upto(30) % 27 == 0


def test_lcm_growth_small():
    n = 10_000
    assert 0.9 < log_int(lcm_upto(n)) / n < 1.1


LEGENDRE = MplConfig(m=1, r=1, alphas=(F(1),))


def test_V_examples():
    v30, state30, _ = _V(LEGENDRE, F(30), INF_PLACE)
    v29, state29, _ = _V(LEGENDRE, F(29), INF_PLACE)
    assert abs(v30["value"] - (math.log(30) - 2 * math.log(2) - 2)) < 1e-12
    assert abs(v29["value"] - (math.log(29) - 2 * math.log(2) - 2)) < 1e-12
    assert v30["value"] > 0 > v29["value"]
    assert (state30, state29) == ("pass", "fail")
    v1, _, _ = _V(LEGENDRE, F(1), INF_PLACE)
    assert abs(v1["value"] - (-2 * math.log(2) - 2)) < 1e-12
    assert not v30["indeterminate"]


def test_V_monotone_in_beta_with_threshold_30():
    results = {b: _V(LEGENDRE, F(b), INF_PLACE) for b in range(2, 41)}
    values = {b: v["value"] for b, (v, _, _) in results.items()}
    assert all(values[b] < values[b + 1] for b in range(2, 40))
    assert min(b for b, v in values.items() if v > 0) == 30
    assert min(b for b, (_, state, _) in results.items() if state == "pass") == 30


def _valuation(n, p):
    """The exponent of the prime p in the nonzero integer n, by repeated division."""
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _primes_dividing(n):
    """The primes of n > 0, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def _decimal_log(x):
    return decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()


def _local_height(xs, p):
    """log max(1, |x|_p over xs) at the prime p, or at infinity for p = None."""
    if p is None:
        norms = [abs(x) for x in xs]
    else:
        norms = [F(p) ** (_valuation(x.denominator, p) - _valuation(abs(x.numerator), p)) for x in xs]
    return _decimal_log(max([F(1)] + norms))


def _global_height(xs):
    """The sum of the local heights over infinity and the primes of the denominators."""
    places = [None] + sorted({p for x in xs for p in _primes_dividing(x.denominator)})
    return sum((_local_height(xs, p) for p in places), decimal.Decimal(0))


def _V_at_50_digits(m, r, alphas, beta, p):
    """The terms and value of V as ``criterion._V`` documents them, in decimal at 50 digits."""
    M = (m + 1) ** r - 1
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        terms = {
            "h_v0_beta": _local_height([beta], p),
            "h_v0_alpha": _local_height(alphas, p),
            "h_beta": _global_height([beta]),
            "h_alpha_vec": _global_height(alphas),
            "sum_h_alpha_i": sum((_global_height([a]) for a in alphas), decimal.Decimal(0)),
            "constant": M * decimal.Decimal(2).ln()
            + decimal.Decimal(r * (r + 1)) / 2 * decimal.Decimal(m + 1).ln()
            + r
            + r * M,
        }
        value = (
            (M + 1) * terms["h_v0_beta"]
            - terms["h_v0_alpha"]
            - M * (terms["h_beta"] + terms["sum_h_alpha_i"] / m + terms["h_alpha_vec"])
            - terms["constant"]
        )
    return terms, value


# (m, r, alphas, beta, prime of the place or None): fractional, negative and
# large-height alphas, beta at infinity and at a prime of its denominator;
# V > 0 in seven cases and V < 0 in seven
V_ORACLE_CASES = [
    (1, 1, (F(3, 2),), F(500), None),
    (1, 1, (F(-7),), F(10**6, 7), None),
    (1, 1, (F(123456789012345678901, 11),), F(10**50), None),
    (2, 1, (F(3, 2), F(-5, 3)), F(40), None),
    (2, 1, (F(3, 2), F(-5, 3)), F(4 * 10**6), None),
    (2, 1, (F(1, 7), F(-2, 49)), F(1, 7**9), 7),
    (1, 2, (F(-1, 3),), F(10**9), None),
    (1, 2, (F(1, 3),), F(5**30, 3**40), 3),
    (2, 2, (F(1), F(2)), F(10**16), None),
    (2, 2, (F(3, 2), F(-5, 3)), F(10**16), None),
    (3, 1, (F(2), F(-3, 4), F(5, 6)), F(10**12, 7), None),
    (3, 1, (F(1, 2), F(3), F(-5, 4)), F(7, 2**60), 2),
    (1, 3, (F(10**12 + 39, 7),), F(10**40), None),
    (1, 3, (F(2, 5),), F(3, 5**80), 5),
]


@pytest.mark.parametrize(
    "m, r, alphas, beta, p",
    V_ORACLE_CASES,
    ids=[f"{i}-m{m}r{r}-{'inf' if p is None else f'p{p}'}" for i, (m, r, _, _, p) in enumerate(V_ORACLE_CASES)],
)
def test_V_matches_its_formula_in_decimal_beyond_legendre(m, r, alphas, beta, p):
    payload, _ = evaluate_criterion(alphas, beta, m, r, Place(p))
    terms, value = _V_at_50_digits(m, r, alphas, beta, p)
    for name, want in terms.items():
        assert math.isclose(payload["V"]["terms"][name], float(want), rel_tol=1e-12), name
    assert math.isclose(payload["V"]["value"], float(value), rel_tol=1e-12)
    if abs(value) > decimal.Decimal("1e-6"):
        assert payload["hypothesis_checks"]["V_positive"] == ("pass" if value > 0 else "fail")



def test_V_rejects_degenerate_alphas():
    with pytest.raises(ValueError, match="^alphas must be pairwise distinct$"):
        evaluate_criterion((F(1), F(1)), F(30), 2, 1, INF_PLACE)
    with pytest.raises(ValueError, match="^alphas must be nonzero$"):
        evaluate_criterion((F(0),), F(30), 1, 1, INF_PLACE)


def test_evaluate_criterion_passes_at_30():
    rep, passed = evaluate_criterion((F(1),), F(30), 1, 1, INF_PLACE)
    assert passed
    assert rep["conclusion"] == ["Li_1(1/30)"]
    assert rep["hypothesis_checks"] == {"abs_beta_gt_local_height_alpha": True, "V_positive": "pass"}


def test_evaluate_criterion_fails_at_2():
    rep, passed = evaluate_criterion((F(1),), F(2), 1, 1, INF_PLACE)
    assert not passed and rep["hypothesis_checks"]["V_positive"] == "fail"
    assert rep["conclusion"] == []


def test_evaluate_criterion_m2_hypothesis_check():
    rep, _ = evaluate_criterion((F(1), F(2)), F(3), 2, 1, INF_PLACE)
    checks = rep["hypothesis_checks"]
    assert checks["abs_beta_gt_local_height_alpha"]  # |3| > H(alpha) = 2
    assert (checks["V_positive"] == "pass") == (rep["V"]["value"] > 0)


def test_evaluate_criterion_indeterminate_band():
    """V inside the float band: no verdict, no conclusion, exit 3.

    The exact V at beta = 29556224395723/1000000 is +1.35e-14: at 50 digits,
    p/q^2 = 29.556224395723 > 4e^2 = 29.5562243957226009..., so the
    criterion truly holds there, but the float band refuses to say so.
    At (1, 1), alpha = 1 and beta = p/q, V = log(p/q^2) - log(4e^2).
    """
    from decimal import Decimal, localcontext

    from rodpade.cli import main

    with localcontext(prec=50):
        exact = (Decimal(29556224395723) / 10**12 / (4 * Decimal(1).exp() ** 2)).ln()
    assert Decimal("1.35e-14") < exact < Decimal("1.36e-14")
    beta = F(29556224395723, 1000000)
    rep, passed = evaluate_criterion((F(1),), beta, 1, 1, Place())
    assert not passed
    assert rep["hypothesis_checks"]["V_positive"] == "indeterminate"
    v, state, _ = _V(LEGENDRE, beta, Place())
    assert state == "indeterminate" and v["indeterminate"] and abs(v["value"]) < v["error_bound"]
    assert rep["conclusion"] == [] and rep["products"] == []
    assert main(["criterion", "--m", "1", "--alphas", "1", "--beta", "29556224395723/1000000"]) == 3


def test_products_are_deduplicated():
    small, passed = evaluate_criterion((F(1),), F(30), 1, 2, INF_PLACE, include_products=True)
    assert not passed and small["products"] == []  # no conclusion without V > 0
    big, passed = evaluate_criterion((F(1),), F(10**9), 1, 2, INF_PLACE, include_products=True)
    assert passed
    assert "Li_1(1/1000000000)*Li_1(1/1000000000)" in big["products"]
    assert len(big["products"]) == len(set(big["products"]))


@pytest.mark.parametrize("beta, place", [(F(-10**33, 7), "inf"), (F(7, 3**53), "p3")])
def test_conclusion_and_product_labels_follow_their_definition(capsys, beta, place):
    # Li_{s_1..s_k}(alpha_{a_1}/alpha_{a_2}, ..., alpha_{a_k}/beta) over |s| <= r, built here from
    # the definition: depth, then s, then a, each in lexicographic order
    from rodpade.cli import main

    m, r, alphas = 2, 2, (F(3, 2), F(-5, 3))
    argv = ["criterion", "--m", str(m), "--r", str(r), "--alphas=3/2,-5/3", f"--beta={beta}", "--place", place]
    assert main([*argv, "--products"]) == 0
    data = json.loads(capsys.readouterr().out)
    conclusion, products = [], []
    for k in range(1, r + 1):
        for s in (s for s in itertools.product(range(1, r + 1), repeat=k) if sum(s) <= r):
            for a in itertools.product(range(m), repeat=k):
                points = [alphas[x] / alphas[y] for x, y in zip(a, a[1:])] + [alphas[a[-1]] / beta]
                conclusion.append(f"Li_{','.join(map(str, s))}({','.join(map(str, points))})")
                product = "*".join(sorted(f"Li_{s_t}({alphas[a_t] / beta})" for s_t, a_t in zip(s, a)))
                if product not in products:
                    products.append(product)
    assert len(conclusion) == (m + 1) ** r - 1
    assert data["conclusion"] == conclusion
    assert data["products"] == products


def test_column_polynomial_matches_derivative_chain():
    # adjoint route and the iterated (1/N!) D^N z^N prod(z-a)^N route agree up
    # to the sign (-1)^(n*M/m) accumulated over the chain
    from rodpade.mpl import pade_table
    from algebra import DiffOp, Poly, op_apply, op_compose

    def cal_LN(N, config):
        """(1/N!) D^N z^N prod_i (z - alpha_i)^N as one composed operator."""
        b = Poly.monomial(N)
        for a in config.alphas:
            b = b * Poly((-a, 1)) ** N
        return op_compose(DiffOp.d(N), DiffOp.mul_by(b)) * F(1, math.factorial(N))

    for m, r, n in ((1, 1, 2), (1, 2, 1), (2, 1, 2), (1, 2, 2)):
        config = MplConfig(m=m, r=r, alphas=(F(1),) if m == 1 else (F(1), F(2)))
        table = pade_table(config, n)
        sign = (-1) ** (n * config.M // config.m)
        for ell in (0, config.M):
            cur = Poly.monomial(ell)
            for j in range(r - 1, -1, -1):
                cur = op_apply(cal_LN((m + 1) ** j * n, config), cur)
            assert poly(table.columns[ell]) == cur * sign, (m, r, n, ell)


def test_audit_derivative_norm_fixture():
    # (1/2) D^2 z^2 (1+z) has coefficients {1, 3}: the binomial bound C(3,2) = 3 is tight
    from algebra import Poly

    p = Poly((1, 1))
    lifted = (Poly.monomial(2) * p).derivative(2) / 2
    assert lifted == Poly((1, 3))
    assert max(abs(c) for c in lifted.coeffs) == math.comb(2 + 1, 2) * 1


def test_bounds_audit_all_hold_on_small_grid():
    for m, r in ((1, 1), (1, 2), (2, 1)):
        config = MplConfig(m=m, r=r, alphas=(F(1),) if m == 1 else (F(1), F(2)))
        table = pade_table(config, 1)
        for place in (INF_PLACE, Place(2), Place(3)):
            triples = audit_rows(config, table, place, beta=F(30))
            rows = [_row_json(*row) for row in triples]
            assert all(row["holds"] for row in rows), [row["name"] for row in rows if not row["holds"]]
            assert all(
                log_fraction(F(*bound)) >= log_fraction(F(*measured))
                for _, measured, bound in triples
                if measured[0] > 0
            )


def _d_factor(place, r, N):
    """|lcm(1..N)^r|_v^(eps_v - 1): 1 at infinity, p^(r e) at p for the largest p^e <= N."""
    if not place.is_finite or N < 1:
        return F(1)
    e = 0
    while place.p ** (e + 1) <= N:
        e += 1
    return F(place.p) ** (r * e)


def _audit_rows_stage_by_stage(config, table, place, beta):
    """(name, measured, bound) of every audit row, by the original route.

    Each column stage is formed as a ``Poly`` and every norm is taken where it
    is used: one product norm per stage per column, the input norm of every
    operator step taken again, and the chained column bound in a loop of its own.
    """
    from rodpade.exact import int_convolve
    from rodpade.mpl import rodrigues_stages
    from rodpade.transform import rodrigues_lift
    from algebra import Poly

    n, eps = table.n, place.epsilon
    m, r, M = config.m, config.r, config.M
    hs = [H_v(a, place) for a in config.alphas]
    H_alpha_vec = H_v_vec(config.alphas, place)
    rows = []
    stages = rodrigues_stages(config, n)
    for ell in (0, M):
        current = Poly.monomial(ell)
        cur_nums, cur_den = [0] * ell + [1], 1
        for N, (b_nums, b_den) in stages:
            deg_in = int(current.degree)
            h_pow = math.prod(h**N for h in hs)
            bound_prod = F(N + 1) ** (m * eps) * F(2) ** (m * N * eps) * h_pow
            measured_prod = norm_v(Poly.from_ints(b_nums, b_den), place)
            rows.append((f"prod_norm[l={ell},N={N}]", measured_prod, bound_prod))
            shift_nums, shift_den = int_convolve(cur_nums, b_nums), cur_den * b_den
            shifted = Poly.from_ints(shift_nums, shift_den)
            cur_nums, cur_den = rodrigues_lift(shift_nums, shift_den, N)
            derived = Poly.from_ints(cur_nums, cur_den)
            measured = norm_v(derived, place)
            bound_der = F(math.comb(N + int(shifted.degree), N)) ** eps * norm_v(shifted, place)
            rows.append((f"derivative_norm[l={ell},N={N}]", measured, bound_der))
            bound_step = (
                F(m * N + deg_in + 1) ** ((m + 1) * eps)
                * (F(2) ** (m * N) * math.comb((m + 1) * N + deg_in, N)) ** eps
                * math.prod(h**N for h in hs)
                * norm_v(current, place)
            )
            rows.append((f"operator_step_norm[l={ell},N={N}]", measured, bound_step))
            current = derived
        P = poly(table.columns[ell])
        chain, deg_run = F(1), ell
        for N, _ in stages:
            chain *= (
                F(m * N + deg_run + 1) ** ((m + 1) * eps)
                * (F(2) ** (m * N) * math.comb((m + 1) * N + deg_run, N)) ** eps
                * math.prod(h**N for h in hs)
            )
            deg_run += m * N
        rows.append((f"column_norm[l={ell}]", norm_v(P, place), chain))
        if beta is not None:
            degp = int(P.degree)
            bound_eval = F(degp + 1) ** eps * norm_v(P, place) * H_v(beta, place) ** degp
            rows.append((f"column_eval[l={ell}]", abs_v(P(beta), place), bound_eval))
    for f in table.seqs:
        for j in dict.fromkeys((0, 1, n, n + 3)):
            k = j + 1
            bound = F(k) ** ((r + 1) * eps) * _d_factor(place, r, k) * H_alpha_vec**k
            rows.append((f"moment[{f.label},j={j}]", abs_v(f[j], place), bound))
        for ell in (0, M):
            P = poly(table.columns[ell])
            k = int(P.degree) + n + 1
            bound = (
                F(k) ** ((r + 1) * eps) * _d_factor(place, r, k) * H_alpha_vec**k
                * norm_v(P, place)
            )
            measured = abs_v(fraction_phi(f, P, n), place)
            rows.append((f"moment_of_tP[{f.label},l={ell}]", measured, bound))
    for ell, column in enumerate(table.columns):
        P = poly(column)
        k = int(P.degree) + 1
        bound_q = (
            F(k) ** ((r + 1) * eps) * _d_factor(place, r, k) * H_alpha_vec**k
            * norm_v(P, place)
        )
        for label, q in q_polys(table, ell).items():
            rows.append((f"q_norm[{label},l={ell}]", norm_v(q, place), bound_q))
            if beta is not None:
                degq = int(q.degree) if not q.is_zero else 0
                bound_eval = F(degq + 1) ** eps * norm_v(q, place) * H_v(beta, place) ** degq
                rows.append((f"q_eval[{label},l={ell}]", abs_v(q(beta), place), bound_eval))
    return rows


AUDIT_ORACLE_CASES = [
    ((1, 1, (F(3, 2),)), (1, 2, 3)),
    ((2, 1, (F(3, 2), F(-5, 3))), (1, 2)),
    ((1, 2, (F(-3),)), (1,)),
    ((2, 2, (F(3, 2), F(-5, 3))), (1,)),
    # 7/5 and -2/7 are not integers at p5 and p7, so H_v(alpha) > 1 there
    ((3, 1, (F(7, 5), F(-2, 7), F(3))), (1, 2)),
]
# beta beyond the alphas' local height at each place: |-81/2| > 3, |1/8|_2 = 8 > 2,
# |1/27|_3 = 27 > 3, |2/125|_5 = 125 > 5, |3/343|_7 = 343 > 7
AUDIT_ORACLE_PLACES = [
    (INF_PLACE, F(-81, 2)),
    (Place(2), F(1, 8)),
    (Place(3), F(1, 27)),
    (Place(5), F(2, 125)),
    (Place(7), F(3, 343)),
]


@pytest.mark.parametrize(
    "config_args, ns", AUDIT_ORACLE_CASES, ids=[f"m{c[0]}r{c[1]}" for c, _ in AUDIT_ORACLE_CASES]
)
def test_bounds_audit_rows_match_the_stage_by_stage_route(config_args, ns):
    m, r, alphas = config_args
    config = MplConfig(m=m, r=r, alphas=alphas)
    for n, table in pade_tables(config, ns).items():
        for place, beta in AUDIT_ORACLE_PLACES:
            for b in (None, beta):
                rows = audit_rows(config, table, place, beta=b)
                got = [(name, F(*measured), F(*bound)) for name, measured, bound in rows]
                assert got == _audit_rows_stage_by_stage(config, table, place, b), (n, place, b)


def test_bounds_audit_forms_no_fraction(monkeypatch):
    # every row is (name, measured, bound) on the nonnegative integer pairs the audit computes
    import rodpade.audit

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} formed")

    for m, r, alphas in ((2, 1, (F(3, 2), F(-5, 3))), (1, 2, (F(-3),))):
        config = MplConfig(m=m, r=r, alphas=alphas)
        table = pade_table(config, 2)
        for place, beta in AUDIT_ORACLE_PLACES[:2]:
            for b in (None, beta):
                with monkeypatch.context() as patch:
                    patch.setattr(rodpade.audit, "Fraction", no_fraction)
                    rows = audit_rows(config, table, place, beta=b)
                assert rows and all(
                    type(name) is str and all(type(x) is int for x in (*measured, *bound))
                    and min(measured[0], bound[0]) >= 0 and min(measured[1], bound[1]) > 0
                    for name, measured, bound in rows
                ), (m, r, place, b)


def test_audit_run_with_a_decay_forms_no_fraction(monkeypatch):
    # the decay's remainder sums are integer pairs too: a whole run with beta and three
    # weights, at infinity and at 2, with beta < 0 at each, gives the payload it gives unpatched
    import rodpade.audit

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} formed")

    config = MplConfig(m=2, r=1, alphas=(F(3, 2), F(-5, 3)))
    for place, beta in ((INF_PLACE, F(40)), (INF_PLACE, F(-81, 2)), (Place(2), F(1, 8)), (Place(2), F(-3, 64))):
        want = audit_payload(config, place, range(1, 4), beta)
        with monkeypatch.context() as patch:
            patch.setattr(rodpade.audit, "Fraction", no_fraction)
            got = audit_payload(config, place, range(1, 4), beta)
        assert got == want and len(got["decay"]["log_remainder"]) == 3, (place, beta)


def test_row_json_matches_the_fraction_comparison_and_logs():
    # holds is measured <= bound, and each log is that of the reduced Fraction, on any pairs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        # numerator >= 0 and denominator > 0, up to 2^200, times a common factor up to 2^70
        num, den = draw(st.integers(0, 2**200)), draw(st.integers(1, 2**200))
        common = draw(st.integers(1, 2**70))
        return num * common, den * common

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(pairs(), pairs())
    @hypothesis.example((0, 5), (6, 4))
    @hypothesis.example((0, 3), (0, 7))
    @hypothesis.example((3 * 2**63, 2**63), (2**64 + 1, 2**62 * 6))
    @hypothesis.example((2**62 + 1, 1), (2**62 + 1, 1))
    def check(measured, bound):
        row = _row_json("q_norm[a,l=0]", measured, bound)
        measured_log, bound_log = (
            log_fraction(F(*pair)) if pair[0] else -math.inf for pair in (measured, bound)
        )
        assert row == {
            "name": "q_norm[a,l=0]",
            "measured": _round15(measured_log),
            "bound": _round15(bound_log),
            "slack": _round15(bound_log - measured_log),
            "holds": F(*measured) <= F(*bound),
        }, (measured, bound)

    check()


def test_log_pair_logs_every_pair_of_a_rational_as_its_lowest_terms():
    # reduced pairs past log_int's 62 exact bits, times a common factor: one rational, one float
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.integers(2**62 + 1, 2**300)

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.tuples(big, big).filter(lambda p: math.gcd(*p) == 1), st.integers(1, 2**200))
    @hypothesis.example((2**62 + 1, 2**62 + 3), 1)
    @hypothesis.example((2**62 + 1, 2**62 + 3), 3)
    def check(reduced, common):
        num, den = reduced
        assert _log_pair((num * common, den * common)) == log_fraction(F(num, den)), (reduced, common)

    check()


def test_audit_json_shape(capsys):
    from rodpade.cli import main

    assert main(["audit", "--m", "1", "--alphas", "1", "--n", "1", "--place", "p2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["beta"] is None and data["decay"] is None
    (report,) = data["reports"]
    assert report["config"] == {"m": 1, "r": 1, "alphas": ["1"]} and report["n"] == 1
    assert report["place"] == "p2"
    assert report["all_hold"] is True
    assert {"name", "measured", "bound", "slack", "holds"} <= set(report["rows"][0])


@pytest.mark.parametrize(
    "argv",
    [
        ("--m", "1", "--r", "2", "--alphas", "1/2", "--n", "1"),
        ("--m", "2", "--alphas=3/2,-5/3", "--n", "1..4", "--beta", "40"),
        ("--m", "1", "--alphas", "1/3", "--n", "1..2", "--beta", "1/81", "--place", "p3"),
    ],
    ids=" ".join,
)
def test_no_audit_report_repeats_a_row(capsys, argv):
    from rodpade.cli import main

    assert main(["audit", *argv]) == 0
    for report in json.loads(capsys.readouterr().out)["reports"]:
        names = [row["name"] for row in report["rows"]]
        assert len(names) == len(set(names)), report["n"]


def test_moment_denominators_cleared_by_lcm_power():
    # for integer alphas, lcm(1..j+1)^r clears every moment denominator; this
    # is the exact content of the p-adic moment bound at every finite place
    from rodpade.mpl import moment_seqs

    for m, r, alphas in ((1, 2, (F(1),)), (2, 2, (F(1), F(2)))):
        config = MplConfig(m=m, r=r, alphas=alphas)
        for seq in moment_seqs(config):
            for j in range(26):
                cleared = seq[j] * lcm_upto(j + 1) ** r
                assert cleared.denominator == 1, (m, r, seq.label, j)


def test_evaluate_criterion_checks_the_config_once(monkeypatch):
    import rodpade.criterion

    built = []

    class CountingConfig(MplConfig):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rodpade.criterion, "MplConfig", CountingConfig)
    _, passed = evaluate_criterion((F(3, 2), F(-5, 3)), F(4000000), 2, 1, INF_PLACE)
    assert passed
    assert len(built) == 1


def test_remainder_decay_legendre():
    config = MplConfig(m=1, r=1, alphas=(F(1),))
    report = audit_payload(config, INF_PLACE, range(2, 13), F(30))["decay"]
    assert report["ok"]
    assert report["slope"] <= -1.01
    assert abs(report["bound_coefficient"] - (-math.log(30) + 1 + 2 * math.log(2))) < 1e-12


def test_remainder_decay_sign_blind():
    config = MplConfig(m=1, r=1, alphas=(F(1),))
    report = audit_payload(config, INF_PLACE, range(2, 6), F(-30))["decay"]
    assert report["ok"]


def test_remainder_decay_p_adic_runs():
    config = MplConfig(m=1, r=1, alphas=(F(1),))
    # |32|_2 = 1/32 < 1 = H_2(alpha): rejected by the run; |1/32|_2 = 32 > 1: accepted
    with pytest.raises(ValueError, match=f"^{BAD_BETA}$"):
        audit_payload(config, Place(2), range(2, 6), F(32))
    report = audit_payload(config, Place(2), range(2, 6), F(1, 32))["decay"]
    assert report["ns"] == [2, 3, 4, 5] and len(report["log_remainder"]) == 4


def test_remainder_decay_bad_beta():
    config = MplConfig(m=1, r=1, alphas=(F(1),))
    with pytest.raises(ValueError, match=f"^{BAD_BETA}$"):
        audit_payload(config, INF_PLACE, range(2, 5), F(1))


def _count_norms_of(monkeypatch, beta, modules=()):
    """The places of every ``_int_norm_v`` call on beta's pair, in ``heights`` and ``modules``.

    ``abs_v`` and every height in ``heights`` take their norms through
    ``heights._int_norm_v``, so patching it there counts them too.
    """
    import rodpade.heights

    taken = []
    int_norm_v = rodpade.heights._int_norm_v

    def counting_norm(nums, den, place):
        if (tuple(nums), den) == ((beta.numerator,), beta.denominator):
            taken.append(place)
        return int_norm_v(nums, den, place)

    for module in (rodpade.heights, *modules):
        monkeypatch.setattr(module, "_int_norm_v", counting_norm)
    return taken


def test_remainder_decay_takes_abs_beta_once(monkeypatch):
    # the hypothesis |beta|_v > H_v(alpha) is decided once per audit run: not again for
    # a weight's bound rows, for the decay or for a remainder sum
    import rodpade.audit

    config = MplConfig(m=2, r=1, alphas=(F(3, 2), F(-5, 3)))
    tables = pade_tables(config, range(1, 9))
    beta = F(40)
    taken = _count_norms_of(monkeypatch, beta, (rodpade.audit,))
    assert audit_payload(config, INF_PLACE, range(1, 9), beta, tables)["decay"]["ok"]
    assert taken == [INF_PLACE]


def test_audit_decides_the_beta_hypothesis_once(monkeypatch, capsys):
    import rodpade.audit
    from rodpade.cli import main

    calls = []
    decide = rodpade.audit.beta_hypothesis

    def counting(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(rodpade.audit, "beta_hypothesis", counting)
    assert main(["audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..8", "--beta", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["decay"]["ok"]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "beta, place, exceeds",
    [(F(4000000), INF_PLACE, True), (F(-1, 59049), Place(3), True), (F(5, 3), INF_PLACE, False)],
)
def test_evaluate_criterion_takes_abs_beta_once(monkeypatch, beta, place, exceeds):
    # V's local height of beta and the hypothesis read one norm of beta
    taken = _count_norms_of(monkeypatch, beta)
    report, _ = evaluate_criterion((F(3, 2), F(-5, 3)), beta, 2, 1, place)
    assert report["hypothesis_checks"]["abs_beta_gt_local_height_alpha"] is exceeds
    assert taken == [place]


def _remainder_log_abs_from_scratch(f, p, n, beta, place, r, H_alpha):
    """The summation with every majorant recomputed and one phi per term."""
    degp = int(p.degree)
    normp = norm_v(p, place)
    abs_beta = abs_v(beta, place)
    q = H_alpha / abs_beta
    e = r if place.is_finite else r + 1
    partial, k, power = F(0), n, F(beta) ** (n + 1)
    while True:
        partial += fraction_phi(f, p, k) / power
        power *= beta
        k += 1
        steps = k + degp + 1
        majorant = F(steps + 1) ** e * H_alpha ** (steps + 1) * normp / abs_beta ** (k + 1)
        ratio = q * (F(steps + 2) / F(steps + 1)) ** e
        if partial != 0 and ratio < 1:
            if place.is_finite and majorant < abs_v(partial, place):
                return log_fraction(abs_v(partial, place)), k
            if not place.is_finite and majorant / (1 - ratio) * 1000 <= abs(partial):
                return log_fraction(abs(partial)), k


@pytest.mark.parametrize(
    "m, r, alphas, beta, place, longest",
    [
        (1, 1, (F(1),), F(30), INF_PLACE, 7),
        (1, 1, (F(1),), F(-7, 3), INF_PLACE, 30),
        (2, 1, (F(3, 2), F(-5, 3)), F(40), INF_PLACE, 9),
        (1, 2, (F(4),), F(9), INF_PLACE, 70),
        (2, 1, (F(4), F(-3)), F(11, 4), Place(2), 10),
        (1, 1, (F(1),), F(1, 32), Place(2), 1),
        (1, 2, (F(2),), F(1, 9), Place(3), 4),
    ],
)
def test_remainder_summation_matches_the_from_scratch_route(m, r, alphas, beta, place, longest):
    from rodpade.audit import _remainder_sum

    config = MplConfig(m=m, r=r, alphas=alphas)
    H_alpha = H_v_vec(config.alphas, place)
    stops = set()
    for n in (1, 2, 3):
        table = pade_table(config, n)
        for j, f in enumerate(table.seqs):
            for ell, column in enumerate(table.columns):
                P = poly(column)
                want, stop = _remainder_log_abs_from_scratch(f, P, n, beta, place, r, H_alpha)
                partial, _ = _remainder_sum(
                    table, j, ell, pair(norm_v(P, place)), beta, place, r, pair(H_alpha), pair(abs_v(beta, place))
                )
                assert log_fraction(abs_v(F(*partial), place)) == want
                stops.add(stop - n)
    # the longest summation (in terms) is fixed too; some cross several runs
    assert max(stops) == longest


def test_remainder_decay_reads_the_tables_moment_rows(monkeypatch):
    import rodpade.mpl

    config = MplConfig(m=2, r=1, alphas=(F(3, 2), F(-5, 3)))
    apart = {n: pade_table(config, n) for n in range(1, 4)}
    shared = pade_tables(config, range(1, 4))

    def no_family(_config):
        raise AssertionError("moment family rebuilt although tables were given")

    monkeypatch.setattr(rodpade.mpl, "moment_seqs", no_family)
    given = audit_payload(config, INF_PLACE, range(1, 4), F(40), shared)["decay"]
    assert given == audit_payload(config, INF_PLACE, range(1, 4), F(40), apart)["decay"]


@pytest.mark.parametrize("place", [INF_PLACE, Place(2)], ids=["inf", "p2"])
def test_remainder_decay_takes_each_column_norm_once(monkeypatch, place):
    # one audit run takes each column's norm once per weight, for the bound rows and the decay alike
    import rodpade.audit
    from rodpade.audit import _remainder_sum
    from rodpade.heights import _int_norm_v

    config = MplConfig(m=2, r=1, alphas=(F(3, 2), F(-5, 3)))
    tables = pade_tables(config, range(1, 9))
    beta = F(40) if place == INF_PLACE else F(1, 64)
    # the per-(row, column) route, each norm taken where it is used
    H_alpha = H_v_vec(config.alphas, place)
    def log_remainder(n, j, ell):
        normp = norm_v(poly(tables[n].columns[ell]), place)
        partial, _ = _remainder_sum(
            tables[n], j, ell, pair(normp), beta, place, 1, pair(H_alpha), pair(abs_v(beta, place))
        )
        return log_fraction(abs_v(F(*partial), place))

    want = [
        max(
            log_remainder(n, j, ell)
            for j in range(len(tables[n].seqs))
            for ell in range(len(tables[n].columns))
        )
        for n in range(1, 9)
    ]
    seen = []

    def counting(nums, den, v):
        seen.append((nums, den))
        return _int_norm_v(nums, den, v)

    monkeypatch.setattr(rodpade.audit, "_int_norm_v", counting)
    payload = audit_payload(config, place, range(1, 9), beta, tables)
    assert payload["all_hold"] is True
    report = payload["decay"]
    assert report["log_remainder"] == [_round15(v) for v in want]
    # the norms of the table's own column pairs, one per column
    columns = [column for n in range(1, 9) for column in tables[n].columns]
    assert len(columns) == 24
    assert [pair for pair in seen if any(pair[0] is nums for nums, _ in columns)] == columns


def _remainder_sum_fraction_loop(f, p, normp, n, beta, place, r, H_alpha):
    """The Fraction loop the integer route replaced, returning (partial, last index).

    One Fraction addition, power and comparison per term, the majorant
    carried by its ratio, and each value phi(t^k P) by the Fraction route
    (``fraction_phi``).  Absolute values are taken by repeated division
    (``_naive_abs_v``).
    """
    terms = (fraction_phi(f, p, k) for k in itertools.count(n))

    degp = int(p.degree)
    abs_beta = _naive_abs_v(beta, place)
    q = H_alpha / abs_beta
    e = r if place.is_finite else r + 1
    steps = n + degp + 2
    majorant = F(steps + 1) ** e * H_alpha ** (steps + 1) * normp / abs_beta ** (n + 2)
    partial = F(0)
    power = F(beta) ** (n + 1)
    for k, term in enumerate(terms, start=n + 1):
        partial += term / power
        power *= beta
        ratio = q * (F(steps + 2) / F(steps + 1)) ** e
        if partial != 0 and ratio < 1:
            if place.is_finite:
                if majorant < _naive_abs_v(partial, place):
                    return partial, k - 1
            elif majorant / (1 - ratio) * 1000 <= abs(partial):
                return partial, k - 1
        majorant *= ratio
        steps += 1


REMAINDER_GRID_CONFIGS = [(1, 1, (F(1),)), (2, 1, (F(3, 2), F(-5, 3))), (1, 2, (F(-3, 2),))]
# +-integer and fractional beta at infinity; unit / p^k with large k at each prime
REMAINDER_GRID_PLACES = [
    (INF_PLACE, F(30)),
    (INF_PLACE, F(-30)),
    (INF_PLACE, F(9, 2)),
    (Place(2), F(3, 2**24)),
    (Place(3), F(-2, 3**17)),
    (Place(5), F(7, 5**12)),
    (Place(7), F(4, 7**10)),
]


@pytest.mark.parametrize(
    "place, beta", REMAINDER_GRID_PLACES, ids=[f"{v}-{b}" for v, b in REMAINDER_GRID_PLACES]
)
@pytest.mark.parametrize(
    "m, r, alphas", REMAINDER_GRID_CONFIGS, ids=[f"m{m}r{r}" for m, r, _ in REMAINDER_GRID_CONFIGS]
)
def test_integer_remainder_sum_certifies_the_fraction_loops_sum(m, r, alphas, place, beta):
    from rodpade.audit import _remainder_sum

    config = MplConfig(m=m, r=r, alphas=alphas)
    H_alpha = H_v_vec(config.alphas, place)
    for n, table in pade_tables(config, range(1, 7)).items():
        for ell, column in enumerate(table.columns):
            P = poly(column)
            normp = norm_v(P, place)
            for j, f in enumerate(table.seqs):
                partial, last = _remainder_sum(
                    table, j, ell, pair(normp), beta, place, r, pair(H_alpha), pair(abs_v(beta, place))
                )
                want = _remainder_sum_fraction_loop(f, P, normp, n, beta, place, r, H_alpha)
                assert partial[1] > 0 and (F(*partial), last) == want, (n, f.label, ell)


# The property tests import hypothesis inside, so without it only they skip.
_PROPERTY_PRIMES = (2, 3, 5, 7, 11, 101)


def _derandomized(hypothesis):
    return hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _naive_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _naive_abs_v(x, place):
    """|x|_v by repeated division, sharing no code with ``abs_v``."""
    if x == 0:
        return F(0)
    if not place.is_finite:
        return abs(x)
    v = _naive_valuation(x.numerator, place.p) - _naive_valuation(x.denominator, place.p)
    return F(place.p) ** -v


def test_integer_valuation_matches_repeated_division():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_derandomized(hypothesis)
    @hypothesis.given(
        st.sampled_from(_PROPERTY_PRIMES),
        st.integers(-(2**200), 2**200).filter(bool),
        st.integers(0, 300),
    )
    def check(p, unit, k):
        n = unit * p**k
        assert _int_valuation(n, p) == _naive_valuation(n, p)
        x = F(n, p ** (k // 2 + 1))
        assert _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p) == _naive_valuation(n, p) - (k // 2 + 1)

    check()


def test_integer_norm_matches_the_largest_coefficient_value():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rodpade.heights import _int_norm_v

    places = st.sampled_from([INF_PLACE] + [Place(p) for p in _PROPERTY_PRIMES])
    # coefficients carrying high powers of the primes, and zeros
    coeffs = st.builds(
        lambda u, p, k: u * p**k,
        st.integers(-(2**64), 2**64),
        st.sampled_from(_PROPERTY_PRIMES),
        st.integers(0, 40),
    )

    @_derandomized(hypothesis)
    @hypothesis.given(st.lists(coeffs, max_size=12), st.integers(1, 10**30), places)
    def check(nums, den, place):
        want = max((_naive_abs_v(F(a, den), place) for a in nums), default=F(0))
        num, norm_den = _int_norm_v(nums, den, place)
        assert norm_den > 0 and F(num, norm_den) == want
        for a in nums:
            assert abs_v(F(a, den), place) == _naive_abs_v(F(a, den), place)

    check()


def test_pair_height_and_the_heights_read_from_it():
    # max(1, |x_i|_v) on integer pairs, and H_v_vec and the local heights equal to
    # their Fraction definitions: max(1, |x_1|_v, ..) and the log of it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rodpade.heights import _int_height_v

    primes = (2, 3, 5, 2**61 - 1)

    @_derandomized(hypothesis)
    @hypothesis.given(st.sampled_from([INF_PLACE] + [Place(p) for p in primes]), st.data())
    def check(place, data):
        p = place.p or data.draw(st.sampled_from(primes))
        # zero and negative numerators, and powers of p in the numerators and the denominator
        nums = data.draw(
            st.lists(
                st.builds(lambda u, k: u * p**k, st.integers(-(10**6), 10**6), st.integers(0, 5)),
                max_size=6,
            )
        )
        den = data.draw(st.builds(lambda w, k: w * p**k, st.integers(1, 10**6), st.integers(0, 5)))
        xs = [F(a, den) for a in nums]
        want = max([F(1)] + [_naive_abs_v(x, place) for x in xs])
        num, hden = _int_height_v(nums, den, place)
        assert hden > 0 and math.gcd(num, hden) == 1 and F(num, hden) == want
        assert H_v_vec(xs, place) == want
        for x in xs:
            assert local_height(x, place) == log_fraction(max(F(1), _naive_abs_v(x, place)))

    check()


def test_integer_horner_matches_the_fraction_horner():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rodpade.audit import _horner_at

    rationals = st.fractions(max_denominator=10**12).filter(lambda x: abs(x.numerator) < 10**40)

    @_derandomized(hypothesis)
    @hypothesis.given(
        st.lists(st.integers(-(2**80), 2**80), max_size=14), st.integers(1, 10**20), rationals
    )
    def check(nums, den, x):
        value, scale = _horner_at(nums, den, x)
        assert F(value, scale) == poly((nums, den))(x)

    check()


@pytest.mark.parametrize(
    "moment, p, n, beta, place, H_alpha",
    [
        # the table's window is over 3, the sum's first one over 6: the
        # cell's run value is lifted onto the grown L
        (lambda k: F(1, 3) if k < 9 else F(1, 2), (1,), 1, F(3, 2), INF_PLACE, F(1)),
        # the second growth step takes L from 3 to 6: the partial sum is
        # brought over the new L within the sum
        (lambda k: F(1, 3) if k < 20 else F(1, 2), (1,), 1, F(3, 2), INF_PLACE, F(1)),
        # the first majorant equals |partial|_2 exactly, 1/2 and then 4: the
        # strict test must not stop there
        (lambda k: F(1, 2), (1,), 1, F(1, 2), Place(2), F(1)),
        (lambda k: F(1, 1024), (1,), 1, F(1, 16), Place(2), F(8)),
        # H below 1 lets beta = 2 carry the prime in its numerator, which
        # then enters |partial|_2 through the denominator b^(k+1)
        (lambda k: F(4), (1,), 1, F(2), Place(2), F(1, 3)),
        # integer moments: the first run's L is 1, and d = 4 alone carries the prime
        (lambda k: F(k % 3), (F(1, 4), 1), 1, F(1, 2), Place(2), F(1)),
    ],
    ids=["inf-lcm-between-runs", "inf-lcm-grows-within-the-sum", "p2-majorant-equal-below-1", "p2-majorant-equal-above-1",
         "p2-beta-numerator", "p2-integer-moments"],
)
def test_integer_remainder_sum_on_synthetic_rows(moment, p, n, beta, place, H_alpha):
    from rodpade.audit import _remainder_sum
    from rodpade.exact import over_common_denominator
    from rodpade.transform import MomentSeq, build_table
    from algebra import Poly

    f = MomentSeq(lambda k, _prefix: moment(k), "synthetic")
    P = Poly(p)
    # the term k = n as a one-column table carries it
    table = build_table([over_common_denominator(P.coeffs)], [f], n)
    normp = norm_v(P, place)
    want = _remainder_sum_fraction_loop(f, P, normp, n, beta, place, 1, H_alpha)
    partial, last = _remainder_sum(table, 0, 0, pair(normp), beta, place, 1, pair(H_alpha), pair(_naive_abs_v(beta, place)))
    assert partial[1] > 0 and (F(*partial), last) == want


def test_tables_and_decay_on_an_extended_family_match_a_fresh_one():
    # a family whose integer windows already reach far past a table's needs
    # (a larger L, more moments) gives the same printed table, determinants
    # and decay as a fresh family: every reader scales by the L it is handed
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rodpade.mpl import moment_seqs, rodrigues_stages
    from rodpade.determinant import table_determinants
    from rodpade.transform import build_table, rodrigues_columns

    small = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    shapes = st.sampled_from([(1, 1), (2, 1), (1, 2)])

    @hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        shapes.flatmap(
            lambda mr: st.tuples(
                st.just(mr), st.lists(small, min_size=mr[0], max_size=mr[0], unique=True)
            )
        ),
        st.integers(2, 3),
        st.integers(1, 150),
        st.sampled_from([INF_PLACE, Place(2), Place(3)]),
        st.integers(0, 3),
    )
    def check(shape_alphas, top, extra, place, lift):
        (m, r), alphas = shape_alphas
        config = MplConfig(m=m, r=r, alphas=tuple(alphas))
        ns = range(1, top + 1)
        H_alpha = H_v_vec(config.alphas, place)
        if place.is_finite:
            k = 1 + lift
            while F(place.p) ** k <= H_alpha:
                k += 1
            beta = F(1, place.p**k)
        else:
            beta = math.floor(H_alpha) + 1 + F(lift, 3)
        fresh = pade_tables(config, ns)
        seqs = moment_seqs(config)
        for f in seqs:
            f.ints(config.M * (top + 1) + top + extra)
        extended = {
            n: build_table(rodrigues_columns(rodrigues_stages(config, n), config.M + 1), seqs, n)
            for n in ns
        }
        for n in ns:
            assert json.dumps(extended[n].to_json()) == json.dumps(fresh[n].to_json())
            assert table_determinants(extended[n]) == table_determinants(fresh[n])
        assert audit_payload(config, place, ns, beta, extended)["decay"] == audit_payload(
            config, place, ns, beta, fresh
        )["decay"]

    check()
