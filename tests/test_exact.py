"""Exact rationals and integer kernels, and the tests' polynomial / Laurent-tail algebra (``algebra``)."""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

import pytest

from algebra import (
    INF,
    NEG_INF,
    InsufficientDepthError,
    LaurentTail,
    OrdAtLeast,
    Poly,
    laurent_mul_poly,
    ord_inf,
)

from rodpade.exact import (
    format_pair,
    format_rational,
    int_convolve,
    parse_rational,
)


def test_rationals_are_canonical():
    assert F(2, 4) == F(1, 2)
    assert (F(-3, -6)).denominator == 2
    for c in (2, -5, 7):
        assert F(3 * c, 4 * c) == F(3, 4)
    assert format_rational(F(3, 1)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert parse_rational("-7/21") == F(-1, 3)


def test_parse_rational_names_a_zero_denominator():
    with pytest.raises(ValueError, match=r"^zero denominator in '3/00'$"):
        parse_rational(" 3/00 ")


def test_parse_rational_refuses_a_power_of_ten_past_the_digit_limit():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # 10^(limit - 1) has exactly ``limit`` digits and still prints
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f" -3E-{limit - 1} ") == F(-3, 10 ** (limit - 1))
    assert parse_rational("2.5e-3") == F(1, 400)
    for text in (f"1e{limit}", f"1e-{limit}", "1e-99999999", "2.5E+999999", "7e1_000_000"):
        with pytest.raises(ValueError, match=f"past the limit of {limit} digits$"):
            parse_rational(text)


def test_parse_rational_counts_the_mantissa_digits_with_the_exponent():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # the integer part of each has exactly ``limit`` digits and still prints
    assert parse_rational(f"12e{limit - 2}") == 12 * 10 ** (limit - 2)
    assert parse_rational(f"1.5e{limit - 1}") == 15 * 10 ** (limit - 2)
    assert parse_rational(f"0.001e{limit - 1}") == 10 ** (limit - 4)
    for text in (f"123e{limit - 1}", f"-1_2e{limit - 1}", f"999.9e{limit - 2}", f"0010e{limit - 1}"):
        with pytest.raises(ValueError, match=f"integer digits, past the limit of {limit}$"):
            parse_rational(text)


def test_format_pair_matches_format_rational():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = 10**200
    factors = st.sampled_from([1, 2, 6, 30, 2**64, 10**100])
    # numerators and denominators sharing factors, so that most pairs reduce
    nums = st.lists(
        st.one_of(
            st.just(0),
            st.integers(-50, 50),
            st.integers(-big, big),
            st.builds(lambda u, g: u * g, st.integers(-big, big), factors),
        ),
        max_size=12,
    )
    dens = st.one_of(
        st.just(1),
        st.integers(1, 60),
        st.integers(1, big),
        st.builds(lambda u, g: u * g, st.integers(1, 10**100), factors),
    )

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(nums, dens)
    def check(nums, den):
        assert format_pair(nums, den) == [format_rational(F(c, den)) for c in nums]

    check()


def test_poly_mul_difference_of_squares():
    assert Poly((-1, 1)) * Poly((1, 1)) == Poly((-1, 0, 1))


def test_poly_mul_absorbing_zero():
    p = Poly((2, 0, 5))
    assert Poly.zero() * p == Poly.zero()
    assert (Poly.zero() * p).degree == NEG_INF


def test_poly_add_cancels_middle_terms():
    assert Poly((1, -2)) + Poly((0, 2, -3)) == Poly((1, 0, -3))


def test_poly_derivative_power_rule():
    assert Poly.monomial(3).derivative() == Poly((0, 0, 3))
    assert Poly.monomial(3).derivative(4) == Poly.zero()
    # t^2(t-1) -> 3t^2 - 2t
    assert (Poly.monomial(2) * Poly((-1, 1))).derivative() == Poly((0, -2, 3))


def _seed_derivative(p, k):
    """Reference route: differentiate k times, one power rule at a time."""
    cs = p.coeffs
    for _ in range(k):
        cs = tuple(F(i) * c for i, c in enumerate(cs))[1:]
    return Poly(cs)


def test_poly_derivative_closed_form_against_repetition():
    rng = random.Random(31)
    polys = [Poly.zero(), Poly.one(), Poly((0, 0, 0, F(-7, 3)))]
    for _ in range(60):
        deg = rng.randint(0, 14)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg + 1)]
        coeffs[-1] = coeffs[-1] or F(1, 5)
        polys.append(Poly(coeffs))
    for p in polys:
        deg = 0 if p.is_zero else int(p.degree)
        for k in range(deg + 3):
            repeated = p
            for _ in range(k):
                repeated = repeated.derivative(1)
            assert p.derivative(k) == repeated == _seed_derivative(p, k)
        assert p.derivative(0) == p
        assert p.derivative(deg + 1) == Poly.zero()
        with pytest.raises(ValueError):
            p.derivative(-1)


def test_poly_degree_additivity_randomized():
    rng = random.Random(7)
    for _ in range(200):
        p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))])
        q = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))])
        if p.is_zero or q.is_zero:
            assert (p * q).degree == NEG_INF
        else:
            assert (p * q).degree == p.degree + q.degree


def test_poly_eval_and_pow():
    p = Poly((-1, 1)) ** 3
    assert p(F(2)) == 1
    assert p(F(1, 2)) == F(-1, 8)


def test_ord_inf_of_remainder_tail():
    tail = LaurentTail(2, (F(-1, 6), F(-1, 6)))
    assert ord_inf(tail) == 2


def test_ord_inf_zero_tail_asserted_exact():
    assert ord_inf(LaurentTail.zero()) == INF
    assert ord_inf(LaurentTail(3, (0, 0)), assume_exact=True) == INF


def test_ord_inf_lower_bound_flag():
    res = ord_inf(LaurentTail(3, (0, 0, 0)))
    assert isinstance(res, OrdAtLeast)
    assert res.bound == 6
    assert res >= 4


def test_ord_inf_first_index():
    assert ord_inf(LaurentTail(1, (1,))) == 1


def li1_tail(depth: int) -> LaurentTail:
    return LaurentTail(1, [F(1, k) for k in range(1, depth + 1)])


def test_laurent_mul_identity():
    part, tail = laurent_mul_poly(li1_tail(8), Poly.one())
    assert part == Poly.zero()
    assert tail.coeffs == li1_tail(8).coeffs


def test_laurent_mul_by_z_shifts_indices():
    part, tail = laurent_mul_poly(li1_tail(8), Poly((0, 1)))
    assert part == Poly.one()
    assert tail.start == 1
    assert tail.window(1, 6) == [F(1, k + 1) for k in range(1, 7)]


def test_laurent_mul_legendre_remainder():
    part, tail = laurent_mul_poly(li1_tail(10), Poly((1, -2)))
    assert part == Poly.constant(-2)
    assert tail.coeff(1) == 0
    assert tail.coeff(2) == F(-1, 6)
    assert tail.coeff(3) == F(-1, 6)


def test_laurent_mul_ord_bound_randomized():
    rng = random.Random(11)
    for _ in range(100):
        depth = rng.randint(6, 12)
        start = rng.randint(1, 3)
        f = LaurentTail(start, [rng.randint(-3, 3) for _ in range(depth)])
        p = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if p.is_zero:
            continue
        base = ord_inf(f)
        part, tail = laurent_mul_poly(f, p)
        got = ord_inf(tail)
        lower = (base.bound if isinstance(base, OrdAtLeast) else base) - int(p.degree)
        value = got.bound if isinstance(got, OrdAtLeast) else got
        assert value >= lower


def test_depth_bookkeeping_against_deeper_recomputation():
    p = Poly((3, -1, 2))
    shallow_part, shallow = laurent_mul_poly(li1_tail(9), p)
    deep_part, deep = laurent_mul_poly(li1_tail(30), p)
    assert shallow_part == deep_part
    for k in range(shallow.start, shallow.start + shallow.depth):
        assert shallow.coeff(k) == deep.coeff(k)
    # reading one past the proved window must fail, not fabricate
    with pytest.raises(InsufficientDepthError):
        shallow.coeff(shallow.start + shallow.depth)


def test_laurent_mul_insufficient_depth_for_poly_part():
    with pytest.raises(InsufficientDepthError):
        laurent_mul_poly(LaurentTail(1, (1,)), Poly.monomial(5))


def test_tail_add_and_derivative():
    a = LaurentTail(1, (1, 2, 3))
    b = LaurentTail(2, (5, 7))
    s = a.add(b)
    assert s.start == 1 and s.window(1, 3) == [F(1), F(7), F(10)]
    d = a.derivative()
    assert d.start == 2
    assert d.window(2, 4) == [F(-1), F(-4), F(-9)]


# --------------------------------------------------------------------------
# the integer product kernel and the series route, against their old code.
# The property tests import hypothesis inside, so without it only they skip.


def _schoolbook_convolve_reference(a, b):
    """The integer product as one loop per coefficient of a, zeros included: the reference of both kernels."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_laurent_mul_poly(f, p):
    """P(z) f(z) with one Fraction product per term (the old series route)."""
    if p.is_zero:
        return Poly.zero(), LaurentTail.zero()
    deg = int(p.degree)
    if not f.exact and deg > f.start + f.depth - 1 and deg >= f.start:
        raise InsufficientDepthError("tail too shallow for the polynomial part of the product")
    poly_part = Poly(
        sum((p.coeff(i) * f.coeff(i - u) for i in range(u + 1, deg + 1)), F(0))
        for u in range(deg)
    )
    new_start = max(1, f.start - deg)
    end = f.start + f.depth - 1 if f.exact else f.start + f.depth - 1 - deg
    coeffs = [
        sum((p.coeff(i) * f.coeff(k + i) for i in range(deg + 1)), F(0))
        for k in range(new_start, end + 1)
    ]
    return poly_part, LaurentTail(new_start, coeffs, exact=f.exact)


def _derandomized(hypothesis):
    return hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)


def test_int_convolve_matches_schoolbook():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # empty, single, zero-padded at either end, mixed signs, up to ~2^4000
    int_polys = st.sampled_from([1, 8, 64, 500, 4000]).flatmap(
        lambda bits: st.tuples(
            st.integers(0, 3),
            st.lists(st.integers(-(2**bits), 2**bits), max_size=12),
            st.integers(0, 3),
        ).map(lambda t: [0] * t[0] + t[1] + [0] * t[2])
    )

    @_derandomized(hypothesis)
    @hypothesis.given(int_polys, int_polys)
    def check(a, b):
        assert int_convolve(a, b) == _schoolbook_convolve_reference(a, b)

    check()


def test_both_convolution_paths_match_the_double_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rodpade.exact import _SCHOOLBOOK_FACTOR, _kronecker_convolve, _schoolbook_convolve

    # mixed signs, runs of zeros, up to 1000 bits
    coeffs = st.sampled_from([1, 30, 200, 1000]).flatmap(
        lambda bits: st.one_of(st.just(0), st.integers(-(2**bits), 2**bits))
    )

    def int_polys(lo, hi):
        # each length about equally often: a plain list strategy rarely draws long ones
        return st.integers(lo, hi).flatmap(lambda n: st.lists(coeffs, min_size=n, max_size=n))

    # lengths 1-40 on both sides, or a short factor (1-15) against a long one (16-300), in either order
    pairs = st.one_of(
        st.tuples(int_polys(1, 40), int_polys(1, 40)),
        st.tuples(int_polys(1, 15), int_polys(16, 300)),
        st.tuples(int_polys(16, 300), int_polys(1, 15)),
    )
    short_by_long = set()

    top = 2**30 - 1  # every product at its bound: the slots of the substitution are full

    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(pairs)
    @hypothesis.example(([top] * 15, [top] * 300))
    @hypothesis.example(([-top] * 40, [top] * 40))
    def check(pair):
        a, b = pair
        want = _schoolbook_convolve_reference(a, b)
        assert _schoolbook_convolve(a, b) == want
        assert _kronecker_convolve(a, b) == want
        assert int_convolve(a, b) == want
        if min(len(a), len(b)) < 16 <= max(len(a), len(b)):
            short_by_long.add(len(a) * len(b) < _SCHOOLBOOK_FACTOR * (len(a) + len(b)))

    check()
    # the short-by-long draws reach both sides of the switch
    assert short_by_long == {True, False}


def test_int_convolve_edge_cases():
    assert int_convolve([], [1, 2]) == [] == int_convolve([3], [])
    assert int_convolve([0, 0], [0, 0, 0]) == [0, 0, 0, 0]
    assert int_convolve([-1], [1]) == [-1]
    assert int_convolve([-1, 1], [1, 1]) == [-1, 0, 1]
    big = 2**4000 - 1
    assert int_convolve([big, -big], [-big, big]) == [-big * big, 2 * big * big, -big * big]


def test_laurent_mul_poly_matches_the_fraction_route():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.fractions(max_denominator=40).filter(lambda x: abs(x) < 10**6)
    tails = st.builds(LaurentTail, st.integers(1, 4), st.lists(rationals, max_size=14), st.booleans())
    polys = st.lists(rationals, min_size=1, max_size=7).map(Poly)

    @_derandomized(hypothesis)
    @hypothesis.given(tails, polys)
    def check(f, p):
        try:
            want = _fraction_laurent_mul_poly(f, p)
        except InsufficientDepthError:
            with pytest.raises(InsufficientDepthError):
                laurent_mul_poly(f, p)
            return
        assert laurent_mul_poly(f, p) == want

    check()


def test_laurent_mul_poly_depth_errors_unchanged():
    shallow = LaurentTail(1, (F(-1, 3),))
    for p in (Poly.monomial(2), Poly((F(-1, 2), 0, 0, 3))):
        for route in (laurent_mul_poly, _fraction_laurent_mul_poly):
            with pytest.raises(InsufficientDepthError):
                route(shallow, p)
    # a tail starting past deg P needs no stored coefficient for the polynomial part
    deep_start = LaurentTail(4, ())
    assert laurent_mul_poly(deep_start, Poly.monomial(2)) == _fraction_laurent_mul_poly(
        deep_start, Poly.monomial(2)
    )
