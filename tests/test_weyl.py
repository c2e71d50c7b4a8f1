"""Operator algebra: normal ordering, adjoint, weight order, leading symbol."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from algebra import (
    DiffOp,
    LaurentTail,
    Poly,
    WeightOrderTooSmallError,
    ZeroOperatorError,
    adjoint,
    op_apply,
    op_apply_laurent,
    op_compose,
    ord_weight,
    property_P,
    rising_factorial_poly,
    rodrigues_operator,
)
from oracles import fraction_phi, series, shifted

from rodpade.transform import MomentSeq

E1 = DiffOp.of_term(Poly((0, -1, 1)), 1)  # z(z-1) D
Z = Poly((0, 1))


def random_poly(rng, max_deg):
    return Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, max_deg + 1))])


def random_op(rng, max_order=3, max_deg=4, nonzero=False):
    while True:
        op = DiffOp(random_poly(rng, max_deg) for _ in range(rng.randint(1, max_order + 1)))
        if not nonzero or not op.is_zero:
            return op


def test_canonical_commutation():
    assert op_compose(DiffOp.d(), DiffOp.mul_by(Z)) == DiffOp((Poly.one(), Z))


def test_compose_iterated_legendre_factor():
    # (E1 - (2z-1)) E1 = z^2(z-1)^2 D^2
    left = op_compose(E1 - Poly((-1, 2)), E1)
    assert left == DiffOp.of_term((Z * Poly((-1, 1))) ** 2, 2)


def test_compose_identity_is_unit():
    rng = random.Random(3)
    for _ in range(10):
        op = random_op(rng)
        assert op_compose(op, DiffOp.identity()) == op
        assert op_compose(DiffOp.identity(), op) == op


def test_apply_examples():
    assert op_apply(E1, Poly.monomial(2)) == Poly((0, 0, -2, 2))
    assert op_apply(random_op(random.Random(0)), Poly.zero()) == Poly.zero()
    assert op_apply(adjoint(E1), Poly.one()) == Poly((1, -2))


def test_apply_laurent_annihilates_li1_up_to_poly():
    li1 = LaurentTail(1, [F(1, k) for k in range(1, 30)])
    part, tail = op_apply_laurent(E1, li1)
    assert part == Poly.constant(-1)
    assert tail.is_zero_to_depth()
    assert tail.depth >= 25


def test_apply_laurent_identity_and_derivative():
    f = LaurentTail(1, (1, 2, 3, 4))
    part, tail = op_apply_laurent(DiffOp.identity(), f)
    assert part == Poly.zero() and tail.coeffs == f.coeffs
    part, tail = op_apply_laurent(DiffOp.d(), LaurentTail(1, (1, 0, 0)))
    assert part == Poly.zero()
    assert tail.coeff(2) == -1 and tail.coeff(3) == 0


def test_adjoint_examples():
    assert adjoint(DiffOp.d()) == DiffOp((Poly.zero(), Poly((-1,))))
    assert adjoint(DiffOp.of_term(Z, 1)) == DiffOp((Poly((-1,)), -Z))
    assert adjoint(E1) == DiffOp((Poly((1, -2)), Poly((0, 1, -1))))


def test_ord_weight_examples():
    assert ord_weight(DiffOp.of_term(Poly.monomial(2), 1)) == 1
    with pytest.raises(ZeroOperatorError):
        ord_weight(DiffOp.zero())


def test_property_P_of_legendre_factor():
    res = property_P(E1)
    assert res.holds
    assert res.symbol == -rising_factorial_poly(2, 2)  # -(k+2)(k+3)
    assert res.lead == -rising_factorial_poly(2, 1)  # -(k+2)


def test_property_P_constructed_failure_at_zero():
    # -3z - z^2 D: aggregate symbol (k+2)k vanishes at k = 0
    op = DiffOp((Poly((0, -3)), -Poly.monomial(2)))
    res = property_P(op)
    assert not res.holds
    assert res.symbol(0) == 0
    assert res.first_root == 0


def test_property_P_needs_weight_order_one():
    with pytest.raises(WeightOrderTooSmallError):
        property_P(DiffOp.d())  # ord = -1
    with pytest.raises(WeightOrderTooSmallError):
        property_P(DiffOp.of_term(Z, 1))  # ord = 0


def test_randomized_algebra_laws():
    rng = random.Random(2024)
    for _ in range(100):
        l1 = random_op(rng, nonzero=True)
        l2 = random_op(rng, nonzero=True)
        l3 = random_op(rng)
        assert op_compose(op_compose(l1, l2), l3) == op_compose(l1, op_compose(l2, l3))
        assert adjoint(op_compose(l1, l2)) == op_compose(adjoint(l2), adjoint(l1))
        assert adjoint(adjoint(l1)) == l1
        assert ord_weight(op_compose(l1, l2)) == ord_weight(l1) + ord_weight(l2)
        p = random_poly(rng, 4)
        assert op_apply(op_compose(l1, l2), p) == op_apply(l1, op_apply(l2, p))


def _seed_adjoint(l):
    """Reference route: one whole operator per term, derivatives by repetition."""

    def derivative(b, i):
        cs = b.coeffs
        for _ in range(i):
            cs = tuple(F(k) * c for k, c in enumerate(cs))[1:]
        return Poly(cs)

    acc = DiffOp.zero()
    for j, b in enumerate(l.terms):
        if b.is_zero:
            continue
        sign = -1 if j % 2 else 1
        terms = [Poly.zero()] * (j + 1)
        for i in range(j + 1):
            terms[j - i] = derivative(b, i) * (sign * math.comb(j, i))
        acc = acc + DiffOp(terms)
    return acc


def test_adjoint_against_seed_route_random():
    rng = random.Random(1213)
    for _ in range(60):
        order = rng.randint(0, 12)
        terms = []
        for _ in range(order + 1):
            if rng.random() < 0.3:
                terms.append(Poly.zero())  # zero interior terms
            else:
                deg = rng.randint(0, 9)
                terms.append(Poly(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)))
        op = DiffOp(terms)
        assert adjoint(op) == _seed_adjoint(op)
    assert adjoint(DiffOp.zero()) == DiffOp.zero()


@pytest.mark.parametrize("which", ["mpl11_n40", "mpl12_n6", "logpow_m2_n11"])
def test_adjoint_against_seed_route_on_rodrigues_operators(which):
    sizes, alphas = {
        "mpl11_n40": ([40], (F(-3, 2),)),
        "mpl12_n6": ([12, 6], (F(5, 3),)),
        "logpow_m2_n11": ([11, 11], (1,)),
    }[which]
    rn = rodrigues_operator(sizes, alphas)
    assert adjoint(rn) == _seed_adjoint(rn)


def test_degree_law_under_leading_nonvanishing():
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        op = random_op(rng, nonzero=True)
        if ord_weight(op) < 1:
            continue
        res = property_P(op)
        if not res.holds:
            continue
        d = ord_weight(op)
        star = adjoint(op)
        for k in range(21):
            assert op_apply(star, Poly.monomial(k)).degree == k + d
        checked += 1


def test_projection_commutes_with_operator_action():
    # tail of L . (z^j f) equals tail of L . pi(z^j f)
    rng = random.Random(5)
    li2 = MomentSeq(lambda k, _p: F(1, (k + 1) ** 2), "Li_2(1/z)")
    for _ in range(25):
        op = random_op(rng, max_order=2, max_deg=3, nonzero=True)
        j = rng.randint(0, 3)
        via_compose = op_compose(op, DiffOp.mul_by(Poly.monomial(j)))
        _, t1 = op_apply_laurent(via_compose, series(li2, 40))
        _, t2 = op_apply_laurent(op, series(shifted(li2, j), 40))
        for k in range(1, 25):
            assert t1.coeff(k) == t2.coeff(k)


def test_key_identity_moments_of_image_equal_adjoint_pullback():
    # phi_{pi(L.f)} = phi_f o L*, checked on moments k = 0..25
    rng = random.Random(8)
    seqs = [
        MomentSeq(lambda k, _p: F(1, k + 1), "Li_1(1/z)"),
        MomentSeq(lambda k, _p: F(1, (k + 1) ** 2), "Li_2(1/z)"),
    ]
    for trial in range(50):
        op = random_op(rng, max_order=2, max_deg=3, nonzero=True)
        f = seqs[trial % len(seqs)]
        _, tail = op_apply_laurent(op, series(f, 45))
        star = adjoint(op)
        for k in range(26):
            assert tail.moment(k) == fraction_phi(f, op_apply(star, Poly.monomial(k)))


def test_annihilation_implies_adjoint_kernel():
    # exact zero tail of L.f forces phi_f(L* . t^k) = 0
    li1 = MomentSeq(lambda k, _p: F(1, k + 1), "Li_1(1/z)")
    _, tail = op_apply_laurent(E1, series(li1, 45))
    assert tail.is_zero_to_depth()
    star = adjoint(E1)
    for k in range(26):
        assert fraction_phi(li1, op_apply(star, Poly.monomial(k))) == 0


def test_apply_laurent_depth_discipline():
    # every reported coefficient must survive a deeper recomputation, and
    # reading past the proved window must raise rather than fabricate
    from rodpade.exact import InsufficientDepthError

    rng = random.Random(13)
    li1 = MomentSeq(lambda k, _p: F(1, k + 1), "Li_1(1/z)")
    for _ in range(30):
        op = random_op(rng, max_order=3, max_deg=4, nonzero=True)
        p_shallow, shallow = op_apply_laurent(op, series(li1, 18))
        p_deep, deep = op_apply_laurent(op, series(li1, 60))
        assert p_shallow == p_deep
        for k in range(shallow.start, shallow.start + shallow.depth):
            assert shallow.coeff(k) == deep.coeff(k)
        with pytest.raises(InsufficientDepthError):
            shallow.coeff(shallow.start + shallow.depth)


def test_apply_laurent_min_depth_guard():
    from rodpade.exact import InsufficientDepthError

    with pytest.raises(InsufficientDepthError):
        op_apply_laurent(E1, LaurentTail(1, (1, 1, 1, 1)), min_depth=10)

