"""Differential operators with polynomial coefficients over Q.

An operator is kept in the canonical normal form sum_j b_j(z) * D^j with every
coefficient written to the LEFT of the derivative powers.  The alternating
convention sum_j (-1)^j a_j(z) * D^j used by the adjoint calculus is exposed
through :meth:`DiffOp.alternating_coeff`, never as a second representation.

The paper's Rodrigues operators L_N = (1/N!) z^N prod_i (z - alpha_i)^N D^N
and their compositions are built here, by :func:`rodrigues_operator` alone:
the polylogarithm R_n composes one L_N per depth level, the log-power R_n
is L_n with the single alpha = 1, taken m times.  The tables never build
them; they run the integer Rodrigues chain of ``transform``, and the
operators are its independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .exact import (
    NEG_INF,
    InsufficientDepthError,
    LaurentTail,
    Poly,
    Record,
    Scalar,
    laurent_mul_poly,
    log_fraction,
)

__all__ = [
    "DiffOp",
    "ZeroOperatorError",
    "WeightOrderTooSmallError",
    "InsufficientDepthError",
    "op_compose",
    "op_apply",
    "op_apply_laurent",
    "adjoint",
    "ord_weight",
    "property_P",
    "PropertyP",
    "rising_factorial_poly",
    "rodrigues_operator",
    "build_En",
    "verify_En_identities",
]


class ZeroOperatorError(Exception):
    """The zero operator has no weight order."""


class WeightOrderTooSmallError(Exception):
    """Property (P) is defined only for weight order >= 1."""


class DiffOp:
    """Normal-form element of Q[z, d/dz]: ``terms[j]`` = b_j(z) in sum b_j D^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Union[Poly, Scalar]] = ()):
        ts = [t if isinstance(t, Poly) else Poly.constant(t) for t in terms]
        while ts and ts[-1].is_zero:
            ts.pop()
        object.__setattr__(self, "terms", tuple(ts))

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((Poly.one(),))

    @classmethod
    def mul_by(cls, p: Union[Poly, Scalar]) -> "DiffOp":
        """Multiplication operator f |-> p*f."""
        return cls((p if isinstance(p, Poly) else Poly.constant(p),))

    @classmethod
    def d(cls, j: int = 1) -> "DiffOp":
        """The derivative operator D^j."""
        return cls((Poly.zero(),) * j + (Poly.one(),))

    @classmethod
    def of_term(cls, p: Union[Poly, Scalar], j: int) -> "DiffOp":
        """The single-term operator p(z) * D^j."""
        return cls((Poly.zero(),) * j + ((p if isinstance(p, Poly) else Poly.constant(p)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self):
        return len(self.terms) - 1 if self.terms else NEG_INF

    def coeff(self, j: int) -> Poly:
        if 0 <= j < len(self.terms):
            return self.terms[j]
        return Poly.zero()

    def alternating_coeff(self, j: int) -> Poly:
        """a_j(z) in the convention sum_j (-1)^j a_j(z) D^j."""
        return self.coeff(j) if j % 2 == 0 else -self.coeff(j)

    def __add__(self, other) -> "DiffOp":
        other = _as_op(other)
        n = max(len(self.terms), len(other.terms))
        return DiffOp(self.coeff(j) + other.coeff(j) for j in range(n))

    __radd__ = __add__

    def __neg__(self) -> "DiffOp":
        return DiffOp(-t for t in self.terms)

    def __sub__(self, other) -> "DiffOp":
        return self + (-_as_op(other))

    def __rsub__(self, other) -> "DiffOp":
        return _as_op(other) - self

    def __mul__(self, other) -> "DiffOp":
        """Scalar multiple for scalars, composition for operators/polynomials."""
        if isinstance(other, (int, Fraction)):
            return DiffOp(t * other for t in self.terms)
        return op_compose(self, _as_op(other))

    def __rmul__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction)):
            return self * other
        return op_compose(_as_op(other), self)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if self.is_zero:
            return "DiffOp(0)"
        parts = []
        for j, b in enumerate(self.terms):
            if b.is_zero:
                continue
            head = f"({b})"
            parts.append(head if j == 0 else f"{head}*D^{j}" if j > 1 else f"{head}*D")
        return "DiffOp[" + " + ".join(parts) + "]"

    def to_json(self) -> list[dict]:
        return [
            {"order": j, "coeff": b.to_strings()}
            for j, b in enumerate(self.terms)
            if not b.is_zero
        ]


def _as_op(x) -> DiffOp:
    if isinstance(x, DiffOp):
        return x
    if isinstance(x, (Poly, int, Fraction)):
        return DiffOp.mul_by(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to DiffOp")


def op_compose(l1: DiffOp, l2: DiffOp) -> DiffOp:
    """Normal form of L1 o L2 via D^j a(z) = sum_i C(j,i) a^(i)(z) D^(j-i)."""
    if l1.is_zero or l2.is_zero:
        return DiffOp.zero()
    out: list[Poly] = [Poly.zero()] * (len(l1.terms) + len(l2.terms) - 1)
    for j, b in enumerate(l1.terms):
        if b.is_zero:
            continue
        for k, c in enumerate(l2.terms):
            if c.is_zero:
                continue
            for i in range(j + 1):
                term = b * c.derivative(i) * math.comb(j, i)
                out[j - i + k] = out[j - i + k] + term
    return DiffOp(out)


def rodrigues_operator(sizes: Sequence[int], alphas: Sequence[Scalar]) -> DiffOp:
    """L_{sizes[0]} o ... o L_{sizes[-1]}, L_N = (1/N!) z^N prod_i (z - alpha_i)^N D^N.

    ``sizes`` is in the order of ``mpl.rodrigues_stages`` and
    ``logpow.rodrigues_stages``, the order in which the adjoint factors act,
    so ``adjoint(rodrigues_operator(sizes, alphas)) . t^l`` is column l of
    the Rodrigues chain.
    """
    if not sizes or min(sizes) < 1:
        raise ValueError("sizes must be nonempty and positive")
    acc = DiffOp.identity()
    for N in sizes:
        b = Poly.monomial(N)
        for a in alphas:
            b = b * Poly((-a, 1)) ** N
        acc = op_compose(acc, DiffOp.of_term(b / math.factorial(N), N))
    return acc


def build_En(n: int) -> DiffOp:
    """E_n = z^n (z-1)^n D^n, so that L_n with alpha = 1 is E_n / n!."""
    if n < 1:
        raise ValueError("n must be positive")
    return DiffOp.of_term(Poly.monomial(n) * Poly((-1, 1)) ** n, n)


def verify_En_identities(n_max: int) -> bool:
    """Exact operator identities for the iterated factors, n = 1..n_max.

    (i)  E_n = (E_1 - (n-1)(2z-1)) ... (E_1 - (2z-1)) E_1
    (ii) E_{n+1} z = z (E_1 - (n-1)z - 1) E_n

    The product in (i) is carried from n - 1 to n, and each E_n is built
    once, so the work is one pass over n.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    e1 = build_En(1)
    two_z_minus_1 = Poly((-1, 2))
    z = DiffOp.mul_by(Poly((0, 1)))
    product = en = e1
    for n in range(1, n_max + 1):
        if n > 1:
            product = op_compose(e1 - two_z_minus_1 * (n - 1), product)
        if product != en:
            return False
        en_next = build_En(n + 1)
        shifted = op_compose(e1 - Poly((1, n - 1)), en)
        if op_compose(en_next, z) != op_compose(z, shifted):
            return False
        en = en_next
    return True


def op_apply(l: DiffOp, p: Poly) -> Poly:
    """Exact image L . P."""
    acc = Poly.zero()
    for j, b in enumerate(l.terms):
        if b.is_zero:
            continue
        acc = acc + b * p.derivative(j)
    return acc


def op_apply_laurent(l: DiffOp, f: LaurentTail, min_depth: int = 0) -> tuple[Poly, LaurentTail]:
    """Exact split L . f = A(z) + tail, with the tail truncated to the proved depth.

    Raises InsufficientDepthError when the input tail cannot support
    ``min_depth`` output coefficients (or the polynomial part itself).
    """
    poly_acc = Poly.zero()
    tail_acc = LaurentTail.zero()
    for j, b in enumerate(l.terms):
        if b.is_zero:
            continue
        part, tail = laurent_mul_poly(f.derivative(j), b)
        poly_acc = poly_acc + part
        tail_acc = tail_acc.add(tail)
    if not tail_acc.exact and tail_acc.depth < min_depth:
        raise InsufficientDepthError(
            f"proved output depth {tail_acc.depth} < requested {min_depth}"
        )
    return poly_acc, tail_acc


def adjoint(l: DiffOp) -> DiffOp:
    """Formal adjoint: sum_j b_j(z) D^j |-> sum_j (-1)^j D^j b_j(t), normal-ordered.

    With b_j = sum_k c_k z^k, the term (-1)^j D^j o b_j expands to
    (-1)^j sum_i C(j,i) b_j^(i) D^(j-i), so it adds
    (-1)^j C(j,i) (k+i)!/k! c_{k+i} to the coefficient of z^k D^(j-i).
    Those contributions are accumulated into one dense coefficient list per
    derivative order, with (k+i)!/k! carried as a running integer over k,
    and each coefficient polynomial is built once at the end.

    An involutive anti-homomorphism: (L1 L2)* = L2* L1* and L** = L.
    """
    out: list[list] = [[] for _ in l.terms]
    for j, b in enumerate(l.terms):
        cs = b.coeffs
        sign = -1 if j % 2 else 1
        for i in range(min(j, len(cs) - 1) + 1):
            row = out[j - i]
            width = len(cs) - i
            if len(row) < width:
                row.extend([0] * (width - len(row)))
            fall = sign * math.comb(j, i) * math.factorial(i)  # scaled (k+i)!/k! at k = 0
            for k in range(width):
                c = cs[k + i]
                if c:
                    row[k] += c * fall
                fall = fall * (k + i + 1) // (k + 1)
    return DiffOp(Poly(row) for row in out)


def ord_weight(l: DiffOp) -> int:
    """Order with weight +1 on z and -1 on D: max_j (deg b_j - j)."""
    if l.is_zero:
        raise ZeroOperatorError("weight order of the zero operator")
    return max(int(b.degree) - j for j, b in enumerate(l.terms) if not b.is_zero)


def rising_factorial_poly(offset: Scalar, length: int) -> Poly:
    """The polynomial (k + offset)(k + offset + 1)...(k + offset + length - 1)."""
    acc = Poly.one()
    for u in range(length):
        acc = acc * Poly((Fraction(offset) + u, 1))
    return acc


class PropertyP(Record):
    """Result of the leading-symbol nonvanishing test.

    ``symbol`` is S(k) = sum over the top-weight terms of
    a_{m_j, j} * (k+d+1)(k+d+2)...(k+d+m_j), the conventional aggregate whose
    factors run over the full coefficient degree.  ``lead`` is the coefficient
    of t^(k+d) in L* . t^k, i.e. sum a_{m_j, j} * (k+d+1)...(k+d+j); it is the
    polynomial that actually divides the recurrence solutions and drives the
    degree law deg(L* . P) = deg P + d.  Both must be free of roots at
    nonnegative integers for ``holds``; they coincide up to strictly positive
    factors for single-top-term operators.
    """

    __slots__ = ("holds", "symbol", "lead", "first_root")

    def __init__(self, holds: bool, symbol: Poly, lead: Poly, first_root: int | None):
        super().__init__(holds, symbol, lead, first_root)

    def __bool__(self) -> bool:
        return self.holds


def _first_nonneg_integer_root(p: Poly) -> int | None:
    """Smallest integer root k >= 0, by exhausting an upper bound on positive roots.

    Uses the Lagrange-Zassenhaus bound 2 * max_{c_i < 0} (|c_i|/lc)^(1/(deg-i))
    (after normalizing lc > 0); the plain all-coefficient Cauchy ratio is useless
    here because leading symbols carry factorially large coefficients while all
    their real roots are negative.
    """
    if p.is_zero:
        return 0
    if p.degree == 0:
        return None
    if p(0) == 0:
        return 0
    if p.lc < 0:
        p = -p
    deg = int(p.degree)
    negatives = [(i, c) for i, c in enumerate(p.coeffs) if c < 0]
    if not negatives:
        return None
    log_lc = log_fraction(p.lc)
    log_bound = max((log_fraction(-c) - log_lc) / (deg - i) for i, c in negatives)
    bound = math.floor(2.0 * math.exp(log_bound)) + 2
    if bound > 10**6:
        raise OverflowError(f"positive-root bound {bound} too large to scan")
    for k in range(1, bound + 1):
        if p(k) == 0:
            return k
    return None


def property_P(l: DiffOp) -> PropertyP:
    """Nonvanishing of the leading symbol at every nonnegative integer.

    Raises WeightOrderTooSmallError when ord_weight(L) < 1.
    """
    d = ord_weight(l)
    if d < 1:
        raise WeightOrderTooSmallError(f"weight order {d} < 1")
    symbol = Poly.zero()
    lead = Poly.zero()
    for j, b in enumerate(l.terms):
        if b.is_zero or int(b.degree) - j != d:
            continue
        a_top = l.alternating_coeff(j).lc
        symbol = symbol + rising_factorial_poly(d + 1, int(b.degree)) * a_top
        lead = lead + rising_factorial_poly(d + 1, j) * a_top
    roots = [r for r in (_first_nonneg_integer_root(symbol), _first_nonneg_integer_root(lead)) if r is not None]
    first_root = min(roots) if roots else None
    return PropertyP(holds=not roots, symbol=symbol, lead=lead, first_root=first_root)
