"""The Fraction algebra: polynomials, Laurent tails and differential operators over Q.

The tests' independent route to what the program computes on integer
pairs.  :class:`Poly` is a dense polynomial with ``fractions.Fraction``
coefficients.  A :class:`LaurentTail` stores a truncation of an element of
(1/z)*Q[[1/z]] together with the number of coefficients that are guaranteed
correct, so no operation can ever report a coefficient beyond what was
actually proved.

An operator is kept in the canonical normal form sum_j b_j(z) * D^j with every
coefficient written to the LEFT of the derivative powers.  The alternating
convention sum_j (-1)^j a_j(z) * D^j used by the adjoint calculus is exposed
through :meth:`DiffOp.alternating_coeff`, never as a second representation.

The paper's Rodrigues operators L_N = (1/N!) z^N prod_i (z - alpha_i)^N D^N
and their compositions are built here, by :func:`rodrigues_operator` alone:
the polylogarithm R_n composes one L_N per depth level, the log-power R_n
is L_n with the single alpha = 1, taken m times.  The program never builds
them: its tables run the integer Rodrigues chain of ``rodpade.transform``,
and ``logpow-identities`` proves the identities of E_n on integer
coefficient lists (``rodpade.logpow.verify_En_identities``).  The operators
and this algebra are the oracle of both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from rodpade.exact import (
    Record,
    as_fraction,
    falling_derivative,
    format_rational,
    int_convolve,
    log_int,
    over_common_denominator,
)

Scalar = Union[int, Fraction]

#: degree of the zero polynomial (keeps deg(P*Q) = deg P + deg Q testable)
NEG_INF = float("-inf")

#: order at infinity of the zero Laurent series
INF = math.inf


def log_fraction(q: Fraction) -> float:
    """log of a positive rational, via exact integer parts: the oracle of ``heights._log_pair``."""
    q = as_fraction(q)
    if q.numerator <= 0:
        raise ValueError("log of nonpositive rational")
    return log_int(q.numerator) - log_int(q.denominator)


class InsufficientDepthError(Exception):
    """An operation would need Laurent coefficients beyond the proved depth."""


class Poly:
    """Dense univariate polynomial over Q.

    ``coeffs[i]`` is the coefficient of z^i; trailing zeros are stripped so
    the representation is canonical and the zero polynomial is the empty
    tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        return cls((0,) * k + (c,))

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int) -> "Poly":
        """The polynomial sum_i (nums[i] / den) z^i."""
        return cls(Fraction(c, den) for c in nums)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Poly":
        scalar = as_fraction(scalar)
        return Poly(c / scalar for c in self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self, k: int = 1) -> "Poly":
        """k-th derivative, exact, in closed form.

        The coefficient of z^i is c_{i+k} * (i+1)(i+2)...(i+k).  The product
        is carried from i to i+1 as one running integer, so any k costs
        O(deg) multiplications.  k = 0 returns the polynomial itself and
        k > deg returns zero.
        """
        if k < 0:
            raise ValueError("negative derivative order")
        if k == 0:
            return self
        return Poly(falling_derivative(self.coeffs, k, math.factorial(k)))

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        return Poly((Fraction(0),) * k + self.coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        acc, x = Fraction(0), as_fraction(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            else:
                mono = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{format_rational(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


#: the polynomial z
Z = Poly((0, 1))


class OrdAtLeast(Record):
    """Lower bound on ord_inf when the truncation shows no nonzero coefficient."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        super().__init__(bound)

    def __ge__(self, other: int) -> bool:
        return self.bound >= other


class LaurentTail:
    """Truncation of an element of (1/z)*Q[[1/z]].

    ``coeffs[i]`` is the coefficient of z^-(start+i).  Coefficients below
    ``start`` are exactly zero; coefficients beyond the stored window are
    unknown unless ``exact`` is set, in which case they are exactly zero and
    the tail is a full Laurent polynomial in 1/z.
    """

    __slots__ = ("start", "coeffs", "exact")

    def __init__(self, start: int, coeffs: Iterable[Scalar] = (), exact: bool = False):
        if start < 1:
            raise ValueError("tail must start at z^-1 or deeper")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in coeffs))
        object.__setattr__(self, "exact", bool(exact))

    @classmethod
    def zero(cls) -> "LaurentTail":
        return cls(1, (), exact=True)

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    @property
    def known_end(self) -> float:
        """Largest index k for which the coefficient of z^-k is known."""
        return INF if self.exact else self.start + self.depth - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of z^-k; raises beyond the proved window."""
        if k < self.start:
            return Fraction(0)
        i = k - self.start
        if i < self.depth:
            return self.coeffs[i]
        if self.exact:
            return Fraction(0)
        raise InsufficientDepthError(f"coefficient of z^-{k} beyond proved depth")

    def moment(self, k: int) -> Fraction:
        """Moment k, i.e. the coefficient of z^-(k+1)."""
        return self.coeff(k + 1)

    def window(self, lo: int, hi: int) -> list[Fraction]:
        return [self.coeff(k) for k in range(lo, hi + 1)]

    def is_zero_to_depth(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative(self, j: int = 1) -> "LaurentTail":
        """j-th derivative; start shifts down by j, depth is preserved."""
        if j < 0:
            raise ValueError("negative derivative order")
        coeffs = list(self.coeffs)
        start = self.start
        for _ in range(j):
            coeffs = [Fraction(-(start + i)) * c for i, c in enumerate(coeffs)]
            start += 1
        return LaurentTail(start, coeffs, self.exact)

    def add(self, other: "LaurentTail") -> "LaurentTail":
        """Sum truncated to the jointly proved window."""
        start = min(self.start, other.start)
        end = min(self.known_end, other.known_end)
        exact = self.exact and other.exact
        if end == INF:
            end = max(self.start + self.depth - 1, other.start + other.depth - 1)
            if end < start:
                return LaurentTail.zero()
        if end < start:
            return LaurentTail(start, (), exact)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(start, int(end) + 1)]
        return LaurentTail(start, coeffs, exact)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentTail)
            and self.start == other.start
            and self.coeffs == other.coeffs
            and self.exact == other.exact
        )

    def __repr__(self):
        tag = ", exact" if self.exact else ""
        return f"LaurentTail(start={self.start}, coeffs={[str(c) for c in self.coeffs]}{tag})"


def ord_inf(f: LaurentTail, assume_exact: bool = False):
    """Order at infinity of a tail.

    Returns the exact order as an int when a nonzero stored coefficient
    exists, INF when every coefficient vanishes and the tail is exact (or the
    caller asserts exactness), and otherwise the flagged lower bound
    ``OrdAtLeast(start + depth)``.
    """
    for i, c in enumerate(f.coeffs):
        if c != 0:
            return f.start + i
    if f.exact or assume_exact:
        return INF
    return OrdAtLeast(f.start + f.depth)


def laurent_mul_poly(f: LaurentTail, p: Poly) -> tuple[Poly, LaurentTail]:
    """Exact product P(z)*f(z) split into (polynomial part, tail).

    The tail is truncated to the provably correct depth: the product of a
    depth-d window by a degree-D polynomial is proved only up to index
    start + d - 1 - D.

    The coefficient of z^e is sum_i p_i f_(i-e).  P is brought over one
    denominator d and the stored window over one denominator L; the window
    reversed, w_j = f_(last - j) with last = start + depth - 1, turns every
    such sum into one coefficient of the integer product P w, the one at
    index last + e.  So both parts come from a single ``int_convolve`` and
    one Fraction(c, d L) per coefficient read.
    """
    if p.is_zero:
        return Poly.zero(), LaurentTail.zero()
    deg = int(p.degree)
    # polynomial part: coefficient of z^u is sum_i p_i * f_{i-u}
    top_needed = deg  # largest tail index the polynomial part touches
    if not f.exact and top_needed > f.start + f.depth - 1 and top_needed >= f.start:
        raise InsufficientDepthError("tail too shallow for the polynomial part of the product")
    last = f.start + f.depth - 1
    p_nums, p_den = over_common_denominator(p.coeffs)
    w_nums, w_den = over_common_denominator(f.coeffs)
    product, scale = int_convolve(p_nums, w_nums[::-1]), p_den * w_den

    def at(e: int) -> Fraction:
        i = last + e
        return Fraction(product[i], scale) if 0 <= i < len(product) else Fraction(0)

    poly_part = Poly(at(u) for u in range(deg))
    new_start = max(1, f.start - deg)
    # an exact tail's product cannot reach deeper than its last stored index
    end = last if f.exact else last - deg
    return poly_part, LaurentTail(new_start, (at(-k) for k in range(new_start, end + 1)), f.exact)


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

    def __neg__(self) -> "DiffOp":
        return DiffOp(-t for t in self.terms)

    def __sub__(self, other) -> "DiffOp":
        return self + (-_as_op(other))

    def __mul__(self, other) -> "DiffOp":
        """Scalar multiple for scalars, composition for operators/polynomials."""
        if isinstance(other, (int, Fraction)):
            return DiffOp(t * other for t in self.terms)
        return op_compose(self, _as_op(other))

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
