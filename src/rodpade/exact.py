"""Exact univariate polynomials and truncated Laurent tails at infinity.

All coefficients are ``fractions.Fraction``: canonical lowest terms, positive
denominator, arbitrary precision.  A :class:`LaurentTail` stores a truncation
of an element of (1/z)*Q[[1/z]] together with the number of coefficients that
are guaranteed correct, so no operation can ever report a coefficient beyond
what was actually proved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "NEG_INF",
    "INF",
    "Scalar",
    "InsufficientDepthError",
    "Record",
    "as_fraction",
    "format_rational",
    "log_int",
    "log_fraction",
    "parse_rational",
    "Poly",
    "falling_derivative",
    "int_convolve",
    "over_common_denominator",
    "Z",
    "OrdAtLeast",
    "LaurentTail",
    "ord_inf",
    "laurent_mul_poly",
]

#: degree of the zero polynomial (keeps deg(P*Q) = deg P + deg Q testable)
NEG_INF = float("-inf")

#: order at infinity of the zero Laurent series
INF = math.inf

Scalar = Union[int, Fraction]


class InsufficientDepthError(Exception):
    """An operation would need Laurent coefficients beyond the proved depth."""


class Record:
    """Base of the package's immutable values, with their fields in ``__slots__``.

    A subclass lists its fields in ``__slots__``, and its ``__init__`` hands
    one value per field, in that order, to ``Record.__init__``.  Equality
    (between instances of one class only), hash and the repr
    ``Name(f=..., g=...)`` follow the fields, leaving out those named in
    ``_hidden``.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._hidden)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since slots cannot be set
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def as_fraction(x: Scalar) -> Fraction:
    """x itself when it is a Fraction (a copy would only rerun the constructor), else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def log_int(n: int) -> float:
    """log of a positive integer, safe for huge values."""
    if n <= 0:
        raise ValueError("log of nonpositive integer")
    if n.bit_length() <= 62:
        return math.log(n)
    shift = n.bit_length() - 62
    return math.log(n >> shift) + shift * math.log(2)


def log_fraction(q: Fraction) -> float:
    """log of a positive rational, via exact integer parts."""
    q = as_fraction(q)
    if q.numerator <= 0:
        raise ValueError("log of nonpositive rational")
    return log_int(q.numerator) - log_int(q.denominator)


def parse_rational(text: str) -> Fraction:
    """The rational written as an integer, decimal or "p/q"; ValueError otherwise."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


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

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

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

    def to_strings(self) -> list[str]:
        """Ascending coefficients as rational strings (JSON form)."""
        return [format_rational(c) for c in self.coeffs]


def falling_derivative(cs: Sequence, k: int, fall: int) -> list:
    """The coefficients c_(i+k) * fall_i of a k-th derivative, i = 0..len(cs)-k-1.

    fall_0 = ``fall`` and fall_(i+1) = fall_i (i+k+1)/(i+1), carried as one
    running integer.  With fall = k! this is D^k, fall_i = (i+1)...(i+k); with
    fall = 1 it is (1/k!) D^k, fall_i = C(i+k, k).  Either way every division
    is exact, so any k costs O(len(cs)) multiplications.
    """
    out = []
    for i in range(len(cs) - k):
        out.append(cs[i + k] * fall)
        fall = fall * (i + k + 1) // (i + 1)
    return out


def int_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials (ascending).

    Kronecker substitution: every product coefficient has absolute value at
    most max|a| max|b| min(len a, len b), so with a slot of w bytes above that
    bound plus a sign bit, a(2^8w) b(2^8w) carries each coefficient in its own
    slot.  Each side is packed as (nonnegative part) - (negative part) through
    bytes, one big-int multiplication forms the product, and the slots are
    read back as signed digits: a slot >= 2^(8w-1) is negative and borrows 1
    from the next (von zur Gathen & Gerhard, *Modern Computer Algebra*, 8.4).
    """
    if not a or not b:
        return []
    count = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * count
    width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    product = _kronecker_pack(a, width) * _kronecker_pack(b, width)
    raw = product.to_bytes(count * width, "little", signed=True)
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out, borrow = [], 0
    for i in range(0, count * width, width):
        digit = int.from_bytes(raw[i : i + width], "little") + borrow
        borrow = digit >= half
        out.append(digit - full if borrow else digit)
    return out


def _kronecker_pack(cs: Sequence[int], width: int) -> int:
    """sum_i cs[i] 2^(8 width i), for |cs[i]| < 2^(8 width - 1)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in cs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def over_common_denominator(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """xs as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


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

    def __neg__(self) -> "LaurentTail":
        return LaurentTail(self.start, (-c for c in self.coeffs), self.exact)

    def scale(self, c: Scalar) -> "LaurentTail":
        c = as_fraction(c)
        return LaurentTail(self.start, (c * a for a in self.coeffs), self.exact)

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

    def to_json(self) -> dict:
        return {"start": self.start, "coeffs": [format_rational(c) for c in self.coeffs]}


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
