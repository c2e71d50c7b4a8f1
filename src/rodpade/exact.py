"""Exact integer and rational helpers shared by every layer.

Rationals are ``fractions.Fraction`` (canonical lowest terms, positive
denominator) or integer numerators over one common denominator, the form the
tables compute in.  Here are the value-record base, parsing and printing of
rationals, big-integer-safe logarithms, and the integer convolution and
derivative kernels.  Polynomials are integer coefficient lists, ascending:
the package has no polynomial or operator class.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Record",
    "as_fraction",
    "format_rational",
    "format_pair",
    "log_int",
    "log_fraction",
    "parse_rational",
    "parse_rationals",
    "parse_n_range",
    "falling_derivative",
    "int_convolve",
    "over_common_denominator",
]


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


def as_fraction(x: int | Fraction) -> Fraction:
    """x itself when it is a Fraction (a copy would only rerun the constructor), else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_pair(nums: Sequence[int], den: int) -> list[str]:
    """Each nums[i] / den (den > 0) as ``format_rational`` writes it, by one gcd and division each."""
    out = []
    for c in nums:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


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


#: the integer digits and the decimal exponent at the end of a literal, as ``Fraction`` reads them
_EXPONENT = re.compile(r"([0-9_]*)(?:\.[0-9_]*)?[eE]([-+]?[0-9_]+)$")


def parse_rational(text: str) -> Fraction:
    """The rational written as an integer, decimal or "p/q"; ValueError otherwise.

    A decimal exponent e is refused when 10^|e|, or the value's integer part
    (its mantissa's integer digits followed by e zeros), has more digits than
    the interpreter's int-string limit, before ``Fraction`` forms that power:
    it alone can take minutes, and its digits could not be printed.
    """
    text = text.strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        e = int(exponent[2])
        if abs(e) >= limit:
            raise ValueError(f"exponent {exponent[2]} gives a power of ten past the limit of {limit} digits")
        digits = len(exponent[1].replace("_", "").lstrip("0")) + e
        if digits > limit:
            raise ValueError(f"{text!r} has {digits} integer digits, past the limit of {limit}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """The comma-separated rationals of ``text`` (an ``--alphas`` value); empty parts are skipped."""
    return tuple(parse_rational(part) for part in text.split(",") if part.strip())


def parse_n_range(text: str) -> list[int]:
    """The weights an ``--n`` text names: one integer, or every integer of lo..hi."""
    lo, dots, hi = text.strip().partition("..")
    try:
        ns = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"argument --n: expected N or LO..HI, got {text!r}") from None
    if not ns:
        raise ValueError("empty range")
    return list(ns)


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


#: ``int_convolve`` multiplies term by term when len(a) len(b) < C (len(a) + len(b)),
#: that is 1/len(a) + 1/len(b) > 1/C, with C = _SCHOOLBOOK_FACTOR: every product
#: with a factor shorter than C + 1, squares up to 17 x 17, and a short factor
#: against a long one only while the long one stays short enough.  Best of 7
#: ``timeit`` repeats on CPython 3.11 (Xeon, x86-64, 2 cores), 30-bit
#: coefficients, us by the loop / by substitution:
#:
#:     short x long    16        30        60        100       200       300
#:      4            10/29     18/45     34/78     53/130   109/247   172/355
#:     10            25/38     42/56     88/94    145/146   297/267   464/389
#:     12            30/41     53/59    107/97    182/149   353/275   563/399
#:     15            38/45     68/64    134/103   216/154   451/281   704/416
#:     16            43/47     71/65    152/111   268/158   502/299   757/418
#:     20              -       91/72    188/114   319/141   630/296   975/428
#:
#: (20 x 20: 59/58, 24 x 24: 90/67, 40 x 40: 178/65).  Replaying the calls of
#: the first 40 jobs of each benchmark workload, seeds 7 and 8, this rule is
#: within 0.01 ms per job of taking the faster path every time; switching on
#: the shorter length alone (below 16) took 0.03-0.04 ms more per wide-det job.
_SCHOOLBOOK_FACTOR = 9


def int_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials (ascending).

    Products of few terms go by the double loop (``_schoolbook_convolve``),
    the rest by Kronecker substitution (``_kronecker_convolve``); both give
    the same list.
    """
    if not a or not b:
        return []
    if len(a) * len(b) < _SCHOOLBOOK_FACTOR * (len(a) + len(b)):
        return _schoolbook_convolve(a, b)
    return _kronecker_convolve(a, b)


def _schoolbook_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product by the double loop, skipping zero coefficients of a; a and b nonempty."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _kronecker_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product by Kronecker substitution; a and b nonempty.

    Every product coefficient has absolute value at most max|a| max|b|
    min(len a, len b), so with a slot of w bytes above that bound plus a sign
    bit, a(2^8w) b(2^8w) carries each coefficient in its own slot.  Each side
    is packed as (nonnegative part) - (negative part) through bytes, one
    big-int multiplication forms the product, and the slots are read back as
    signed digits: a slot >= 2^(8w-1) is negative and borrows 1 from the next
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, 8.4).
    """
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
