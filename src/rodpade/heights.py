"""Places of Q, exact absolute values and heights.

The layer that the criterion (:mod:`rodpade.criterion`) and the bound
audits (:mod:`rodpade.audit`) share.  |x|_v and H_v = max(1, |x|_v) are
exact: integer pairs (numerator, denominator > 0), from ``_int_norm_v`` and
``_int_height_v`` (``beta_hypothesis`` decides |beta|_v > H_v(alpha) on
them), and global heights are integers.  A caller keeps the height pairs it
takes.  ``_log_pair`` is the package's one log of a rational: of a height
pair (a local height h_v, taken once, at the end), an audit row's side or a
remainder |R_n(beta)|_v, in lowest terms; big-integer safe, with relative
error well below 1e-15.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import Record, as_fraction, log_int as _log_int, over_common_denominator, shown

__all__ = [
    "Place",
    "abs_v",
    "H_v_vec",
    "beta_hypothesis",
    "global_height_vec",
]


class Place(Record):
    """A place of Q: the archimedean one (p = None) or a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        super().__init__(p)
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def epsilon(self) -> int:
        """1 at the archimedean place, 0 at finite places."""
        return 0 if self.is_finite else 1

    @classmethod
    def parse(cls, text: str) -> "Place":
        """The place a ``--place`` text names: inf (or infty, oo), or p<prime> (or the bare prime)."""
        key = text.strip().lower()
        if key in ("inf", "infty", "oo"):
            return cls(None)
        try:
            p = int(key[1:] if key.startswith("p") else key)
        except ValueError:
            raise ValueError(f"argument --place: expected inf or p<prime>, got {shown(text)!r}") from None
        return cls(p)

    def __str__(self):
        return "inf" if self.p is None else f"p{self.p}"


#: the first 13 primes; as Miller-Rabin bases they decide primality of every
#: n below _MR_LIMIT (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {shown(str(n))} is only decided below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n.

    At p = 2 it is the index of the lowest set bit.  Otherwise the powers
    p, p^2, p^4, ... that divide n are found by repeated squaring, and the
    exponent is read off their binary expansion from the largest down, so a
    valuation v costs O(log v) divisions instead of v.
    """
    if n == 0:
        raise ValueError("valuation of zero")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    powers = [p]
    while n % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def _int_norm_v(nums: Sequence[int], den: int, place: Place) -> tuple[int, int]:
    """max_i |nums[i] / den|_v for integers nums and den > 0, as (numerator, denominator > 0).

    The value is 0 when every num is 0.  At infinity it is max|num| / den, not
    reduced.  At p the largest value belongs to the smallest valuation,
    min_i v_p(num_i) = v_p(gcd nums), so it is p^(v_p(den) - v_p(gcd nums)):
    one gcd and two valuations, whatever the number of coefficients.
    """
    if not place.is_finite:
        return max(map(abs, nums), default=0), den
    g = math.gcd(*nums)
    if g == 0:
        return 0, 1
    v = _int_valuation(den, place.p) - _int_valuation(g, place.p)
    return (place.p**v, 1) if v >= 0 else (1, place.p**-v)


def _int_height_v(nums: Sequence[int], den: int, place: Place) -> tuple[int, int]:
    """max(1, max_i |nums[i] / den|_v) in lowest terms, for integers nums and den > 0."""
    num, den = _int_norm_v(nums, den, place)
    g = math.gcd(num, den)
    return (num // g, den // g) if num > den else (1, 1)


def _log_pair(pair: tuple[int, int]) -> float:
    """log(num / den) of a positive integer pair, reduced first so that one rational gives one float."""
    g = math.gcd(*pair)
    return _log_int(pair[0] // g) - _log_int(pair[1] // g)


def beta_hypothesis(alphas: Sequence[Fraction], beta: Fraction, place: Place) -> tuple[bool, tuple, tuple]:
    """(|beta|_v > H_v(alpha), H_v(beta), H_v(alpha)), the heights as pairs in lowest terms.

    As H_v(alpha) >= 1, |beta|_v > H_v(alpha) exactly when H_v(beta) > H_v(alpha),
    and then H_v(beta) = |beta|_v: one norm of beta decides it.
    """
    H_beta = _int_height_v((beta.numerator,), beta.denominator, place)
    H_alpha = _int_height_v(*over_common_denominator(alphas), place)
    return H_beta[0] * H_alpha[1] > H_alpha[0] * H_beta[1], H_beta, H_alpha


def abs_v(x: Fraction, place: Place) -> Fraction:
    """Normalized absolute value, exact: |p|_p = 1/p, usual value at infinity."""
    x = as_fraction(x)
    return Fraction(*_int_norm_v((x.numerator,), x.denominator, place))


def H_v_vec(xs: Sequence[Fraction], place: Place) -> Fraction:
    return Fraction(*_int_height_v(*over_common_denominator([as_fraction(x) for x in xs]), place))


def global_height_vec(xs: Sequence[Fraction]) -> float:
    """log prod_v max(1, |x_1|_v, ..) = log max(L, max_i |n_i|), for x_i = n_i / L over their lcm L.

    The finite places contribute prod_p p^(max_i v_p(den x_i)) = L.
    """
    nums, den = over_common_denominator([as_fraction(x) for x in xs])
    return _log_int(max(den, max(map(abs, nums), default=0)))


def _round15(x: float | None) -> float | None:
    """x to 15 significant digits for the JSON; None for None, an infinity or NaN."""
    if x is None:
        return None
    if math.isinf(x) or math.isnan(x):
        return None
    return float(f"{x:.15g}")


def _bound_constant(m: int, r: int, M: int) -> float:
    """M log2 + r(r+1)/2 log(m+1) + r, the constant shared by V and the decay slope."""
    return M * math.log(2) + r * (r + 1) / 2 * math.log(m + 1) + r
