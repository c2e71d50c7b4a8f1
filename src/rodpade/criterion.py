"""Heights and places of Q, the linear-independence criterion, and bound audits.

All absolute values and height arguments are kept as exact rationals for as
long as possible; logarithms are taken once, at the end, through a big-integer
safe routine with relative error well below 1e-15.  Inequality audits compare
exact rationals and use floats only for reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .exact import (
    Record,
    as_fraction,
    format_rational,
    log_fraction,
    log_int as _log_int,
    over_common_denominator,
)
from . import mpl as mpl_mod

if TYPE_CHECKING:
    from .transform import MomentSeq, PadeCell, PadeTable

__all__ = [
    "Place",
    "BadBetaError",
    "DegenerateAlphasError",
    "abs_v",
    "local_height",
    "local_height_vec",
    "global_height",
    "global_height_vec",
    "HeightProfile",
    "height_profile",
    "lcm_upto",
    "log_lcm_upto",
    "VResult",
    "V_value",
    "CriterionReport",
    "evaluate_criterion",
    "AuditRow",
    "AuditReport",
    "bounds_audit",
    "DecayReport",
    "remainder_decay",
]


class BadBetaError(ValueError):
    """|beta|_v does not exceed the local height of the alphas."""


class DegenerateAlphasError(ValueError):
    """The alphas are not pairwise distinct and nonzero."""


# --------------------------------------------------------------------------
# places and exact absolute values


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
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip().lower()
        if text in ("inf", "infty", "oo"):
            return cls(None)
        if text.startswith("p"):
            text = text[1:]
        return cls(int(text))

    def __str__(self):
        return "inf" if self.p is None else f"p{self.p}"


#: the first 13 primes; as Miller-Rabin bases they decide primality of every
#: n below _MR_LIMIT (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
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


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i, flag in enumerate(sieve) if flag]


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


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation; raises on x = 0."""
    x = as_fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


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


def abs_v(x: Fraction, place: Place) -> Fraction:
    """Normalized absolute value, exact: |p|_p = 1/p, usual value at infinity."""
    x = as_fraction(x)
    return Fraction(*_int_norm_v((x.numerator,), x.denominator, place))


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; for small inputs only.

    Its one caller is ``height_profile``, which must name every prime of the
    denominator; a denominator with two large prime factors makes it slow.
    """
    n = abs(int(n))
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def local_height(x: Fraction, place: Place) -> float:
    """h_v(x) = log max(1, |x|_v); the intermediate max is exact."""
    return log_fraction(H_v(x, place))


def local_height_vec(xs: Sequence[Fraction], place: Place) -> float:
    return log_fraction(H_v_vec(xs, place))


def H_v(x: Fraction, place: Place) -> Fraction:
    return max(Fraction(1), abs_v(x, place))


def H_v_vec(xs: Sequence[Fraction], place: Place) -> Fraction:
    return max([Fraction(1)] + [abs_v(x, place) for x in xs])


def global_height(x: Fraction) -> float:
    """h(x) = log max(|num|, |den|) for x in lowest terms."""
    x = as_fraction(x)
    if x == 0:
        return 0.0
    return _log_int(max(abs(x.numerator), x.denominator))


def _global_H_vec(xs: Sequence[Fraction]) -> Fraction:
    """prod_v max(1, |x_1|_v, ..) = max(1, |x_i|) * lcm(denominators).

    At a prime p the factor is p^(max_i v_p(den x_i)), so the finite places
    together contribute exactly the lcm of the denominators.
    """
    xs = [as_fraction(x) for x in xs]
    return max([Fraction(1)] + [abs(x) for x in xs]) * math.lcm(*(x.denominator for x in xs))


def global_height_vec(xs: Sequence[Fraction]) -> float:
    return log_fraction(_global_H_vec(xs))


class HeightProfile(Record):
    """Local heights of one rational across every place that contributes."""

    __slots__ = ("value", "locals", "total")

    def __init__(self, value: Fraction, locals: dict[str, float], total: float):
        super().__init__(value, locals, total)

    def to_json(self) -> dict:
        return {
            "value": format_rational(self.value),
            "locals": {k: _round15(v) for k, v in self.locals.items()},
            "total": _round15(self.total),
        }


def height_profile(x: Fraction) -> HeightProfile:
    """All nonzero local heights; their sum equals log max(|num|, |den|)."""
    x = as_fraction(x)
    locs: dict[str, float] = {}
    h_inf = local_height(x, Place.archimedean())
    if h_inf != 0.0:
        locs["inf"] = h_inf
    if x != 0:
        for p in sorted(_factorize(x.denominator)):
            locs[f"p{p}"] = local_height(x, Place.finite(p))
    return HeightProfile(value=x, locals=locs, total=global_height(x))


# --------------------------------------------------------------------------
# lcm(1..n)


def _ilog(p: int, n: int) -> int:
    """Largest e with p^e <= n."""
    e, acc = 0, 1
    while acc * p <= n:
        acc *= p
        e += 1
    return e


def lcm_upto(n: int) -> int:
    """Exact lcm(1..n), as the product of maximal prime powers <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    parts = [p ** _ilog(p, n) for p in _primes_upto(n)]
    if not parts:
        return 1
    while len(parts) > 1:
        parts = [a * b for a, b in zip(parts[::2], parts[1::2])] + (
            [parts[-1]] if len(parts) % 2 else []
        )
    return parts[0]


def log_lcm_upto(n: int) -> float:
    return _log_int(lcm_upto(n))


# --------------------------------------------------------------------------
# the quantity V and the criterion report


def _check_alphas(alphas: Sequence[Fraction], m: int, r: int) -> tuple[Fraction, ...]:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    alphas = tuple(as_fraction(a) for a in alphas)
    if len(alphas) != m:
        raise DegenerateAlphasError(f"expected {m} alphas, got {len(alphas)}")
    if any(a == 0 for a in alphas) or len(set(alphas)) != len(alphas):
        raise DegenerateAlphasError("alphas must be pairwise distinct and nonzero")
    return alphas


class VResult(Record):
    __slots__ = ("value", "error_bound", "indeterminate", "terms")

    def __init__(
        self, value: float, error_bound: float, indeterminate: bool, terms: dict[str, float] | None = None
    ):
        super().__init__(value, error_bound, indeterminate, {} if terms is None else terms)

    def to_json(self) -> dict:
        return {
            "value": _round15(self.value),
            "error_bound": _round15(self.error_bound),
            "indeterminate": self.indeterminate,
            "terms": {k: _round15(v) for k, v in self.terms.items()},
        }


def _bound_constant(m: int, r: int, M: int) -> float:
    """M log2 + r(r+1)/2 log(m+1) + r, the constant shared by V and the decay slope."""
    return M * math.log(2) + r * (r + 1) / 2 * math.log(m + 1) + r


def V_value(
    alphas: Sequence[Fraction], beta: Fraction, m: int, r: int, v0: Place
) -> VResult:
    """The criterion quantity

    V = (M+1) h_v0(beta) - h_v0(alpha)
        - M (h(beta) + (1/m) sum_i h(alpha_i) + h(alpha))
        - (M log2 + r(r+1)/2 log(m+1) + r + rM)

    with M = (m+1)^r - 1.  |V| below 1e-9 is reported as indeterminate, since
    a strict inequality is being decided.
    """
    alphas = _check_alphas(alphas, m, r)
    beta = as_fraction(beta)
    M = (m + 1) ** r - 1
    h_v0_beta = local_height(beta, v0)
    h_v0_alpha = local_height_vec(alphas, v0)
    h_beta = global_height(beta)
    h_alpha_each = [global_height(a) for a in alphas]
    h_alpha_vec = global_height_vec(alphas)
    constant = _bound_constant(m, r, M) + r * M
    value = (
        (M + 1) * h_v0_beta
        - h_v0_alpha
        - M * (h_beta + sum(h_alpha_each) / m + h_alpha_vec)
        - constant
    )
    magnitude = (
        (M + 1) * abs(h_v0_beta)
        + abs(h_v0_alpha)
        + M * (abs(h_beta) + sum(map(abs, h_alpha_each)) / m + abs(h_alpha_vec))
        + constant
    )
    err = magnitude * 1e-14 + 1e-15
    return VResult(
        value=value,
        error_bound=err,
        indeterminate=abs(value) < max(1e-9, err),
        terms={
            "h_v0_beta": h_v0_beta,
            "h_v0_alpha": h_v0_alpha,
            "h_beta": h_beta,
            "h_alpha_vec": h_alpha_vec,
            "sum_h_alpha_i": sum(h_alpha_each),
            "constant": constant,
        },
    )


class CriterionReport(Record):
    __slots__ = (
        "m", "r", "alphas", "beta", "place", "V", "beta_exceeds_height", "V_positive", "conclusion", "products"
    )

    def __init__(
        self,
        m: int,
        r: int,
        alphas: tuple[Fraction, ...],
        beta: Fraction,
        place: Place,
        V: VResult,
        beta_exceeds_height: bool,
        V_positive: str,  # "pass" | "fail" | "indeterminate"
        conclusion: list[str],
        products: list[str],
    ):
        super().__init__(m, r, alphas, beta, place, V, beta_exceeds_height, V_positive, conclusion, products)

    @property
    def passed(self) -> bool:
        return self.beta_exceeds_height and self.V_positive == "pass"

    def to_json(self) -> dict:
        return {
            "config": {
                "m": self.m,
                "r": self.r,
                "alphas": [format_rational(a) for a in self.alphas],
                "beta": format_rational(self.beta),
                "place": str(self.place),
            },
            "V": self.V.to_json(),
            "hypothesis_checks": {
                "abs_beta_gt_local_height_alpha": self.beta_exceeds_height,
                "V_positive": self.V_positive,
            },
            "conclusion": list(self.conclusion),
            "products": list(self.products),
        }


def evaluate_criterion(
    alphas: Sequence[Fraction],
    beta: Fraction,
    m: int,
    r: int,
    v0: Place,
    include_products: bool = False,
) -> CriterionReport:
    """Hypothesis checks and, when both pass decisively, the independence list.

    The precondition |beta|_v0 > H_v0(alpha) is decided exactly; positivity of
    V is decided in floating point with an indeterminate band.  The conclusion
    lists the M evaluated series declared, together with 1, linearly
    independent over Q; product labels are added on request.
    """
    alphas = _check_alphas(alphas, m, r)
    beta = as_fraction(beta)
    v = V_value(alphas, beta, m, r, v0)
    exceeds = abs_v(beta, v0) > H_v_vec(alphas, v0)
    if v.indeterminate:
        v_state = "indeterminate"
    else:
        v_state = "pass" if v.value > 0 else "fail"
    conclusion: list[str] = []
    products: list[str] = []
    if exceeds and v_state == "pass":
        config = mpl_mod.MplConfig(m=m, r=r, alphas=alphas)
        indices = mpl_mod.index_set(m, r)
        conclusion = [idx.value_label(config, beta) for idx in indices]
        if include_products:
            seen = set()
            for idx in indices:
                factors = sorted(
                    f"Li_{s}({format_rational(config.alpha(a) / beta)})"
                    for s, a in zip(idx.s, idx.a)
                )
                label = "*".join(factors)
                if label not in seen:
                    seen.add(label)
                    products.append(label)
    return CriterionReport(
        m=m,
        r=r,
        alphas=alphas,
        beta=beta,
        place=v0,
        V=v,
        beta_exceeds_height=exceeds,
        V_positive=v_state,
        conclusion=conclusion,
        products=products,
    )


# --------------------------------------------------------------------------
# bound audits


def _horner_at(nums: Sequence[int], den: int, x: Fraction) -> tuple[int, int]:
    """P(x) for P = nums / den as (numerator, denominator), by one integer Horner pass.

    With x = b / c and D = deg P, P(x) = sum_i a_i b^i c^(D-i) / (den c^D):
    each step is acc <- acc b + a_i c^(D-i), and no Fraction is formed.
    """
    if not nums:
        return 0, den
    b, c = x.numerator, x.denominator
    acc, c_pow = nums[-1], 1
    for a in reversed(nums[:-1]):
        c_pow *= c
        acc = acc * b + a * c_pow
    return acc, den * c_pow


def _round15(x: float | None) -> float | None:
    if x is None:
        return None
    if math.isinf(x) or math.isnan(x):
        return None
    return float(f"{x:.15g}")


class AuditRow(Record):
    """One proven inequality, compared exactly on the norm scale."""

    __slots__ = ("name", "measured", "bound")

    def __init__(self, name: str, measured: Fraction, bound: Fraction):
        super().__init__(name, measured, bound)

    @property
    def holds(self) -> bool:
        """measured <= bound, by integer cross-multiplication (denominators are positive)."""
        a, b = self.measured, self.bound
        return a.numerator * b.denominator <= b.numerator * a.denominator

    @property
    def measured_log(self) -> float:
        return log_fraction(self.measured) if self.measured.numerator else -math.inf

    @property
    def bound_log(self) -> float:
        return log_fraction(self.bound) if self.bound.numerator else -math.inf

    @property
    def slack(self) -> float:
        return self.bound_log - self.measured_log

    def to_json(self) -> dict:
        measured, bound = self.measured_log, self.bound_log
        return {
            "name": self.name,
            "measured": _round15(measured),
            "bound": _round15(bound),
            "slack": _round15(bound - measured),
            "holds": self.holds,
        }


class AuditReport(Record):
    __slots__ = ("config", "n", "place", "rows")

    def __init__(self, config: "mpl_mod.MplConfig", n: int, place: Place, rows: list[AuditRow]):
        super().__init__(config, n, place, rows)

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.rows)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "n": self.n,
            "place": str(self.place),
            "rows": [row.to_json() for row in self.rows],
            "all_hold": self.all_hold,
        }


def bounds_audit(
    config: "mpl_mod.MplConfig",
    table: PadeTable,
    place: Place,
    beta: Fraction | None = None,
) -> AuditReport:
    """Measure every proven norm inequality on a built table: all must hold.

    Covers the derivative/product/moment norm bounds, the full chained bound
    on the column polynomials, the Q bound per cell, and (when beta is given)
    the evaluation bound log|P(beta)|_v <= eps log(deg+1) + log||P||_v +
    deg * h_v(beta).  The weight is ``table.n`` and the rows are ``table.seqs``;
    the stages of columns 0 and M are those of ``transform.rodrigues_chain``.

    Every value is an integer pair (numerator, denominator).  The measured
    norms are ``_int_norm_v`` of the chain's own pairs and the table's column
    and Q pairs, or of their values at beta (``_horner_at``); phi(t^n P_l) is
    the k = n entry of the cell's run.  H_v(alpha_i), H_v(alpha) and H_v(beta)
    are pairs too, so each bound is a product of integers over a product of
    integers.  A Fraction is formed only for each row's two values.
    """
    from .transform import rodrigues_chain

    n, seqs = table.n, table.seqs
    eps = place.epsilon
    m, r, M = config.m, config.r, config.M
    rows: list[AuditRow] = []

    def add(name: str, measured: tuple[int, int], bound: tuple[int, int]) -> None:
        rows.append(AuditRow(name, Fraction(*measured), Fraction(*bound)))

    def height(nums: Sequence[int], den: int) -> tuple[int, int]:
        """max(1, max_i |nums[i] / den|_v)."""
        num, den = _int_norm_v(nums, den, place)
        return (num, den) if num > den else (1, 1)

    h_alphas = [height((a.numerator,), a.denominator) for a in config.alphas]
    ha_num, ha_den = height(*over_common_denominator(config.alphas))
    hb_num, hb_den = height((beta.numerator,), beta.denominator) if beta is not None else (1, 1)

    def moment_bound(k: int, norm: tuple[int, int]) -> tuple[int, int]:
        """k^((r+1) eps) |lcm(1..k)^r|_v^(eps-1) H_v(alpha)^k times ``norm``."""
        lcm_part = place.p ** (r * _ilog(place.p, k)) if place.is_finite else 1
        return k ** ((r + 1) * eps) * lcm_part * ha_num**k * norm[0], ha_den**k * norm[1]

    stages = mpl_mod.rodrigues_stages(config, n)
    # per stage: ||prod_i (z - alpha_i)^N||_v, its bound, and prod_i H_v(alpha_i)^N
    stage_norms = []
    for N, b in stages:
        hp_num, hp_den = math.prod(h**N for h, _ in h_alphas), math.prod(d**N for _, d in h_alphas)
        bound_prod = (N + 1) ** (m * eps) * 2 ** (m * N * eps) * hp_num, hp_den
        stage_norms.append((_int_norm_v(*b, place), bound_prod, (hp_num, hp_den)))
    # the table's column pairs: their norms, values at beta and moment bounds read them
    columns = [cell.column for cell in table.cells]
    column_norms = [_int_norm_v(*pair, place) for pair in columns]
    for ell in (0, M):
        # the chained column bound is the product of the step factors: the
        # input degree of each step is ell plus m N of every earlier stage
        deg_in, norm_in, chain = ell, (1, 1), (1, 1)
        for (N, shift, lifted), (measured_prod, bound_prod, (hp_num, hp_den)) in zip(
            rodrigues_chain(stages, ell), stage_norms
        ):
            add(f"prod_norm[l={ell},N={N}]", measured_prod, bound_prod)
            # derivative-of-shift norm bound, applied to the previous stage times prod;
            # the chain's leading coefficients are nonzero, so deg = len - 1
            measured = _int_norm_v(*lifted, place)
            shift_num, shift_den = _int_norm_v(*shift, place)
            bound_der = math.comb(N + len(shift[0]) - 1, N) ** eps * shift_num, shift_den
            add(f"derivative_norm[l={ell},N={N}]", measured, bound_der)
            # one operator application: (1/N!) D^N z^N prod_i (z - alpha_i)^N
            # applied to the previous stage is the lifted polynomial above;
            # the step factor is step / hp_den
            step = (
                (m * N + deg_in + 1) ** ((m + 1) * eps)
                * (2 ** (m * N) * math.comb((m + 1) * N + deg_in, N)) ** eps
                * hp_num
            )
            add(
                f"operator_step_norm[l={ell},N={N}]",
                measured,
                (step * norm_in[0], hp_den * norm_in[1]),
            )
            chain = chain[0] * step, chain[1] * hp_den
            deg_in += m * N
            norm_in = measured
        add(f"column_norm[l={ell}]", column_norms[ell], chain)
        if beta is not None:
            degp = len(columns[ell][0]) - 1
            value, den = _horner_at(*columns[ell], beta)
            norm_num, norm_den = column_norms[ell]
            bound_eval = (degp + 1) ** eps * norm_num * hb_num**degp, norm_den * hb_den**degp
            add(f"column_eval[l={ell}]", _int_norm_v((value,), den, place), bound_eval)

    # moment bounds per row, on monomials and on the first remainder coefficient
    for f in seqs:
        for j in (0, 1, n, n + 3):
            x = f[j]
            measured = _int_norm_v((x.numerator,), x.denominator, place)
            add(f"moment[{f.label},j={j}]", measured, moment_bound(j + 1, (1, 1)))
        for ell in (0, M):
            degp = len(columns[ell][0]) - 1
            run, scale = table.cells[ell].heads[f.label]
            measured = _int_norm_v((run[n],), scale, place)  # |phi(t^n P_l)|_v
            bound = moment_bound(degp + n + 1, column_norms[ell])
            add(f"moment_of_tP[{f.label},l={ell}]", measured, bound)

    # Q-polynomial bounds per cell
    for cell, (nums, _), normp in zip(table.cells, columns, column_norms):
        bound_q = moment_bound(len(nums), normp)  # k = deg P + 1
        for label, q_pair in cell.q_pairs.items():
            normq = _int_norm_v(*q_pair, place)
            add(f"q_norm[{label},l={cell.ell}]", normq, bound_q)
            if beta is not None:
                degq = max(len(q_pair[0]) - 1, 0)
                value, den = _horner_at(*q_pair, beta)
                bound_eval = (degq + 1) ** eps * normq[0] * hb_num**degq, normq[1] * hb_den**degq
                add(f"q_eval[{label},l={cell.ell}]", _int_norm_v((value,), den, place), bound_eval)

    return AuditReport(config=config, n=n, place=place, rows=rows)


# --------------------------------------------------------------------------
# remainder decay


class DecayReport(Record):
    __slots__ = ("ns", "log_remainder", "slope", "bound_coefficient", "slack", "ok")

    def __init__(
        self,
        ns: list[int],
        log_remainder: list[float],
        slope: float,
        bound_coefficient: float,
        slack: float,
        ok: bool,
    ):
        super().__init__(ns, log_remainder, slope, bound_coefficient, slack, ok)

    def to_json(self) -> dict:
        return {
            "ns": list(self.ns),
            "log_remainder": [_round15(v) for v in self.log_remainder],
            "slope": _round15(self.slope),
            "bound_coefficient": _round15(self.bound_coefficient),
            "slack": self.slack,
            "ok": self.ok,
        }


def _remainder_sum(
    f: MomentSeq,
    cell: PadeCell,
    normp: Fraction,
    beta: Fraction,
    place: Place,
    r: int,
    H_alpha: Fraction,
) -> tuple[Fraction, int]:
    """Certified partial sum of sum_{k>=n} phi(t^k P) beta^-(k+1), and its last index.

    P is the column of ``cell``, n its weight, and f the row the cell was
    built from.  Archimedean: stop once the geometric majorant of the
    unsummed mass is at most 1e-3 of the partial sum.  Finite: stop once
    every future term is p-adically smaller than the partial sum, which then
    IS the value (strong triangle).

    After the term of index K the majorant is (s+1)^e H^(s+1) ||P||_v /
    |beta|_v^(K+2) with s = K + deg P + 2 (e = r at a prime, r + 1 at
    infinity), and the ratio of consecutive majorants is
    (H / |beta|_v) ((s+2)/(s+1))^e.  ``normp`` is ||P||_v, which the caller
    takes once per column.

    The sum runs on integers.  With P = nums / d, beta = b / c and
    phi(t^k P) = t_k / (L d), the partial sum through K is A / (L d b^(K+1))
    with A = sum_k t_k c^(k+1) b^(K-k): one multiply-add A <- A b + t_K c^(K+1)
    per term.  t_n is the cell's run value, over the table's L; each later
    t_k is one dot product on the row's integer window (``MomentSeq.ints``),
    read in steps of doubling length (8 to 1024 terms), and A is brought
    over the window's L, which the table's divides, whenever it grows.  The
    majorant is (s+1)^e X / Y with X and Y each multiplied by one integer per
    term, and both stopping tests are compared by cross-multiplication.  A
    Fraction is formed only for the value returned, which equals the
    term-by-term Fraction sum exactly.
    """
    nums, den = cell.column
    n, width = cell.n, len(nums)
    abs_beta = abs_v(beta, place)
    if abs_beta <= H_alpha:
        raise BadBetaError(f"|beta|_{place} = {abs_beta} <= H_v(alpha) = {H_alpha}")
    e = r if place.is_finite else r + 1
    b, c = beta.numerator, beta.denominator
    # the ratio is q ((s+2)/(s+1))^e with q = H / |beta|_v = q_num / q_den
    q_num = H_alpha.numerator * abs_beta.denominator
    q_den = H_alpha.denominator * abs_beta.numerator
    s = n + width + 1
    x = H_alpha.numerator ** (s + 1) * normp.numerator * abs_beta.denominator ** (n + 2)
    y = H_alpha.denominator ** (s + 1) * normp.denominator * abs_beta.numerator ** (n + 2)
    run, scale = cell.heads[f.label]
    k, c_pow, b_pow = n, c ** (n + 1), b ** (n + 1)  # c^(k+1), b^(k+1)
    acc, lcm, ws, step = run[n] * c_pow, scale // den, (), 8
    if place.is_finite:
        p_v = place.p
        v_b, v_den = _int_valuation(b, p_v), _int_valuation(scale, p_v)
    while True:
        shrink = (s + 1) ** e
        ratio_num, ratio_den = q_num * (s + 2) ** e, q_den * shrink
        if acc and ratio_num < ratio_den:
            majorant = shrink * x  # over y
            if place.is_finite:
                # |partial|_p = p^E with E = v_p(L d b^(k+1)) - v_p(A)
                E = v_den + (k + 1) * v_b - _int_valuation(acc, p_v)
                certified = majorant < y * p_v**E if E >= 0 else majorant * p_v**-E < y
            else:
                # 1000 majorant / (1 - ratio) <= |partial| = |A| / (L d |b|^(k+1))
                lhs = 1000 * majorant * ratio_den * lcm * den * abs(b_pow)
                certified = lhs <= abs(acc) * y * (ratio_den - ratio_num)
            if certified:
                return Fraction(acc, lcm * den * b_pow), k
        if k - n >= 200000:
            raise RuntimeError("remainder summation did not certify")
        x *= q_num
        y *= q_den
        s += 1
        k += 1
        c_pow *= c
        b_pow *= b
        if k + width > len(ws):
            ws, grown = f.ints(k + step - 1 + width)
            acc, lcm, step = acc * (grown // lcm), grown, min(2 * step, 1024)
            if place.is_finite:
                v_den = _int_valuation(lcm * den, p_v)
        acc = acc * b + sum(a * w for a, w in zip(nums, ws[k : k + width])) * c_pow


def remainder_decay(
    config: "mpl_mod.MplConfig",
    beta: Fraction,
    v0: Place,
    tables: Mapping[int, PadeTable],
) -> DecayReport:
    """Per-n decay of the largest remainder at beta, against the proven slope.

    ``tables`` maps each weight n to its built table (``mpl.pade_tables``),
    and each weight's rows are that table's own moment sequences, warm from
    its build.  Each sum starts from the cell's run value phi(t^n P_l) and
    reads on from its row's integer window (``_remainder_sum``).  The fitted
    slope must not exceed
    -h_v(beta) + (M/m) sum_i h_v(alpha_i) + (M+1) h_v(alpha)
    + eps_v (M log2 + r(r+1)/2 log(m+1) + r), plus slack 0.1.
    """
    beta = as_fraction(beta)
    H_alpha = H_v_vec(config.alphas, v0)
    if abs_v(beta, v0) <= H_alpha:
        raise BadBetaError("|beta|_v must exceed the local height of the alphas")
    ns = sorted(tables)
    if len(ns) < 2:
        raise ValueError("need at least two weights to fit a slope")
    m, r, M = config.m, config.r, config.M
    logs = []
    for n in ns:
        table = tables[n]
        best = -math.inf
        norms = [Fraction(*_int_norm_v(*cell.column, v0)) for cell in table.cells]
        for f in table.seqs:
            for cell, normp in zip(table.cells, norms):
                partial, _ = _remainder_sum(f, cell, normp, beta, v0, r, H_alpha)
                best = max(best, log_fraction(abs_v(partial, v0)))
        logs.append(best)
    mean_n = sum(ns) / len(ns)
    mean_y = sum(logs) / len(logs)
    slope = sum((x - mean_n) * (y - mean_y) for x, y in zip(ns, logs)) / sum(
        (x - mean_n) ** 2 for x in ns
    )
    coeff = (
        -local_height(beta, v0)
        + (M / m) * sum(local_height(a, v0) for a in config.alphas)
        + (M + 1) * local_height_vec(config.alphas, v0)
        + v0.epsilon * _bound_constant(m, r, M)
    )
    return DecayReport(
        ns=ns,
        log_remainder=logs,
        slope=slope,
        bound_coefficient=coeff,
        slack=0.1,
        ok=slope <= coeff + 0.1,
    )
