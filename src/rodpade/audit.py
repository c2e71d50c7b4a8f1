"""Audits of the proven bounds: norm inequalities on a built table, remainder decay, lcm growth.

Every inequality is compared exactly, on integer pairs or rationals;
floats appear only in the reported logarithms and in the fitted decay
slope.  ``bounds_audit`` returns a table's ``AuditRow`` list and
``remainder_decay`` the decay's JSON dict; ``run`` is the ``audit``
subcommand, which writes each weight's report from its rows.  It builds its
tables through ``mpl.pade_tables`` and computes no determinant.  With
``--lcm`` it builds no table, so it loads neither ``mpl`` nor ``transform``.
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
    log_int,
    over_common_denominator,
    parse_n_range,
    parse_rational,
    parse_rationals,
)
from .heights import (
    Place,
    _bound_constant,
    _int_height_v,
    _int_norm_v,
    _int_valuation,
    _log_pair,
    _round15,
    abs_v,
    beta_hypothesis,
    local_height,
)

if TYPE_CHECKING:
    from .mpl import MplConfig
    from .transform import MomentSeq, PadeCell, PadeTable

__all__ = [
    "BadBetaError",
    "lcm_upto",
    "log_lcm_upto",
    "AuditRow",
    "bounds_audit",
    "remainder_decay",
    "run",
]


class BadBetaError(ValueError):
    """|beta|_v does not exceed the local height of the alphas."""


# --------------------------------------------------------------------------
# lcm(1..n)


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i, flag in enumerate(sieve) if flag]


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
    return log_int(lcm_upto(n))


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

    def to_json(self) -> dict:
        measured, bound = self.measured_log, self.bound_log
        return {
            "name": self.name,
            "measured": _round15(measured),
            "bound": _round15(bound),
            "slack": _round15(bound - measured),
            "holds": self.holds,
        }


def bounds_audit(
    config: MplConfig,
    table: PadeTable,
    place: Place,
    beta: Fraction | None = None,
) -> list[AuditRow]:
    """The rows of every proven norm inequality on a built table: all must hold.

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
    from .mpl import rodrigues_stages
    from .transform import rodrigues_chain

    n, seqs = table.n, table.seqs
    eps = place.epsilon
    m, r, M = config.m, config.r, config.M
    rows: list[AuditRow] = []

    def add(name: str, measured: tuple[int, int], bound: tuple[int, int]) -> None:
        rows.append(AuditRow(name, Fraction(*measured), Fraction(*bound)))

    h_alphas = [_int_height_v((a.numerator,), a.denominator, place) for a in config.alphas]
    ha_num, ha_den = _int_height_v(*over_common_denominator(config.alphas), place)
    # H_v(beta) is read only when beta is given
    hb_num, hb_den = (1, 1) if beta is None else _int_height_v((beta.numerator,), beta.denominator, place)

    def moment_bound(k: int, norm: tuple[int, int]) -> tuple[int, int]:
        """k^((r+1) eps) |lcm(1..k)^r|_v^(eps-1) H_v(alpha)^k times ``norm``."""
        lcm_part = place.p ** (r * _ilog(place.p, k)) if place.is_finite else 1
        return k ** ((r + 1) * eps) * lcm_part * ha_num**k * norm[0], ha_den**k * norm[1]

    stages = rodrigues_stages(config, n)
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

    return rows


# --------------------------------------------------------------------------
# remainder decay


#: what the fitted decay slope may exceed the proven coefficient by
_DECAY_SLACK = 0.1


def _remainder_sum(
    f: MomentSeq,
    cell: PadeCell,
    normp: tuple[int, int],
    beta: Fraction,
    place: Place,
    r: int,
    H_alpha: tuple[int, int],
    abs_beta: tuple[int, int],
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
    (H / |beta|_v) ((s+2)/(s+1))^e, H = H_v(alpha).  ``normp``, ``H_alpha`` and
    ``abs_beta`` are ||P||_v, H and |beta|_v > H as integer pairs the caller takes once.

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
    (h_num, h_den), (ab_num, ab_den) = H_alpha, abs_beta
    e = r if place.is_finite else r + 1
    b, c = beta.numerator, beta.denominator
    # the ratio is q ((s+2)/(s+1))^e with q = H / |beta|_v = q_num / q_den
    q_num, q_den = h_num * ab_den, h_den * ab_num
    s = n + width + 1
    x = h_num ** (s + 1) * normp[0] * ab_den ** (n + 2)
    y = h_den ** (s + 1) * normp[1] * ab_num ** (n + 2)
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
    config: MplConfig,
    beta: Fraction,
    v0: Place,
    tables: Mapping[int, PadeTable],
) -> dict:
    """Per-n decay of the largest remainder at beta, against the proven slope, as JSON.

    ``tables`` maps each weight n to its built table (``mpl.pade_tables``),
    and each weight's rows are that table's own moment sequences, warm from
    its build.  Each sum starts from the cell's run value phi(t^n P_l) and
    reads on from its row's integer window (``_remainder_sum``).  The fitted
    slope must not exceed
    -h_v(beta) + (M/m) sum_i h_v(alpha_i) + (M+1) h_v(alpha)
    + eps_v (M log2 + r(r+1)/2 log(m+1) + r), plus ``_DECAY_SLACK``; ``ok``
    is decided on the unrounded slope.
    """
    beta = as_fraction(beta)
    exceeds, H_beta, H_alpha = beta_hypothesis(config.alphas, beta, v0)
    if not exceeds:
        raise BadBetaError("|beta|_v must exceed the local height of the alphas")
    ns = sorted(tables)
    if len(ns) < 2:
        raise ValueError("need at least two weights to fit a slope")
    m, r, M = config.m, config.r, config.M
    logs = []
    for n in ns:
        table = tables[n]
        best = -math.inf
        norms = [_int_norm_v(*cell.column, v0) for cell in table.cells]
        for f in table.seqs:
            for cell, normp in zip(table.cells, norms):
                # |beta|_v = H_v(beta), since it exceeds H_v(alpha) >= 1
                partial, _ = _remainder_sum(f, cell, normp, beta, v0, r, H_alpha, H_beta)
                best = max(best, log_fraction(abs_v(partial, v0)))
        logs.append(best)
    mean_n = sum(ns) / len(ns)
    mean_y = sum(logs) / len(logs)
    slope = sum((x - mean_n) * (y - mean_y) for x, y in zip(ns, logs)) / sum(
        (x - mean_n) ** 2 for x in ns
    )
    coeff = (
        -_log_pair(H_beta)
        + (M / m) * sum(local_height(a, v0) for a in config.alphas)
        + (M + 1) * _log_pair(H_alpha)
        + v0.epsilon * _bound_constant(m, r, M)
    )
    return {
        "ns": ns,
        "log_remainder": [_round15(v) for v in logs],
        "slope": _round15(slope),
        "bound_coefficient": _round15(coeff),
        "slack": _DECAY_SLACK,
        "ok": slope <= coeff + _DECAY_SLACK,
    }


def run(args) -> tuple[dict, bool]:
    """The ``audit`` subcommand: (payload, whether every bound holds) for parsed flags ``args``.

    With ``--lcm`` it checks the growth of log lcm(1..n) / n; otherwise it
    audits the table of each weight of ``--n`` and, given ``--beta`` and two
    weights or more, the remainder decay.
    """
    if args.lcm is None and (args.m is None or args.n is None):
        raise ValueError("audit needs --lcm, or --m/--alphas/--n")
    if args.lcm is not None:
        n = args.lcm
        ratio = log_lcm_upto(n) / n
        ok = 0.95 <= ratio <= 1.05
        payload = {
            "command": "audit",
            "lcm_n": n,
            "growth_ratio": _round15(ratio),
            "window": [0.95, 1.05],
            "ok": ok,
        }
        return payload, ok

    from .mpl import MplConfig, pade_tables

    config = MplConfig(m=args.m, r=args.r, alphas=parse_rationals(args.alphas))
    place = Place.parse(args.place)
    beta = parse_rational(args.beta) if args.beta is not None else None
    if beta is not None and not beta_hypothesis(config.alphas, beta, place)[0]:
        raise BadBetaError("|beta|_v must exceed the local height of the alphas")
    ns = parse_n_range(args.n)
    tables = pade_tables(config, ns)
    reports = []
    for n in ns:
        rows = bounds_audit(config, tables[n], place, beta=beta)
        reports.append({
            "config": config.to_json(),
            "n": n,
            "place": str(place),
            "rows": [row.to_json() for row in rows],
            "all_hold": all(row.holds for row in rows),
        })
    decay = None
    if beta is not None and len(ns) >= 2:
        decay = remainder_decay(config, beta, place, tables)
    all_hold = all(rep["all_hold"] for rep in reports) and (decay is None or decay["ok"])
    payload = {
        "command": "audit",
        "config": config.to_json(),
        "place": str(place),
        "beta": format_rational(beta) if beta is not None else None,
        "reports": reports,
        "decay": decay,
        "all_hold": all_hold,
    }
    return payload, all_hold
