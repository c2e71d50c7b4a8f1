"""Audits of the proven bounds: norm inequalities on a built table, remainder decay, lcm growth.

Every value is an integer pair (numerator, denominator > 0) and every
inequality is compared exactly on pairs, by cross-multiplication; no
``Fraction`` is formed.  Floats appear only in the reported logarithms, each
``heights._log_pair`` of a pair in lowest terms, and in the fitted decay
slope.  ``run``, the ``audit`` subcommand, decides the beta hypothesis once,
keeps the heights as integer pairs and walks the weights once: one norm per
column serves the weight's ``bounds_audit`` rows, each a (name, measured,
bound) triple of integer pairs that ``_row_json`` writes, and, given beta
and two weights or more, its point log|R_n(beta)|_v of the decay, the
largest log of the norms of the ``_remainder_sum`` pairs.  Q_(j,l) and
phi_j(t^k P_l) are the table's numerators over L_j d_l.
It builds tables through ``mpl.pade_tables``, computes no determinant, and
with ``--lcm`` builds no table, so it loads neither ``mpl`` nor ``transform``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exact import (
    format_rational,
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
    beta_hypothesis,
)

if TYPE_CHECKING:
    from .mpl import MplConfig
    from .transform import PadeTable

__all__ = [
    "lcm_upto",
    "bounds_audit",
    "run",
]


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


def _row_json(name: str, measured: tuple[int, int], bound: tuple[int, int]) -> dict:
    """The JSON of one audit row: measured <= bound by cross-multiplication, and their logs.

    Both sides are nonnegative integer pairs (numerator, denominator > 0).
    Each log is ``_log_pair`` of its side, which reduces the pair first; a
    zero side logs as -inf, which the JSON writes as null.
    """
    logs = [_log_pair(side) if side[0] else -math.inf for side in (measured, bound)]
    return {
        "name": name,
        "measured": _round15(logs[0]),
        "bound": _round15(logs[1]),
        "slack": _round15(logs[1] - logs[0]),
        "holds": measured[0] * bound[1] <= bound[0] * measured[1],
    }


def bounds_audit(
    config: MplConfig,
    table: PadeTable,
    place: Place,
    *,
    column_norms: list[tuple[int, int]],
    H_alphas: list[tuple[int, int]],
    H_alpha: tuple[int, int],
    beta: Fraction | None = None,
    H_beta: tuple[int, int] | None = None,
) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
    """The rows (name, measured, bound) of every proven norm inequality on a built table: all must hold.

    Covers the derivative/product/moment norm bounds, the full chained bound
    on the column polynomials, the Q bound per (row, column), and (when beta is given)
    the evaluation bound log|P(beta)|_v <= eps log(deg+1) + log||P||_v +
    deg * h_v(beta).  The weight is ``table.n`` and the rows are ``table.seqs``;
    the stages of columns 0 and M are those of ``transform.rodrigues_chain``.

    Every value is an integer pair (numerator, denominator).  The measured
    norms are ``_int_norm_v`` of the chain's own pairs and the table's Q
    pairs, or of values at beta (``_horner_at``, in ``add_eval``); phi_j(t^n P_l) is
    ``table.runs[j][l][n]``.  The caller takes the column norms ||P_l||_v
    and the heights H_v(alpha_i), H_v(alpha) and H_v(beta) once, as pairs,
    so each bound is a product of integers over a product of integers.  A
    row keeps both sides as these pairs; ``run`` writes it with ``_row_json``.
    """
    from .mpl import rodrigues_stages
    from .transform import rodrigues_chain

    n, seqs = table.n, table.seqs
    eps = place.epsilon
    m, r, M = config.m, config.r, config.M
    rows: list[tuple[str, tuple[int, int], tuple[int, int]]] = []

    def add(name: str, measured: tuple[int, int], bound: tuple[int, int]) -> None:
        rows.append((name, measured, bound))

    ha_num, ha_den = H_alpha

    def moment_bound(k: int, norm: tuple[int, int]) -> tuple[int, int]:
        """k^((r+1) eps) |lcm(1..k)^r|_v^(eps-1) H_v(alpha)^k times ``norm``."""
        lcm_part = place.p ** (r * _ilog(place.p, k)) if place.is_finite else 1
        return k ** ((r + 1) * eps) * lcm_part * ha_num**k * norm[0], ha_den**k * norm[1]

    def add_eval(name: str, pair: tuple[Sequence[int], int], norm: tuple[int, int]) -> None:
        """The row |P(beta)|_v <= (deg+1)^eps ||P||_v H_v(beta)^deg, P = ``pair``, ||P||_v = ``norm``."""
        (hb_num, hb_den), deg = H_beta, max(len(pair[0]) - 1, 0)
        value, den = _horner_at(*pair, beta)
        bound = (deg + 1) ** eps * norm[0] * hb_num**deg, norm[1] * hb_den**deg
        add(name, _int_norm_v((value,), den, place), bound)

    stages = rodrigues_stages(config, n)
    # per stage: ||prod_i (z - alpha_i)^N||_v, its bound, and prod_i H_v(alpha_i)^N
    stage_norms = []
    for N, b in stages:
        hp_num, hp_den = math.prod(h**N for h, _ in H_alphas), math.prod(d**N for _, d in H_alphas)
        bound_prod = (N + 1) ** (m * eps) * 2 ** (m * N * eps) * hp_num, hp_den
        stage_norms.append((_int_norm_v(*b, place), bound_prod, (hp_num, hp_den)))
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
            add_eval(f"column_eval[l={ell}]", table.columns[ell], column_norms[ell])

    # moment bounds per row, on monomials and on the first remainder coefficient
    for f, lcm, runs in zip(seqs, table.scales, table.runs):
        for j in dict.fromkeys((0, 1, n, n + 3)):  # at n = 1, j = 1 and j = n are one row
            x = f[j]
            measured = _int_norm_v((x.numerator,), x.denominator, place)
            add(f"moment[{f.label},j={j}]", measured, moment_bound(j + 1, (1, 1)))
        for ell in (0, M):
            col_nums, col_den = table.columns[ell]
            measured = _int_norm_v((runs[ell][n],), lcm * col_den, place)  # |phi(t^n P_l)|_v
            bound = moment_bound(len(col_nums) + n, column_norms[ell])  # k = deg P + n + 1
            add(f"moment_of_tP[{f.label},l={ell}]", measured, bound)

    # Q-polynomial bounds per column and row
    for ell, ((col_nums, col_den), normp) in enumerate(zip(table.columns, column_norms)):
        bound_q = moment_bound(len(col_nums), normp)  # k = deg P + 1
        for f, lcm, qs in zip(seqs, table.scales, table.qs):
            q_pair = qs[ell], lcm * col_den
            normq = _int_norm_v(*q_pair, place)
            add(f"q_norm[{f.label},l={ell}]", normq, bound_q)
            if beta is not None:
                add_eval(f"q_eval[{f.label},l={ell}]", q_pair, normq)

    return rows


# --------------------------------------------------------------------------
# remainder decay


#: what the fitted decay slope may exceed the proven coefficient by
_DECAY_SLACK = 0.1
#: the terms a remainder sum may add past its first before it gives up, at infinity
_REMAINDER_TERMS = 200000
#: the same at a prime, where each term gains a valuation: a zero remainder never certifies
#: there, and the longest sum of the edge jobs, 80 audit benchmark jobs and the tests is 28 terms
_P_ADIC_TERMS = 1000


def _remainder_sum(
    table: PadeTable,
    j: int,
    ell: int,
    normp: tuple[int, int],
    beta: Fraction,
    place: Place,
    r: int,
    H_alpha: tuple[int, int],
    abs_beta: tuple[int, int],
) -> tuple[tuple[int, int], int]:
    """Certified partial sum of sum_{k>=n} phi(t^k P) beta^-(k+1), as an integer pair, and its last index.

    P = P_l is column ``ell`` of the weight-n ``table`` and phi that of its
    row f = f_j.  Archimedean: stop once the geometric majorant of the
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
    per term.  t_n is ``table.runs[j][ell][n]``, over L_j d; each later
    t_k is one dot product on the row's integer window (``MomentSeq.ints``),
    read in steps of doubling length (8 to 1024 terms), and A is brought
    over the window's L, which L_j divides, whenever it grows.  The
    majorant is (s+1)^e X / Y with X and Y each multiplied by one integer per
    term, and both stopping tests are compared by cross-multiplication.  The
    value returned is the pair (A, L d b^(K+1)), not reduced, with the sign of
    b^(K+1) moved onto the numerator so that the denominator is positive; it
    equals the term-by-term Fraction sum exactly.  A sum not certified within
    ``_REMAINDER_TERMS`` terms past the first (``_P_ADIC_TERMS`` at a prime)
    raises ValueError.
    """
    f, (nums, den) = table.seqs[j], table.columns[ell]
    n, width = table.n, len(nums)
    (h_num, h_den), (ab_num, ab_den) = H_alpha, abs_beta
    e = r if place.is_finite else r + 1
    b, c = beta.numerator, beta.denominator
    # the ratio is q ((s+2)/(s+1))^e with q = H / |beta|_v = q_num / q_den
    q_num, q_den = h_num * ab_den, h_den * ab_num
    s = n + width + 1
    x = h_num ** (s + 1) * normp[0] * ab_den ** (n + 2)
    y = h_den ** (s + 1) * normp[1] * ab_num ** (n + 2)
    k, c_pow, b_pow = n, c ** (n + 1), b ** (n + 1)  # c^(k+1), b^(k+1)
    acc, lcm, ws, step = table.runs[j][ell][n] * c_pow, table.scales[j], (), 8
    cap = _REMAINDER_TERMS
    if place.is_finite:
        p_v, cap = place.p, _P_ADIC_TERMS
        v_b, v_den = _int_valuation(b, p_v), _int_valuation(lcm * den, p_v)
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
                den_k = lcm * den * b_pow
                return ((acc, den_k) if den_k > 0 else (-acc, -den_k)), k
        if k - n >= cap:
            raise ValueError("remainder summation did not certify")
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


def run(args) -> tuple[dict, bool]:
    """The ``audit`` subcommand: (payload, whether every bound holds) for parsed flags ``args``.

    With ``--lcm`` it checks the growth of log lcm(1..n) / n; otherwise it
    audits the table of each weight of ``--n`` and, given ``--beta`` and two
    weights or more, the remainder decay, in one pass over the weights.
    """
    if args.lcm is None and (args.m is None or args.n is None):
        raise ValueError("audit needs --lcm, or --m/--alphas/--n")
    if args.lcm is not None:
        n = args.lcm
        ratio = log_int(lcm_upto(n)) / n
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
    if beta is None:
        H_beta, H_alpha = None, _int_height_v(*over_common_denominator(config.alphas), place)
    else:
        exceeds, H_beta, H_alpha = beta_hypothesis(config.alphas, beta, place)
        if not exceeds:
            raise ValueError("|beta|_v must exceed the local height of the alphas")
    H_alphas = [_int_height_v((a.numerator,), a.denominator, place) for a in config.alphas]
    ns = parse_n_range(args.n)
    tables = pade_tables(config, ns)
    with_decay = beta is not None and len(ns) >= 2
    reports, logs = [], []
    for n in ns:
        table = tables[n]
        norms = [_int_norm_v(*column, place) for column in table.columns]
        rows = [
            _row_json(*row)
            for row in bounds_audit(
                config, table, place,
                column_norms=norms, H_alphas=H_alphas, H_alpha=H_alpha, beta=beta, H_beta=H_beta,
            )
        ]
        reports.append({
            "config": config.to_json(),
            "n": n,
            "place": str(place),
            "rows": rows,
            "all_hold": all(row["holds"] for row in rows),
        })
        if with_decay:
            # |beta|_v = H_v(beta), since it exceeds H_v(alpha) >= 1
            sums = (
                _remainder_sum(table, j, ell, normp, beta, place, config.r, H_alpha, H_beta)[0]
                for j in range(len(table.seqs))
                for ell, normp in enumerate(norms)
            )
            logs.append(max(_log_pair(_int_norm_v((num,), den, place)) for num, den in sums))
    decay = None
    if with_decay:
        # the least-squares slope of the logs must not exceed -h_v(beta) + (M/m) sum_i h_v(alpha_i)
        # + (M+1) h_v(alpha) + eps_v (M log2 + r(r+1)/2 log(m+1) + r), plus _DECAY_SLACK, with
        # each h_v the log of a height pair above; ok is decided on the unrounded slope
        m, M = config.m, config.M
        mean_n, mean_y = sum(ns) / len(ns), sum(logs) / len(logs)
        slope = sum((x - mean_n) * (y - mean_y) for x, y in zip(ns, logs)) / sum(
            (x - mean_n) ** 2 for x in ns
        )
        coeff = (
            -_log_pair(H_beta)
            + (M / m) * sum(_log_pair(h) for h in H_alphas)
            + (M + 1) * _log_pair(H_alpha)
            + place.epsilon * _bound_constant(m, config.r, M)
        )
        decay = {
            "ns": ns,
            "log_remainder": [_round15(v) for v in logs],
            "slope": _round15(slope),
            "bound_coefficient": _round15(coeff),
            "slack": _DECAY_SLACK,
            "ok": slope <= coeff + _DECAY_SLACK,
        }
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
