"""The linear-independence criterion: the quantity V and the verdict.

V is built from local and global heights (:mod:`rodpade.heights`); its
terms are floats, each the logarithm of an exact integer or integer pair.
The hypothesis |beta|_v0 > H_v0(alpha) is decided exactly
(``heights.beta_hypothesis``); positivity of V in floating point, with an
indeterminate band.  ``_V`` returns V's JSON (its value, error band and
terms), the state of V > 0 and the hypothesis verdict;
``evaluate_criterion`` returns the JSON payload and whether the criterion
holds.  ``run`` is the
``criterion`` subcommand: it builds no table, so it loads neither
``transform`` nor the audits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import as_fraction, format_rational, parse_rational, parse_rationals
from .heights import H_v_vec, abs_v  # unused here: the benchmark's self-tests read them from this module
from .heights import Place, _bound_constant, _log_pair, _round15, beta_hypothesis, global_height_vec
from .mpl import MplConfig, MplIndex, index_set

__all__ = [
    "evaluate_criterion",
    "run",
]


def _V(config: MplConfig, beta: Fraction, v0: Place) -> tuple[dict, str, bool]:
    """The criterion quantity on a checked config: (V's JSON, V's state, whether |beta|_v0 > H_v0(alpha)).

    V = (M+1) h_v0(beta) - h_v0(alpha)
        - M (h(beta) + (1/m) sum_i h(alpha_i) + h(alpha))
        - (M log2 + r(r+1)/2 log(m+1) + r + rM)

    with M = (m+1)^r - 1.  The JSON holds V, its error band and its terms,
    each rounded to 15 significant digits.  The state is "pass" for V > 0 and
    "fail" for V < 0, decided on the unrounded value, and "indeterminate"
    when |V| is below 1e-9 or the band, since a strict inequality is being
    decided.
    """
    m, r, alphas, M = config.m, config.r, config.alphas, config.M
    exceeds, H_beta, H_alpha = beta_hypothesis(alphas, beta, v0)
    h_v0_beta = _log_pair(H_beta)
    h_v0_alpha = _log_pair(H_alpha)
    h_beta = global_height_vec((beta,))
    h_alpha_each = [global_height_vec((a,)) for a in alphas]
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
    indeterminate = abs(value) < max(1e-9, err)
    terms = {
        "h_v0_beta": h_v0_beta,
        "h_v0_alpha": h_v0_alpha,
        "h_beta": h_beta,
        "h_alpha_vec": h_alpha_vec,
        "sum_h_alpha_i": sum(h_alpha_each),
        "constant": constant,
    }
    payload = {
        "value": _round15(value),
        "error_bound": _round15(err),
        "indeterminate": indeterminate,
        "terms": {k: _round15(v) for k, v in terms.items()},
    }
    return payload, "indeterminate" if indeterminate else "pass" if value > 0 else "fail", exceeds


def evaluate_criterion(
    alphas: Sequence[Fraction],
    beta: Fraction,
    m: int,
    r: int,
    v0: Place,
    include_products: bool = False,
) -> tuple[dict, bool]:
    """(payload, whether both hypotheses pass decisively): the checks and the independence list.

    |beta|_v0 > H_v0(alpha) is decided exactly, and V > 0 in floating point
    with an indeterminate band: ``V_positive`` is "pass", "fail" or
    "indeterminate".  When both pass, the conclusion lists the M evaluated
    series declared, together with 1, linearly independent over Q; product
    labels are added on request.
    """
    config = MplConfig(m, r, alphas)
    beta = as_fraction(beta)
    v, v_state, exceeds = _V(config, beta, v0)
    passed = exceeds and v_state == "pass"
    conclusion: list[str] = []
    products: list[str] = []
    if passed:
        indices = index_set(m, r)
        conclusion = [idx.label(config, beta) for idx in indices]
        if include_products:
            labels = (
                "*".join(sorted(MplIndex((s,), (a,)).label(config, beta) for s, a in zip(idx.s, idx.a)))
                for idx in indices
            )
            products = list(dict.fromkeys(labels))  # each label once, in first-seen order
    return {
        "config": {**config.to_json(), "beta": format_rational(beta), "place": str(v0)},
        "V": v,
        "hypothesis_checks": {"abs_beta_gt_local_height_alpha": exceeds, "V_positive": v_state},
        "conclusion": conclusion,
        "products": products,
    }, passed


def run(args) -> tuple[dict, bool]:
    """The ``criterion`` subcommand: (payload, whether the criterion holds) for parsed flags ``args``."""
    if args.m is None:
        raise ValueError("criterion needs --m (flag or config document)")
    if args.beta is None:
        raise ValueError("criterion needs --beta (flag or config document)")
    place = Place.parse(args.place)
    payload, passed = evaluate_criterion(
        parse_rationals(args.alphas),
        parse_rational(args.beta),
        args.m,
        args.r,
        place,
        include_products=args.products,
    )
    return {"command": "criterion", **payload}, passed
