"""The linear-independence criterion: the quantity V and the verdict.

V is built from local and global heights (:mod:`rodpade.heights`); its
terms are floats, each a logarithm of an exact rational.  The hypothesis
|beta|_v0 > H_v0(alpha) is decided exactly; positivity of V in floating
point, with an indeterminate band.  ``run`` is the ``criterion``
subcommand: it builds no table, so it loads neither ``transform`` nor the
audits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import Record, as_fraction, format_rational, parse_rational, parse_rationals
from .heights import (
    H_v_vec,
    Place,
    _bound_constant,
    _round15,
    abs_v,
    global_height,
    global_height_vec,
    local_height,
    local_height_vec,
)
from .mpl import DegenerateAlphasError, MplConfig, index_set

__all__ = [
    "DegenerateAlphasError",
    "VResult",
    "V_value",
    "CriterionReport",
    "evaluate_criterion",
    "run",
]


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


def V_value(
    alphas: Sequence[Fraction], beta: Fraction, m: int, r: int, v0: Place
) -> VResult:
    """The criterion quantity

    V = (M+1) h_v0(beta) - h_v0(alpha)
        - M (h(beta) + (1/m) sum_i h(alpha_i) + h(alpha))
        - (M log2 + r(r+1)/2 log(m+1) + r + rM)

    with M = (m+1)^r - 1.  |V| below 1e-9 is reported as indeterminate, since
    a strict inequality is being decided.  (m, r, alphas) are checked by
    ``MplConfig``.
    """
    config = MplConfig(m, r, alphas)
    alphas, M = config.alphas, config.M
    beta = as_fraction(beta)
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
    config = MplConfig(m, r, alphas)
    alphas = config.alphas
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
        indices = index_set(m, r)
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


def run(args) -> tuple[dict, int]:
    """The ``criterion`` subcommand: (payload, exit code) for parsed flags ``args``."""
    from .cli import EXIT_CRITERION, EXIT_OK

    if args.beta is None:
        raise ValueError("criterion needs --beta (flag or config document)")
    place = Place.parse(args.place)
    report = evaluate_criterion(
        parse_rationals(args.alphas),
        parse_rational(args.beta),
        args.m,
        args.r,
        place,
        include_products=args.products,
    )
    return {"command": "criterion", **report.to_json()}, EXIT_OK if report.passed else EXIT_CRITERION
