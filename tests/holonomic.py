"""Linear recurrences satisfied by the moments of tails mapped to polynomials.

Writing L = sum_j (-1)^j a_j(z) D^j with a_j = sum_i a_{i,j} z^i, a tail
f = sum f_k z^-(k+1) satisfies L . f in Q[z] exactly when

    sum_{i-j = delta, k+delta >= 0} a_{i,j} (k+delta+1)...(k+delta+j) f_{k+delta} = 0

for every k >= 0.  Grouping by the shift delta = i-j gives one coefficient
polynomial per shift; the clamp on the inner summation index is exactly the
rule "drop every term whose target index k+delta would be negative".
The tests' oracle of the moment rows' recurrences: the program never
solves one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from algebra import DiffOp, Poly, ZeroOperatorError, ord_weight, property_P, rising_factorial_poly

from rodpade.exact import Record
from rodpade.transform import MomentSeq


class PropertyPFailureError(Exception):
    """The leading recurrence coefficient vanishes at some nonnegative integer."""


class RecurrenceSystem(Record):
    """The recurrence sum_delta c_delta(k) x_{k+delta} = 0 (k >= 0).

    ``shifts[delta]`` is the coefficient polynomial c_delta in the variable k;
    terms with k + delta < 0 are dropped, which reproduces the boundary
    truncation of the defining computation.  ``d`` is the weight order of the
    source operator; c_d is the leading coefficient.
    """

    __slots__ = ("d", "shifts")

    def __init__(self, d: int, shifts: dict[int, Poly]):
        super().__init__(d, shifts)

    @property
    def lead(self) -> Poly:
        return self.shifts.get(self.d, Poly.zero())

    def residual(self, x: MomentSeq, k: int) -> Fraction:
        """Value of the k-th recurrence equation on the sequence x."""
        acc = Fraction(0)
        for delta, c in self.shifts.items():
            if k + delta < 0:
                continue
            acc += c(k) * x[k + delta]
        return acc


def recurrence_coeffs(l: DiffOp) -> RecurrenceSystem:
    """Extract the recurrence system of a nonzero operator."""
    if l.is_zero:
        raise ZeroOperatorError("no recurrence for the zero operator")
    d = ord_weight(l)
    shifts: dict[int, Poly] = {}
    for j in range(len(l.terms)):
        a_j = l.alternating_coeff(j)
        for i, a_ij in enumerate(a_j.coeffs):
            if a_ij == 0:
                continue
            delta = i - j
            term = rising_factorial_poly(delta + 1, j) * a_ij
            shifts[delta] = shifts.get(delta, Poly.zero()) + term
    shifts = {delta: c for delta, c in shifts.items() if not c.is_zero}
    return RecurrenceSystem(d=d, shifts=shifts)


def solve_V1(l: DiffOp, init: Sequence[Fraction], depth: int, label: str | None = None) -> MomentSeq:
    """The unique solution with the given d initial moments, memoized.

    Requires the leading-symbol nonvanishing (otherwise some division would
    hit a zero); the denominators are the values of the leading recurrence
    coefficient c_d(k).
    """
    d = ord_weight(l)
    init = [Fraction(v) for v in init]
    if len(init) != d:
        raise ValueError(f"need exactly d = {d} initial moments, got {len(init)}")
    pp = property_P(l)
    if not pp.holds:
        raise PropertyPFailureError(f"leading symbol vanishes at k = {pp.first_root}")
    system = recurrence_coeffs(l)
    lead = system.lead

    def fn(k: int, prefix: Sequence[Fraction]) -> Fraction:
        if k < d:
            return init[k]
        # equation index k-d determines x_k
        kk = k - d
        den = lead(kk)
        if den == 0:
            raise PropertyPFailureError(f"leading coefficient vanishes at k = {kk}")
        acc = Fraction(0)
        for delta, c in system.shifts.items():
            if delta == system.d or kk + delta < 0:
                continue
            acc += c(kk) * prefix[kk + delta]
        return -acc / den

    if label is None:
        label = "V1[" + ",".join(str(v) for v in init) + "]"
    seq = MomentSeq(fn, label)
    if depth > 0:
        seq[depth - 1]
    return seq


def check_membership(l: DiffOp, f: MomentSeq, depth: int) -> bool:
    """True iff the recurrence residual of f vanishes for k = 0..depth-1."""
    system = recurrence_coeffs(l)
    return all(system.residual(f, k) == 0 for k in range(depth))
