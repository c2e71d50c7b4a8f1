"""Moment functionals of Laurent tails and the Pade-type approximant machinery.

A Laurent tail f = sum_k f_k / z^(k+1) is identified with the linear
functional t^k |-> f_k on Q[t].  Everything downstream (orthogonality,
Q-polynomials, remainder tails, the two determinants) is computed through
this identification, exactly, on integers over common denominators: no
polynomial object is formed.  The columns come from one Rodrigues chain
(``rodrigues_chain``) as integer numerators over one denominator.  Each row
keeps one integer window, its moments over their lcm (``MomentSeq.ints``);
every Q and every value phi_j(t^k P_l), k <= n (``PadeCell.heads``) is an
integer over that lcm times a column's denominator, and verification
(``verify_pade``) and the determinants (:mod:`rodpade.determinant`) read
the integers.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterator, Sequence

from .exact import (
    Record,
    as_fraction,
    falling_derivative,
    format_pair,
    int_convolve,
)

__all__ = [
    "MomentSeq",
    "PadeCell",
    "PadeTable",
    "build_table",
    "rodrigues_factor",
    "rodrigues_lift",
    "rodrigues_chain",
    "rodrigues_columns",
    "RouteDisagreementError",
    "verify_pade",
]


class RouteDisagreementError(Exception):
    """The kernel route and the multiplied-out series route disagreed."""


class MomentSeq:
    """Lazily extended, memoized sequence of exact moments.

    The generator is called as ``fn(k, prefix)`` with ``prefix`` holding
    moments 0..k-1, and is always invoked in increasing order of k, so
    recurrence-driven sequences can be expressed directly.  Extension is
    locked; an already-returned value never changes.

    ``ints`` keeps the row's one integer window: its first moments as
    numerators over L, the lcm of their denominators, grown on demand.
    """

    def __init__(self, fn: Callable[[int, Sequence[Fraction]], Fraction], label: str):
        self._fn = fn
        self.label = label
        self._cache: list[Fraction] = []
        self._ints: tuple[tuple[int, ...], int] = ((), 1)
        self._lock = threading.RLock()  # ints extends the moments under it

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("moment index must be >= 0")
        if k >= len(self._cache):
            with self._lock:
                while len(self._cache) <= k:
                    self._cache.append(as_fraction(self._fn(len(self._cache), self._cache)))
        return self._cache[k]

    def ints(self, stop: int) -> tuple[tuple[int, ...], int]:
        """(nums, L): f_k = nums[k] / L for k < len(nums), L the lcm of their denominators.

        The window holds at least ``stop`` moments.  Growing it converts only
        the new moments; when L grows, the kept numerators are multiplied by
        the quotient once, into a new tuple, so a window handed out earlier
        keeps reading integers over the L it came with.
        """
        with self._lock:
            nums, lcm = self._ints
            if len(nums) < stop:
                self[stop - 1]
                new = self._cache[len(nums) : stop]
                grown = math.lcm(lcm, *(x.denominator for x in new))
                if grown != lcm:
                    nums = tuple(c * (grown // lcm) for c in nums)
                self._ints = nums + tuple(x.numerator * (grown // x.denominator) for x in new), grown
            return self._ints

    def __repr__(self):
        return f"MomentSeq({self.label!r})"


def _dots(nums: Sequence[int], ws: Sequence[int], count: int) -> list[int]:
    """sum_i nums[i] ws[k + i] for k < count: the run phi(t^k P) on the window's integers."""
    width = len(nums)
    return [sum(a * w for a, w in zip(nums, ws[k : k + width])) for k in range(count)]


def _q_nums(nums: Sequence[int], ws: Sequence[int]) -> list[int]:
    """sum_(k > u) nums[k] ws[k-1-u] for u < deg P: Q's numerators, trailing zeros dropped."""
    q = [sum(a * w for a, w in zip(nums[u + 1 :], ws)) for u in range(len(nums) - 1)]
    while q and not q[-1]:
        q.pop()
    return q


def _reduced(pair: tuple) -> tuple:
    """The pair (nums, d), d > 0, divided by the gcd of its integers: one pair per value."""
    nums, d = pair
    g = math.gcd(*nums, d)
    return tuple(c // g for c in nums), d // g


class PadeCell(Record):
    """One column of a weight-n table on integers: P and, per row, Q and a run.

    ``column`` is P as the chain's (numerators, d).  Per row label,
    ``q_pairs`` holds Q (trailing zeros dropped) and ``heads`` the run
    phi_j(t^k P), k = 0..n, the coefficients of z^-(k+1) in P f_j - Q_j, as
    numerators over L d, L the lcm of the row's window (``MomentSeq.ints``)
    when the table was built.  ``heads`` takes no
    part in equality or repr; ``PadeTable.to_json`` writes P and Q as
    reduced rationals.
    Equality compares P and each Q by value, so two tables of the same
    moments are equal whatever their rows' windows had grown to.
    """

    __slots__ = ("n", "ell", "column", "q_pairs", "heads")
    _hidden = ("heads",)

    def __init__(self, n: int, ell: int, column: tuple, q_pairs: dict, heads: dict):
        super().__init__(n, ell, column, q_pairs, heads)

    def _key(self) -> tuple:
        # reduced here only: Delta(0) reads Q's numerators over the stored L d
        q_values = {label: _reduced(pair) for label, pair in self.q_pairs.items()}
        return self.n, self.ell, _reduced(self.column), q_values

    @property
    def degree(self) -> int:
        """deg P, -1 for the zero column."""
        return len(self.column[0]) - 1


class PadeTable(Record):
    """All columns l = 0..M of a weight-n table, rows in a fixed order.

    ``seqs`` are the row moment sequences the table was built from, kept so
    that later blocks of a run reuse them (and their warm moment caches and
    integer windows) instead of rebuilding them.  It takes no part in
    equality, repr or JSON.
    """

    __slots__ = ("n", "M", "row_labels", "cells", "seqs")
    _hidden = ("seqs",)

    def __init__(self, n: int, M: int, row_labels: tuple[str, ...], cells: tuple, seqs: tuple):
        super().__init__(n, M, row_labels, cells, seqs)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "columns": [cell.ell for cell in self.cells],
            "P": [format_pair(*cell.column) for cell in self.cells],
            "rows": [
                {"label": label, "Q": [format_pair(*cell.q_pairs[label]) for cell in self.cells]}
                for label in self.row_labels
            ],
        }


def build_table(
    columns: Sequence[tuple[Sequence[int], int]], seqs: Sequence[MomentSeq], n: int
) -> PadeTable:
    """The weight-n table with P_l = nums_l / d_l: per row, Q and phi(t^k P_l), k <= n.

    Each column is a pair (nums, d) with a nonzero last numerator, as
    ``rodrigues_columns`` yields it.  Each row's integer window
    (``MomentSeq.ints``) is read once, grown to at least f_0..f_(n + deg P_M),
    the moments the runs read; every Q coefficient and every value of a run
    is then one integer dot product, over L d.
    """
    seqs = tuple(seqs)
    columns = [(tuple(nums), den) for nums, den in columns]
    width = max((len(nums) for nums, _ in columns), default=0) + n
    windows = [(f.label, *f.ints(width)) for f in seqs]
    cells = []
    for ell, (nums, den) in enumerate(columns):
        q_pairs, heads = {}, {}
        for label, ws, lcm in windows:
            q_pairs[label] = (tuple(_q_nums(nums, ws)), lcm * den)
            heads[label] = (tuple(_dots(nums, ws, n + 1)), lcm * den)
        cells.append(PadeCell(n, ell, (nums, den), q_pairs, heads))
    return PadeTable(n, len(cells) - 1, tuple(f.label for f in seqs), tuple(cells), seqs)


def rodrigues_factor(N: int, alphas: Sequence[Fraction]) -> tuple[list[int], int]:
    """prod_i (z - alpha_i)^N as integer numerators (ascending) over one denominator.

    With alpha = p/q in lowest terms, (z - alpha)^N = (q z - p)^N / q^N, and
    (q z - p)^N has the integer coefficients C(N, k) q^k (-p)^(N-k), so no
    polynomial power is formed.  Each q z - p is primitive, hence so is the
    product (Gauss's lemma), and the denominator prod_i q_i^N is already
    reduced against the numerators.
    """
    nums, den = [1], 1
    for a in alphas:
        p, q = a.numerator, a.denominator
        # allocated before any loop, so an N past memory or index range fails at once
        factor = [0] * (N + 1)
        power = 1
        for k in range(N, -1, -1):
            factor[k] = power  # (-p)^(N-k)
            power *= -p
        binom, q_k = 1, 1
        for k in range(N + 1):
            factor[k] *= binom * q_k
            binom = binom * (N - k) // (k + 1)
            q_k *= q
        nums = int_convolve(nums, factor)
        den *= q**N
    return nums, den


def rodrigues_lift(nums: Sequence[int], den: int, N: int) -> tuple[list[int], int]:
    """(1/N!) D^N (z^N x) for x = nums/den, reduced by one gcd.

    The coefficient of z^i is x_i C(i+N, N): one pass of the running
    binomial of ``falling_derivative``, so the degree is unchanged.
    """
    out = falling_derivative([0] * N + list(nums), N, 1)
    g = math.gcd(den, *out)
    return [c // g for c in out], den // g


def rodrigues_chain(
    stages: Sequence[tuple[int, tuple[list[int], int]]], ell: int
) -> Iterator[tuple[int, tuple[list[int], int], tuple[list[int], int]]]:
    """The Rodrigues chain on t^l: one (N, b_N x, lifted x) per stage, in order.

    ``stages`` lists (N, b_N) with b_N = prod_i (z - alpha_i)^N as
    ``rodrigues_factor`` gives it, in the order the factors act.  The
    adjoint of L_N = (1/N!) z^N b_N D^N is (-1)^N (1/N!) D^N o z^N b_N, and
    the adjoint of a composition is the reversed composition of adjoints, so
    P_l = R* . t^l is

        (-1)^(sum N) (1/N!) D^N z^N b_N ... (1/N'!) D^N' z^N' b_N' t^l,

    with the first stage (N', b_N') innermost, and the composed operator is
    never formed.  The chain starts from x = (-1)^(sum N) t^l; each stage
    yields the product b_N x and the lift (1/N!) D^N (z^N b_N x) that becomes
    the next x, both as integer numerators over one denominator: one integer
    product, one ``rodrigues_lift`` and one gcd per stage.
    """
    sign = -1 if sum(N for N, _ in stages) % 2 else 1
    nums, den = [0] * ell + [sign], 1
    for N, (b_nums, b_den) in stages:
        shifted = int_convolve(nums, b_nums), den * b_den
        nums, den = rodrigues_lift(*shifted, N)
        yield N, shifted, (nums, den)


def rodrigues_columns(
    stages: Sequence[tuple[int, tuple[list[int], int]]], count: int
) -> list[tuple[list[int], int]]:
    """Columns P_l, l < count: the last lifted pair (nums, d) of each chain."""
    columns = []
    for ell in range(count):
        *_, (_, _, lifted) = rodrigues_chain(stages, ell)
        columns.append(lifted)
    return columns


def _series_coefficients(nums: Sequence[int], ws: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """P f over L d: (coefficients of z^-1..z^-n, of z^0..z^(deg P - 1)), P = nums / d.

    With the window ``ws`` (over L, at least deg P + n moments) cut to
    f_0..f_(deg P + n - 1) and reversed, the coefficient of z^e is entry
    deg P + n + e of one product.
    """
    depth = len(nums) - 1 + n
    product = int_convolve(nums, ws[depth - 1 :: -1])
    return product[depth - n : depth][::-1], product[depth : depth + len(nums) - 1]


def verify_pade(cell: PadeCell, seqs: Sequence[MomentSeq]) -> bool:
    """Check the cell against each row of ``seqs``, by two independent routes.

    Kernel route: phi(t^k P) = 0 for 0 <= k <= n-1, read off ``cell.heads``.
    Series route: one ``int_convolve`` of P with the row's integer window
    (``MomentSeq.ints``, over its L) gives P f over L d
    (``_series_coefficients``): the first n tail coefficients of P f - Q
    must vanish, and the polynomial part must be Q, compared by integer
    cross-multiplication.  The two routes computing the same coefficients
    through different code paths must agree exactly; a mismatch raises
    RouteDisagreementError.
    """
    nums, den = cell.column
    if not nums:
        return False
    ok = True
    for f in seqs:
        label = f.label
        kernel_ok = not any(cell.heads[label][0][: cell.n])
        ws, lcm = f.ints(len(nums) - 1 + cell.n)
        tail, part = _series_coefficients(nums, ws, cell.n)
        series_ok = not any(tail)
        if kernel_ok != series_ok:
            raise RouteDisagreementError(
                f"row {label}: kernel test says {kernel_ok}, series test says {series_ok}"
            )
        q, q_den = cell.q_pairs[label]
        scale = lcm * den
        if not kernel_ok or any(a * q_den != b * scale for a, b in zip_longest(part, q, fillvalue=0)):
            ok = False
    return ok
