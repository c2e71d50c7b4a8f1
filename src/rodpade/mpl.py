"""Pade-type tables for multiple polylogarithms at ratio-chained arguments.

For pairwise distinct nonzero alpha_1..alpha_m and a depth budget r, the
row family consists of the series

    f_{s,a}(z) = Li_s(a_1/a_2, ..., a_{k-1}/a_k, a_k/z),

one per index (s, a) with |s| <= r, giving M = (m+1)^r - 1 rows.  The columns
are P_l = R_n* . t^l for the composed Rodrigues operator
R_n = L_{(m+1)^(r-1) n} ... L_{(m+1) n} L_n with
L_N = (1/N!) z^N prod_i (z - alpha_i)^N D^N.  They are computed by the
Rodrigues chain: the adjoint factors
(-1)^N (1/N!) D^N z^N prod_i (z - alpha_i)^N are applied to t^l one after
another, largest N first, in integer arithmetic
(``transform.rodrigues_chain``).  Each cell of a built table carries its
run of functional values phi_j(t^k P_l), k <= n (``transform.build_table``);
verification, the bound audit and the determinants
(``determinant.table_determinants``: Delta as Delta(0) by the degree lemma,
theta from the k = n values) all read it.  R_n itself, as an operator,
is ``weyl.rodrigues_operator`` on the sizes of ``rodrigues_stages``; this
module never builds it, so building a table never loads the operator
algebra.  Nor does importing this module load ``transform``: ``criterion``
reads ``MplConfig`` and ``index_set`` without building a table, and the
functions that build one import what they use from ``transform``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exact import Record, as_fraction, format_rational

if TYPE_CHECKING:
    from .transform import MomentSeq, PadeTable

__all__ = [
    "DegenerateAlphasError",
    "MplConfig",
    "MplIndex",
    "index_set",
    "mpl_moment_oracle",
    "moment_seqs",
    "rodrigues_stages",
    "pade_table",
    "pade_tables",
]


class DegenerateAlphasError(ValueError):
    """The alphas are not m in number, pairwise distinct and nonzero."""


class MplConfig(Record):
    """Parameters (m, r, alphas) with alphas pairwise distinct and nonzero: their one check."""

    __slots__ = ("m", "r", "alphas")

    def __init__(self, m: int, r: int, alphas: Sequence[Fraction]):
        super().__init__(m, r, tuple(as_fraction(a) for a in alphas))
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")
        if len(self.alphas) != self.m:
            raise DegenerateAlphasError(f"expected {self.m} alphas, got {len(self.alphas)}")
        if any(a == 0 for a in self.alphas):
            raise DegenerateAlphasError("alphas must be nonzero")
        if len(set(self.alphas)) != self.m:
            raise DegenerateAlphasError("alphas must be pairwise distinct")

    @property
    def M(self) -> int:
        return (self.m + 1) ** self.r - 1

    def alpha(self, i: int) -> Fraction:
        """1-based access matching the index notation."""
        return self.alphas[i - 1]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "alphas": [format_rational(a) for a in self.alphas],
        }


class MplIndex(Record):
    """A composition s with |s| <= r and a tuple of 1-based alpha indices.

    Indices are ordered by (s, a).
    """

    __slots__ = ("s", "a")

    def __init__(self, s: tuple[int, ...], a: tuple[int, ...]):
        super().__init__(s, a)
        if len(self.s) != len(self.a) or not self.s:
            raise ValueError("s and a must be nonempty of equal length")
        if any(si < 1 for si in self.s) or any(ai < 1 for ai in self.a):
            raise ValueError("entries must be positive")

    def __lt__(self, other):
        return self._key() < other._key() if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._key() <= other._key() if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self._key() > other._key() if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self._key() >= other._key() if other.__class__ is self.__class__ else NotImplemented

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def weight(self) -> int:
        return sum(self.s)

    def args(self, config: MplConfig) -> list[str]:
        """Ratio-chained argument strings, last one symbolic in z."""
        out = []
        for t in range(self.depth - 1):
            out.append(format_rational(config.alpha(self.a[t]) / config.alpha(self.a[t + 1])))
        out.append(f"{format_rational(config.alpha(self.a[-1]))}/z")
        return out

    def label(self, config: MplConfig) -> str:
        return "Li_" + ",".join(map(str, self.s)) + "(" + ",".join(self.args(config)) + ")"

    def value_label(self, config: MplConfig, beta: Fraction) -> str:
        """Label with z evaluated at beta (exact ratios)."""
        args = self.args(config)[:-1]
        args.append(format_rational(config.alpha(self.a[-1]) / as_fraction(beta)))
        return "Li_" + ",".join(map(str, self.s)) + "(" + ",".join(args) + ")"


def index_set(m: int, r: int) -> list[MplIndex]:
    """All indices, ordered by depth, then s, then a; (m+1)^r - 1 of them for m, r >= 1.

    A depth-k composition s with |s| <= r is its partial sums
    0 < c_1 < ... < c_k <= r, and two compositions first differ where their
    partial sums first differ, in the same direction, so the k-subsets of
    1..r in lexicographic order give the compositions in lexicographic order.
    """
    out = []
    for k in range(1, r + 1):
        for cuts in itertools.combinations(range(1, r + 1), k):
            s = tuple(c - b for b, c in zip((0,) + cuts, cuts))
            for a in itertools.product(range(1, m + 1), repeat=k):
                out.append(MplIndex(s=s, a=a))
    return out


def mpl_moment_oracle(idx: MplIndex, j: int, config: MplConfig) -> Fraction:
    """Brute-force route: expand the defining multiple sum term by term.

    Enumerates every chain 0 < n_1 < ... < n_k = j+1 and multiplies out the
    actual ratio arguments, sharing no code with the telescoped route.
    """
    k = idx.depth
    ratios = [config.alpha(idx.a[t]) / config.alpha(idx.a[t + 1]) for t in range(k - 1)]
    last_alpha = config.alpha(idx.a[-1])
    total = Fraction(0)
    nk = j + 1
    for chain in itertools.combinations(range(1, nk), k - 1):
        term = last_alpha**nk / Fraction(nk) ** idx.s[-1]
        for t, n_t in enumerate(chain):
            term *= ratios[t] ** n_t
            term /= Fraction(n_t) ** idx.s[t]
        total += term
    return total


def __getattr__(name: str):
    """``MomentSeq``, read from ``transform`` when first asked for.

    ``_row`` takes the class through this module, so one set on it (as the
    benchmark's tracer sets a timed subclass) is the one the rows use.
    """
    if name == "MomentSeq":
        from .transform import MomentSeq

        return MomentSeq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _row(config: MplConfig, idx: MplIndex, parent: MomentSeq | None) -> MomentSeq:
    """Row (s, a) on its parent, the row with (s_k, a_k) dropped (None at depth 1).

    Moment j is S(j+1) / (j+1)^{s_k} for the inner nested sum S, with S(1) =
    alpha_{a_k} at depth 1, else 0, and S(v+1) = alpha_{a_k} (S(v) + parent[v-1]).
    S lives in the generator, which ``MomentSeq`` calls once per index, in order.
    """
    from .mpl import MomentSeq  # through the module: see ``__getattr__``

    alpha, s_k = config.alpha(idx.a[-1]), idx.s[-1]
    running = alpha if parent is None else Fraction(0)  # S(j+1) for the next j

    def fn(j, _prefix):
        nonlocal running
        value = running / (j + 1) ** s_k
        running = alpha * (running + (parent[j] if parent is not None else 0))
        return value

    return MomentSeq(fn, label=idx.label(config))


def moment_seqs(config: MplConfig) -> list[MomentSeq]:
    """Every row on its parent row: ``index_set`` is sorted by depth."""
    rows: dict[MplIndex, MomentSeq] = {}
    for idx in index_set(config.m, config.r):
        parent = rows[MplIndex(s=idx.s[:-1], a=idx.a[:-1])] if idx.depth > 1 else None
        rows[idx] = _row(config, idx, parent)
    return list(rows.values())


def rodrigues_stages(config: MplConfig, n: int) -> list[tuple[int, tuple[list[int], int]]]:
    """(N, prod_i (z - alpha_i)^N) for N = (m+1)^(r-1) n, ..., (m+1) n, n.

    This is the order in which the adjoint factors of R_n act on t^l.
    """
    from .transform import rodrigues_factor

    if n < 1:
        raise ValueError("n must be positive")
    sizes = [(config.m + 1) ** j * n for j in range(config.r - 1, -1, -1)]
    return [(N, rodrigues_factor(N, config.alphas)) for N in sizes]


def pade_tables(config: MplConfig, ns: Sequence[int]) -> dict[int, PadeTable]:
    """Columns l = 0..M by the Rodrigues chain, rows from one family for all of ``ns``.

    Moment caches only grow and never change a value, so sharing changes none.
    """
    from .transform import build_table, rodrigues_columns

    seqs = moment_seqs(config)
    return {
        n: build_table(rodrigues_columns(rodrigues_stages(config, n), config.M + 1), seqs, n)
        for n in ns
    }


def pade_table(config: MplConfig, n: int) -> PadeTable:
    """The weight-n table: ``pade_tables`` for one weight."""
    return pade_tables(config, (n,))[n]
