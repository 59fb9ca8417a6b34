"""Integer truncations of the field graphs, with no modular reduction.

Restricting every coordinate to an explicit integer box makes the defining
equations hold over the plain integers, so the resulting bipartite graph
embeds into the field graph for any prime larger than every coordinate and
inherits its cycle structure.  The boxes follow fixed fractional-power
bounds evaluated exactly: closed ranges with floored upper ends (and ceiled
lower ends where a lower bound exists).  Each family's boxes, equations and
prime window come from the family table in :mod:`girthforge.families`.

Edge generation walks the free coordinate and substitutes; a brute force
pass over all point/line pairs cross-checks the result whenever the
instance is small enough, which covers every desk-scale run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from .algebraic import BudgetExceededError, FieldParams, field_edge
from .exactmath import is_prime, next_prime, prime_in_window
from .families import family_named, lu_equation_plan, substitute
from .graphs import BipartiteGraph

__all__ = [
    "TruncationSpec",
    "LUTruncationSpec",
    "WengerTruncationSpec",
    "TruncatedArrangement",
    "lu_edge_free",
    "wenger_edge_free",
    "build_truncated",
    "max_coordinate",
    "embedding_prime",
    "verify_subgraph_embedding",
    "DEFAULT_BOX_BUDGET",
    "DEFAULT_CROSS_CHECK_LIMIT",
]

DEFAULT_BOX_BUDGET = 1_000_000
# Pair count below which build_truncated always re-derives the edge set by
# brute force; both n=64 reference instances fall under it.
DEFAULT_CROSS_CHECK_LIMIT = 400_000


@dataclass(frozen=True)
class TruncationSpec:
    """Size parameters of a truncation: a family name, its k, and the scale n >= 1."""

    family: str
    k: int
    n: int

    def __post_init__(self):
        family_named(self.family).check_k(self.k)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def exponent_step(self) -> Fraction:
        """The family's exponent unit at k; coordinate bounds are multiples of it."""
        return family_named(self.family).exponent_step(self.k)

    def point_ranges(self) -> list[tuple[int, int]]:
        """Closed [lo, hi] range of each point coordinate."""
        return family_named(self.family).point_ranges(self.k, self.n)

    def line_ranges(self) -> list[tuple[int, int]]:
        """Closed [lo, hi] range of each line-parameter coordinate."""
        return family_named(self.family).line_ranges(self.k, self.n)


LUTruncationSpec = partial(TruncationSpec, "lu")
WengerTruncationSpec = partial(TruncationSpec, "wenger")


def lu_edge_free(u, v, k: int) -> bool:
    """The layered equations over the plain integers (no modulus)."""
    for t, (uses_v1, src) in enumerate(lu_equation_plan(k), start=1):
        rhs = v[0] * u[src] if uses_v1 else u[0] * v[src]
        if v[t] - u[t] != rhs:
            return False
    return True


def wenger_edge_free(u, v, k: int) -> bool:
    """The relations v_j = u_j + u_{j+1} * v_{k-1} over the plain integers."""
    last = v[k - 1]
    return all(v[j] == u[j] + u[j + 1] * last for j in range(k - 1))


@dataclass(frozen=True)
class TruncatedArrangement:
    """Integer points, integer line parameters, and their incidence pairs.

    points and line_params are full coordinate boxes in lexicographic order;
    edges is the sorted tuple of (point index, line index) pairs satisfying
    the no-modulus equations.
    """

    family: str
    k: int
    n: int
    points: tuple[tuple[int, ...], ...]
    line_params: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    _edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_edge_set", frozenset(self.edges))

    @property
    def spec(self) -> TruncationSpec:
        return TruncationSpec(self.family, self.k, self.n)

    @property
    def edge_set(self) -> frozenset:
        return self._edge_set

    def to_bipartite_graph(self) -> BipartiteGraph:
        """The incidence graph: points on the left, line parameters on the right."""
        return BipartiteGraph(len(self.points), len(self.line_params), self.edges)


def _box_size(ranges) -> int:
    size = 1
    for lo, hi in ranges:
        size *= max(0, hi - lo + 1)
    return size


def _walk(plan, fixed, partners, partner_ranges, from_point: bool) -> list[tuple[int, int]]:
    """(fixed index, partner index) of every partner that lands inside its box.

    Each fixed vertex (a point when from_point, else a line vertex) is
    substituted once, then its partners are read off for every value of the
    free coordinate in the partner box.
    """
    free = plan[0]
    free_lo, free_hi = partner_ranges[free]
    index = {w: j for j, w in enumerate(partners)}
    edges = []
    for i, w in enumerate(fixed):
        const, slope = substitute(plan, w, from_point)
        for x in range(free_lo, free_hi + 1):
            partner = tuple(c + s * x for c, s in zip(const, slope))
            if all(lo <= c <= hi for c, (lo, hi) in zip(partner, partner_ranges)):
                edges.append((i, index[partner]))
    return edges


# The written-out equations that the brute-force pass checks the walk against.
_EDGE_ORACLES = {"lu": lu_edge_free, "wenger": wenger_edge_free}


def build_truncated(
    spec: TruncationSpec,
    box_budget: int = DEFAULT_BOX_BUDGET,
    cross_check_limit: int = DEFAULT_CROSS_CHECK_LIMIT,
) -> TruncatedArrangement:
    """Materialize the boxes and the no-modulus edge set for a truncation spec.

    Edges come from walking the free coordinate of the family's plan from
    every vertex of one side (the side with fewer candidates) and
    substituting the remaining coordinates over the integers, keeping a
    candidate only when it lands inside the partner box.  When
    |points| * |lines| <= cross_check_limit the edge set is re-derived by
    evaluating the written-out equations on every pair and the two must
    agree.

    Raises BudgetExceededError when either box exceeds box_budget, and
    ValueError when a line box is empty (impossible for n >= 1, kept as a
    guard).
    """
    point_ranges = spec.point_ranges()
    line_ranges = spec.line_ranges()
    n_points = _box_size(point_ranges)
    n_lines = _box_size(line_ranges)
    if n_points > box_budget or n_lines > box_budget:
        raise BudgetExceededError(
            f"box sizes {n_points} x {n_lines} exceed the budget of {box_budget}"
        )
    if n_lines == 0 or n_points == 0:
        warnings.warn(
            f"degenerate truncation at n={spec.n}: an empty coordinate box",
            stacklevel=2,
        )
        raise ValueError(f"empty coordinate box for spec {spec}")

    points = tuple(product(*(range(lo, hi + 1) for lo, hi in point_ranges)))
    line_params = tuple(product(*(range(lo, hi + 1) for lo, hi in line_ranges)))
    # Walk from the side with fewer (vertex, free value) candidates.
    plan = family_named(spec.family).plan(spec.k)
    (p_lo, p_hi), (l_lo, l_hi) = point_ranges[plan[0]], line_ranges[plan[0]]
    if n_points * (l_hi - l_lo + 1) <= n_lines * (p_hi - p_lo + 1):
        edges = _walk(plan, points, line_params, line_ranges, from_point=True)
    else:
        edges = [(pi, lj) for lj, pi in _walk(plan, line_params, points, point_ranges, from_point=False)]
    edges = tuple(sorted(edges))

    if n_points * n_lines <= cross_check_limit:
        predicate = _EDGE_ORACLES[spec.family]
        brute = tuple(
            sorted(
                (pi, lj)
                for pi, u in enumerate(points)
                for lj, v in enumerate(line_params)
                if predicate(u, v, spec.k)
            )
        )
        if brute != edges:
            raise AssertionError(
                "substitution edge set disagrees with the brute-force predicate"
            )
    return TruncatedArrangement(spec.family, spec.k, spec.n, points, line_params, edges)


def max_coordinate(spec: TruncationSpec) -> int:
    """Largest coordinate value occurring anywhere in the two boxes."""
    return max(hi for _, hi in spec.point_ranges() + spec.line_ranges())


def embedding_prime(spec: TruncationSpec, mode: str = "minimal") -> int:
    """A prime modulus under which the truncation is a legal residue structure.

    'minimal' returns the smallest prime exceeding every coordinate, which
    is all the subgraph property needs at desk scale.  'paper_window'
    searches the family's much larger window, (4 n**(8/k), 8 n**(8/k)) for
    the layered family and (2**(2k) n**(2/k), 2**(2k+1) n**(2/k)) for the
    positional one, with both ends evaluated exactly.
    """
    if mode == "minimal":
        return next_prime(max(1, max_coordinate(spec)))
    if mode == "paper_window":
        lo, hi = family_named(spec.family).prime_window(spec.k, spec.n)
        p = prime_in_window(lo, hi)
        if p is None:
            raise ValueError(f"no prime in the window ({lo}, {hi})")
        return p
    raise ValueError(f"unknown mode {mode!r}; use 'minimal' or 'paper_window'")


def verify_subgraph_embedding(arr: TruncatedArrangement, q: int) -> bool:
    """Whether reducing mod prime q embeds the truncation into the field graph.

    True iff every coordinate lies in [0, q) and every stored edge satisfies
    the parent graph's modular equations.  Integer equality already implies
    every congruence, so a failure can only come from an out-of-range
    coordinate; the edge predicates are still re-run rather than trusted.
    """
    if not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")
    for tup in arr.points + arr.line_params:
        for c in tup:
            if not 0 <= c < q:
                return False
    params = FieldParams(arr.family, arr.k, q)
    return all(field_edge(arr.points[pi], arr.line_params[lj], params) for pi, lj in arr.edges)
