"""Integer truncations of the field graphs, with no modular reduction.

Restricting every coordinate to an explicit integer box makes the defining
equations hold over the plain integers, so the resulting bipartite graph
embeds into the field graph for any prime larger than every coordinate and
inherits its cycle structure.  The boxes follow fixed fractional-power
bounds evaluated exactly: closed ranges with floored upper ends (and ceiled
lower ends where a lower bound exists).  Each family's boxes, equations and
prime window come from the family table in :mod:`girthforge.families`.

Edge generation substitutes the walked side once, column by column, then
walks the free coordinate over those columns.  Whenever the
instance is small enough, which covers every desk-scale run, a brute-force
pass cross-checks the result on every point/line pair: line by line, it
filters the whole point box through the family's equations written out by
position, one equation at a time.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product, repeat
from operator import add, mul
from typing import NamedTuple

from .algebraic import BudgetExceededError, check_box_lower_bound
from .exactmath import is_prime, next_prime, prime_in_window
from .families import box_rank, family_named, plan_holds_mod, substitute
from .graphs import BipartiteGraph

__all__ = [
    "TruncationSpec",
    "LUTruncationSpec",
    "WengerTruncationSpec",
    "TruncatedArrangement",
    "lu_points_on",
    "wenger_points_on",
    "build_truncated",
    "embedding_prime",
    "verify_subgraph_embedding",
    "DEFAULT_BOX_BUDGET",
    "DEFAULT_CROSS_CHECK_LIMIT",
]

DEFAULT_BOX_BUDGET = 1_000_000
# Pair count below which build_truncated always re-derives the edge set by
# brute force; both n=64 reference instances fall under it.
DEFAULT_CROSS_CHECK_LIMIT = 400_000


class TruncationSpec(NamedTuple("TruncationSpec", [("family", str), ("k", int), ("n", int)])):
    """Size parameters of a truncation: a family name, its k, and the scale n >= 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, family, k, n):
        family_named(family).check_k(k)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return tuple.__new__(cls, (family, k, n))

    def ranges(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Closed [lo, hi] range of each point coordinate and of each line-parameter coordinate."""
        return family_named(self.family).ranges(self.k, self.n)


LUTruncationSpec = partial(TruncationSpec, "lu")
WengerTruncationSpec = partial(TruncationSpec, "wenger")


def lu_points_on(v, points, k: int) -> list[int]:
    """Indices of the points on line vertex v by the layered equations, by position.

    The equations hold over the plain integers (no modulus) and are written
    out here on their own, apart from the coordinate labels and the plan
    they cross-check.  From position 1 on, the coordinates come in blocks of
    four.  The last two of each block hold v[t] - u[t] = v[0] * u[t-2]; the
    first two hold v[t] - u[t] = u[0] * v[t-2], except that positions 1 and
    2 read v[0] and v[1].  Every point is tested against the equation at
    position 1, and each survivor against the next position in turn.
    """
    hits = range(len(points))
    for t in range(1, k):
        vt = v[t]
        if (t - 1) % 4 >= 2:
            a, s = v[0], t - 2
            hits = [i for i in hits if vt - points[i][t] == a * points[i][s]]
        else:
            c = v[t - 2 if t > 2 else t - 1]
            hits = [i for i in hits if vt - points[i][t] == points[i][0] * c]
    return list(hits)


def wenger_points_on(v, points, k: int) -> list[int]:
    """Indices of the points on line vertex v by the positional relations.

    Point u passes when v_j = u_j + u_{j+1} * v_{k-1} over the plain integers
    for every j; every point is tested at j = 0, each survivor at the next j.
    """
    last = v[k - 1]
    hits = range(len(points))
    for j in range(k - 1):
        vj = v[j]
        hits = [i for i in hits if vj == points[i][j] + points[i][j + 1] * last]
    return list(hits)


class TruncatedArrangement(NamedTuple):
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

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def to_bipartite_graph(self) -> BipartiteGraph:
        """The incidence graph: points on the left, line parameters on the right."""
        return BipartiteGraph(len(self.points), len(self.line_params), self.edges)


def _box_size(ranges) -> int:
    size = 1
    for lo, hi in ranges:
        size *= max(0, hi - lo + 1)
    return size


def _walk(plan, fixed, partner_ranges, from_point: bool) -> list[tuple[int, int]]:
    """(fixed index, partner index) of every partner that lands inside its box.

    The fixed side (points when from_point, else line vertices) is
    substituted once, as whole columns.  Each value x of the free
    coordinate in the partner box then gives the candidate columns
    const + slope * x, and each candidate, read across, is ranked in the
    partner box by box_rank; edges come out ordered by x.
    """
    free_lo, free_hi = partner_ranges[plan[0]]
    const, slope = substitute(plan, list(zip(*fixed)), from_point)
    edges, indices = [], list(range(len(fixed)))  # one int object per index, shared by its edges
    for x in range(free_lo, free_hi + 1):
        columns = [map(add, cs, map(mul, ss, repeat(x))) for cs, ss in zip(const, slope)]
        for i, w in zip(indices, zip(*columns)):
            j = box_rank(w, partner_ranges)
            if j is not None:
                edges.append((i, j))
    return edges


# The written-out equations that the brute-force pass checks the walk against.
_EDGE_ORACLES = {"lu": lu_points_on, "wenger": wenger_points_on}


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
    |points| * |lines| <= cross_check_limit the edge set is re-derived and
    the two must agree: for each line vertex, the family's ``*_points_on``
    filter keeps the points that pass the written-out equations, testing
    every point against the first and each survivor against the next.

    Raises ValueError when box_budget < 1, BudgetExceededError when either
    box exceeds box_budget (checked against the lower bound 2**k before any
    range is evaluated), and ValueError when a line box is empty (impossible
    for n >= 1, kept as a guard).
    """
    if box_budget < 1:
        raise ValueError("budget must be >= 1")
    # Every point coordinate range holds 0 and 1; refuse before evaluating any range.
    check_box_lower_bound("the point box", spec.k, box_budget)
    point_ranges, line_ranges = spec.ranges()
    n_points = _box_size(point_ranges)
    n_lines = _box_size(line_ranges)
    if n_points > box_budget or n_lines > box_budget:
        try:
            sizes = f"box sizes {n_points} x {n_lines}"
        except ValueError:  # more digits than Python prints
            sizes = "the box sizes"
        raise BudgetExceededError(f"{sizes} exceed the budget of {box_budget}")
    if n_lines == 0 or n_points == 0:
        raise ValueError(f"empty coordinate box for spec {spec}")

    points = tuple(product(*(range(lo, hi + 1) for lo, hi in point_ranges)))
    line_params = tuple(product(*(range(lo, hi + 1) for lo, hi in line_ranges)))
    # Walk from the side with fewer (vertex, free value) candidates.
    plan = family_named(spec.family).plan(spec.k)
    (p_lo, p_hi), (l_lo, l_hi) = point_ranges[plan[0]], line_ranges[plan[0]]
    if n_points * (l_hi - l_lo + 1) <= n_lines * (p_hi - p_lo + 1):
        edges = _walk(plan, points, line_ranges, from_point=True)
    else:
        edges = [(pi, lj) for lj, pi in _walk(plan, line_params, point_ranges, from_point=False)]
    edges = tuple(sorted(edges))

    if n_points * n_lines <= cross_check_limit:
        points_on = _EDGE_ORACLES[spec.family]
        brute = tuple(
            sorted(
                (pi, lj)
                for lj, v in enumerate(line_params)
                for pi in points_on(v, points, spec.k)
            )
        )
        if brute != edges:
            raise AssertionError(
                "substitution edge set disagrees with the brute-force predicate"
            )
    return TruncatedArrangement(spec.family, spec.k, spec.n, points, line_params, edges)


def embedding_prime(arr: TruncatedArrangement, mode: str = "minimal") -> int:
    """A prime modulus under which the arrangement is a legal residue structure.

    'minimal' returns the smallest prime exceeding every coordinate of arr
    (2 when it has none), which is all the subgraph property needs at desk
    scale; no box range is evaluated.  'paper' searches the family's much
    larger window, (4 n**(8/k), 8 n**(8/k)) for the layered family and
    (2**(2k) n**(2/k), 2**(2k+1) n**(2/k)) for the positional one, with both
    ends evaluated exactly.  A search that reaches the exact limit of
    ``is_prime`` before it finds a prime raises that test's ValueError.
    """
    if mode == "minimal":
        largest = max(map(max, chain(arr.points, arr.line_params)), default=1)
        return next_prime(max(1, largest))
    if mode == "paper":
        lo, hi = family_named(arr.family).prime_window(arr.k, arr.n)
        p = prime_in_window(lo, hi)
        if p is None:
            raise ValueError(f"no prime in the window ({lo}, {hi})")
        return p
    raise ValueError(f"unknown mode {mode!r}; use 'minimal' or 'paper'")


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
    plan = family_named(arr.family).plan(arr.k)
    return all(plan_holds_mod(plan, arr.points[pi], arr.line_params[lj], q) for pi, lj in arr.edges)
