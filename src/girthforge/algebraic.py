"""Bipartite graphs over prime fields, one per family of the family table.

Each graph lives on two copies of F_q^k, points u and line vertices v, with
an edge when the family's equations hold mod q.  Neighbor generation solves
the equations for v by substitution from u (see :mod:`girthforge.families`).

Both graphs are regular on both sides; that is asserted by tests, not here.
The builders root each graph from the plan alone (:func:`plan_roots`): the
translation pairs that :func:`certify_pair` proves automorphisms free
coordinates, and the searches start at the smallest point of each coset.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import NamedTuple

from .exactmath import is_prime
from .families import family_named, substitute
from .graphs import BipartiteGraph

__all__ = [
    "BudgetExceededError",
    "FieldParams",
    "LUParams",
    "WengerParams",
    "translation_pairs",
    "certify_pair",
    "freed_coordinates",
    "plan_roots",
    "build_lu_graph",
    "build_wenger_graph",
    "check_box_lower_bound",
    "DEFAULT_VERTEX_BUDGET",
]

DEFAULT_VERTEX_BUDGET = 100_000


class BudgetExceededError(RuntimeError):
    """A requested construction is larger than the configured desk-scale budget."""


def check_box_lower_bound(box: str, k: int, budget: int) -> None:
    """Refuse a box of k coordinates that each take 0 and 1 when its 2**k tuples exceed budget.

    The bit lengths compare 2**k with budget without building 2**k for a huge k.
    """
    if k >= budget.bit_length():
        raise BudgetExceededError(f"{box} holds at least 2**{k} tuples, beyond the budget of {budget}")


class FieldParams(NamedTuple("FieldParams", [("family", str), ("k", int), ("q", int)])):
    """A family's field graph: k coordinates over the prime field F_q."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, family, k, q):
        family_named(family).check_k(k)
        if not is_prime(q):
            raise ValueError(f"field size must be prime, got {q}")
        return tuple.__new__(cls, (family, k, q))


LUParams = partial(FieldParams, "lu")
WengerParams = partial(FieldParams, "wenger")


def _digit_weights(k: int, q: int) -> list[int]:
    """Lexicographic index weights of F_q^k: coordinate s is the digit of weight q**(k - 1 - s)."""
    return [q ** (k - 1 - s) for s in range(k)]


def _digit_columns(k: int, q: int) -> list[list[int]]:
    """Coordinate s of every tuple of F_q^k, tuples in lexicographic order, one list per s."""
    return [[d for d in range(q) for _ in range(w)] * (q**k // (q * w)) for w in _digit_weights(k, q)]


def translation_pairs(params: FieldParams) -> list[tuple[tuple, tuple]]:
    """The coordinate translations that the plan maps to automorphisms, as pairs of coordinate moves.

    Each pair is ``(point moves, line moves)``, T on the points and S on the
    line vertices; a move ``(t, c, m, r)`` is ``y[t] += c + m * y[r]``, every
    move of a map reading y before any move.  By the steps
    ``v[t] - u[t] = v[a] * u[b]``, the point translation u -> u + e_s goes
    with S(v)[t] = v[t] + [t = s] + [b = s] * v[a], offered when no step's a
    is a coordinate that S moves, and the line translation v -> v + e_s with
    F(u)[t] = u[t] + [t = s] - [a = s] * u[b], offered when no step's b is a
    coordinate that F moves.  Point pairs come first, then line pairs, each
    in coordinate order.  The plan only chooses the pairs:
    :func:`certify_pair` proves each one it uses.
    """
    k = params.k
    _, steps = family_named(params.family).plan(k)
    # the steps that write or read each coordinate as b, and as a, in plan order
    by_b, by_a = [[] for _ in range(k)], [[] for _ in range(k)]
    for t, a, b in steps:
        for index, s in ((by_b, t), (by_b, b), (by_a, t), (by_a, a)):
            index[s].append((t, a, b))
    reads_a, reads_b = {a for _, a, _ in steps}, {b for *_, b in steps}
    points, lines = [], []
    for s in range(k):
        shift = ((s, 1, 0, s),)
        moved = tuple((t, int(t == s), int(b == s), a) for t, a, b in by_b[s])
        if reads_a.isdisjoint(t for t, *_ in moved):
            points.append((shift, moved))
        moved = tuple((t, int(t == s), -int(a == s), b) for t, a, b in by_a[s])
        if reads_b.isdisjoint(t for t, *_ in moved):
            lines.append((moved, shift))
    return points + lines


def _images(moves, k: int) -> list[Counter]:
    """Each coordinate's image under the moves, as {coordinate or None (the constant 1): coefficient}."""
    images = [Counter({i: 1}) for i in range(k)]
    for t, c, m, r in moves:
        images[t].update({None: c, r: m})
    return images


def certify_pair(params: FieldParams, pair) -> bool:
    """Whether the plan proves a pair of :func:`translation_pairs` an automorphism of the field graph.

    Each map must be invertible: no two moves share a target, and every move
    reads only coordinates that its own map leaves unmoved, so subtracting
    the same moves undoes it.  Then for every step (t, a, b) the edge
    polynomial v[t] - u[t] - v[a] * u[b] must map to itself under (T, S) as
    a polynomial over F_q; T and S then carry every edge to an edge and
    every non-edge to a non-edge.  A line coordinate only ever multiplies a
    point coordinate, so every variable has degree at most 1 and the
    polynomial identity is exactly the identity of functions on F_q.
    """
    k, q = params.k, params.q
    for moves in pair:
        moved = [t for t, *_ in moves]
        if len(set(moved)) != len(moved) or any(m % q and r in moved for _, _, m, r in moves):
            return False
    point, line = (_images(moves, k) for moves in pair)
    for t, a, b in family_named(params.family).plan(k)[1]:
        # E(T u, S v) - E(u, v), monomial (x, y) = v[x] * u[y] with None for 1
        poly = Counter({(x, None): c for x, c in line[t].items()})
        poly.subtract({(None, y): c for y, c in point[t].items()})
        poly.subtract({(x, y): c * d for x, c in line[a].items() for y, d in point[b].items()})
        poly.subtract({(t, None): 1, (None, t): -1, (a, b): -1})
        if any(c % q for c in poly.values()):
            return False
    return True


def freed_coordinates(params: FieldParams, pairs) -> frozenset[int]:
    """The coordinates C that the pairs free, walked in order.

    A pair frees s when its point map is the shift u[s] += 1 apart from
    moves of coordinates already in C, and :func:`certify_pair` proves it.
    By induction the group of the freed pairs' point maps is transitive on
    each coset u + span(e_c : c in C): the shift runs through the values of
    s and the earlier pairs through those of the other coordinates of C.
    """
    q, freed = params.q, set()
    for pair in pairs:
        new = [(t, c % q, m % q) for t, c, m, _ in pair[0] if t not in freed]
        if len(new) == 1 and new[0][1:] == (1, 0) and certify_pair(params, pair):
            freed.add(new[0][0])
    return frozenset(freed)


def plan_roots(params: FieldParams) -> tuple[int, ...] | None:
    """Orbit roots of the field graph from the plan alone: the points with digit 0 on every freed coordinate.

    Each such point is the smallest of its coset (:func:`freed_coordinates`),
    and every coset lies inside one orbit, so the roots hold the smallest
    point of every orbit, as the start rule of :mod:`girthforge.graphs`
    asks.  None when no coordinate is freed.  The graph need not be built,
    but a root set beyond the vertex budget is refused.
    """
    k, q = params.k, params.q
    freed = freed_coordinates(params, translation_pairs(params))
    if not freed:
        return None
    _check_budget("the root set", k - len(freed), q)
    roots = [0]
    for s, w in enumerate(_digit_weights(k, q)):
        if s not in freed:
            roots = [i + d * w for i in roots for d in range(q)]
    return tuple(roots)


def _neighbour_rows(params: FieldParams):
    """Each point's q neighbour indices, points in lexicographic order, built column-wise.

    The neighbour x of u is const + slope * x (mod q), with const and slope
    whole integer columns over all points by substitution from the digit
    columns.  Each key is c % q + q * (m % q), exact as % commutes with + and
    *, or c + q * m on a step whose a is the free coordinate: that step takes
    digit columns, already below q, and skips the reduction.  Then each x
    gives one column of indices (:func:`_digit_weights`), looking up each
    solved coordinate's weighted digit in a q * q table by key.  The rows are
    those q columns read across.
    """
    k, q = params.k, params.q
    free, steps = plan = family_named(params.family).plan(k)
    weights = _digit_weights(k, q)
    const, slope = substitute(plan, _digit_columns(k, q), from_point=True)
    keys = {}
    for t, a, _ in steps:
        pairs = zip(const[t], slope[t])
        keys[t] = [c + q * m for c, m in pairs] if a == free else [c % q + q * (m % q) for c, m in pairs]
    neighbours = []
    for x in range(q):
        column = [x * weights[free]] * q**k
        for t, _, _ in steps:
            # entry c + q * m is ring[m * x % q + c], weight times (c + m * x) % q
            ring = [d * weights[t] for d in range(q)] * 2
            digit = [d for m in range(q) for d in ring[m * x % q:][:q]]
            column = [i + digit[key] for i, key in zip(column, keys[t])]
        neighbours.append(column)
    return zip(*neighbours)


def _check_budget(what: str, k: int, q: int) -> int:
    """q**k, the size of what; BudgetExceededError beyond the vertex budget, 2**k checked first."""
    check_box_lower_bound(what, k, DEFAULT_VERTEX_BUDGET)  # q >= 2
    if q**k > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceededError(f"{what} holds {q**k} tuples, beyond the budget of {DEFAULT_VERTEX_BUDGET}")
    return q**k


def _build_graph(params: FieldParams) -> BipartiteGraph:
    size = _check_budget("each side", params.k, params.q)
    graph = BipartiteGraph.from_rows(size, _neighbour_rows(params))
    graph.roots = plan_roots(params)
    return graph


def build_lu_graph(params: FieldParams) -> BipartiteGraph:
    """The full layered graph on 2 * q**k vertices; index order is lexicographic."""
    return _build_graph(params)


def build_wenger_graph(params: FieldParams) -> BipartiteGraph:
    """The full positional graph on 2 * p**k vertices; index order is lexicographic."""
    return _build_graph(params)
