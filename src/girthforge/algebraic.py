"""Bipartite graphs over prime fields, one per family of the family table.

Each graph lives on two copies of F_q^k, points u and line vertices v, with
an edge when the family's equations hold mod q.  Neighbor generation solves
the equations for v by substitution from u (see :mod:`girthforge.families`).

Both graphs are regular on both sides; that is asserted by tests, not here.
The builder offers the plan's translation pairs to
:func:`girthforge.graphs.root_orbits`, which certifies those that can still
merge orbits, so the searches start at one point per orbit.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .exactmath import is_prime
from .families import family_named
from .graphs import BipartiteGraph, root_orbits

__all__ = [
    "BudgetExceededError",
    "FieldParams",
    "LUParams",
    "WengerParams",
    "translation_pairs",
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


def translation_pairs(params: FieldParams) -> list[tuple[list[int], list[int]]]:
    """The coordinate translations that the plan maps to automorphisms, as index permutation pairs.

    Each pair is ``(left_perm, right_perm)`` on the lexicographic indices.
    By the steps ``v[t] - u[t] = v[a] * u[b]``, the point translation
    u -> u + e_s goes with S(v)[t] = v[t] + [t = s] + [b = s] * v[a], offered
    when no step's a is a coordinate that S moves, and the line translation
    v -> v + e_s with F(u)[t] = u[t] + [t = s] - [a = s] * u[b], offered when
    no step's b is a coordinate that F moves.  Point pairs come first, then
    line pairs, each in coordinate order.  The plan only chooses the pairs:
    :func:`girthforge.graphs.root_orbits` certifies each one it uses.
    """
    k, q = params.k, params.q
    _, steps = family_named(params.family).plan(k)
    columns, weights = _digit_columns(k, q), _digit_weights(k, q)
    perms = {}

    def perm(moves):  # y[t] += c + m * y[r] mod q per move, all reading y before any; cached
        moves = tuple((t, c, m, r if m else t) for t, c, m, r in moves)
        if moves not in perms:
            image = range(q**k)
            for t, c, m, r in moves:
                w, digits = weights[t], zip(columns[t], columns[r])
                image = [i + ((d + c + m * y) % q - d) * w for i, (d, y) in zip(image, digits)]
            perms[moves] = image
        return perms[moves]

    points, lines = [], []
    for s in range(k):
        shift = [(s, 1, 0, s)]
        moved = [(t, int(t == s), int(b == s), a) for t, a, b in steps if s in (t, b)]
        if all(a not in {t for t, *_ in moved} for _, a, _ in steps):
            points.append((perm(shift), perm(moved)))
        moved = [(t, int(t == s), -int(a == s), b) for t, a, b in steps if s in (t, a)]
        if all(b not in {t for t, *_ in moved} for *_, b in steps):
            lines.append((perm(moved), perm(shift)))
    return points + lines


def _neighbour_rows(params: FieldParams):
    """Each point's q neighbour indices, points in lexicographic order, built column-wise.

    The neighbour x of u is const + slope * x (mod q).  The plan's steps give
    const and slope as whole columns over all points, one comprehension
    each; then each x gives one column of indices (:func:`_digit_weights`),
    looking up each solved coordinate's weighted digit in a q * q table by
    c + q * m.  The rows are those q columns read across.
    """
    k, q = params.k, params.q
    free, steps = family_named(params.family).plan(k)
    columns, weights = _digit_columns(k, q), _digit_weights(k, q)
    const, slope, keys = {}, {}, {}
    for t, a, b in steps:  # const[t] = u[t] + const[a] * u[b], slope[t] = slope[a] * u[b]
        if a == free:  # const 0 and slope 1 there
            const[t], slope[t] = columns[t], columns[b]
        else:
            const[t] = [(ut + c * y) % q for ut, c, y in zip(columns[t], const[a], columns[b])]
            slope[t] = [m * y % q for m, y in zip(slope[a], columns[b])]
        keys[t] = [c + q * m for c, m in zip(const[t], slope[t])]
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


def _build_graph(params: FieldParams) -> BipartiteGraph:
    k, q = params.k, params.q
    check_box_lower_bound("each side", k, DEFAULT_VERTEX_BUDGET)  # q >= 2
    size = q**k
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"{size} vertices per side exceeds the budget of {DEFAULT_VERTEX_BUDGET}"
        )
    graph = BipartiteGraph.from_rows(size, _neighbour_rows(params))
    root_orbits(graph, translation_pairs(params))
    return graph


def build_lu_graph(params: FieldParams) -> BipartiteGraph:
    """The full layered graph on 2 * q**k vertices; index order is lexicographic."""
    return _build_graph(params)


def build_wenger_graph(params: FieldParams) -> BipartiteGraph:
    """The full positional graph on 2 * p**k vertices; index order is lexicographic."""
    return _build_graph(params)
