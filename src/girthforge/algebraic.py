"""Bipartite graphs over prime fields, one per family of the family table.

Each graph lives on two copies of F_q^k, points u and line vertices v, with
an edge when the family's equations hold mod q.  Neighbor generation solves
the equations for v by substitution from u (see :mod:`girthforge.families`).

Both graphs are regular on both sides; that is asserted by tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .exactmath import is_prime
from .families import family_named, plan_holds_mod, substitute
from .graphs import BipartiteGraph

__all__ = [
    "BudgetExceededError",
    "FieldParams",
    "LUParams",
    "WengerParams",
    "field_edge",
    "field_neighbors",
    "build_lu_graph",
    "build_wenger_graph",
    "DEFAULT_VERTEX_BUDGET",
]

DEFAULT_VERTEX_BUDGET = 100_000


class BudgetExceededError(RuntimeError):
    """A requested construction is larger than the configured desk-scale budget."""


@dataclass(frozen=True)
class FieldParams:
    """A family's field graph: k coordinates over the prime field F_q."""

    family: str
    k: int
    q: int

    def __post_init__(self):
        family_named(self.family).check_k(self.k)
        if not is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q}")


LUParams = partial(FieldParams, "lu")
WengerParams = partial(FieldParams, "wenger")


def _check_length(vertex, k: int, name: str) -> None:
    if len(vertex) != k:
        raise ValueError(f"{name} has length {len(vertex)}, expected {k}")


def field_edge(u, v, params: FieldParams) -> bool:
    """Whether the family's equations hold mod q for point u and line-vertex v."""
    _check_length(u, params.k, "u")
    _check_length(v, params.k, "v")
    return plan_holds_mod(family_named(params.family).plan(params.k), u, v, params.q)


def field_neighbors(u, params: FieldParams) -> list[tuple[int, ...]]:
    """The q neighbors of u, one per value of the free coordinate of v."""
    _check_length(u, params.k, "u")
    q = params.q
    const, slope = substitute(family_named(params.family).plan(params.k), u, from_point=True)
    return [tuple((c + s * x) % q for c, s in zip(const, slope)) for x in range(q)]


def _tuple_index(vertex, base: int) -> int:
    idx = 0
    for c in vertex:
        idx = idx * base + c
    return idx


def _build_graph(params: FieldParams, budget: int) -> BipartiteGraph:
    k, q = params.k, params.q
    size = q**k
    if size > budget:
        raise BudgetExceededError(
            f"{size} vertices per side exceeds the budget of {budget}"
        )
    edges = []
    for pi, u in enumerate(product(range(q), repeat=k)):
        for v in field_neighbors(u, params):
            edges.append((pi, _tuple_index(v, q)))
    return BipartiteGraph(size, size, edges)


def build_lu_graph(params: FieldParams, budget: int = DEFAULT_VERTEX_BUDGET) -> BipartiteGraph:
    """The full layered graph on 2 * q**k vertices; index order is lexicographic."""
    return _build_graph(params, budget)


def build_wenger_graph(params: FieldParams, budget: int = DEFAULT_VERTEX_BUDGET) -> BipartiteGraph:
    """The full positional graph on 2 * p**k vertices; index order is lexicographic."""
    return _build_graph(params, budget)
