"""Bipartite graphs over prime fields, one per family of the family table.

Each graph lives on two copies of F_q^k, points u and line vertices v, with
an edge when the family's equations hold mod q.  Neighbor generation solves
the equations for v by substitution from u (see :mod:`girthforge.families`).

Both graphs are regular on both sides; that is asserted by tests, not here.
The builder offers the 2k coordinate translations to
:func:`girthforge.graphs.root_orbits`, which keeps those that pass its
certificate, so the girth and cycle searches start at one point per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .exactmath import is_prime
from .families import family_named, plan_holds_mod, substitute
from .graphs import BipartiteGraph, root_orbits

__all__ = [
    "BudgetExceededError",
    "FieldParams",
    "LUParams",
    "WengerParams",
    "field_edge",
    "field_neighbors",
    "coordinate_translations",
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


def _digit_weights(k: int, q: int) -> list[int]:
    """Lexicographic index weights of F_q^k: coordinate s is the digit of weight q**(k - 1 - s)."""
    return [q ** (k - 1 - s) for s in range(k)]


def coordinate_translations(params: FieldParams) -> list[tuple[str, tuple[int, ...]]]:
    """The 2k translations x -> x + e_s (mod q) as index permutations of F_q^k.

    The k point translations (side "left") come first, then the k
    line-vertex translations (side "right"), each in coordinate order.
    Both sides are indexed lexicographically (:func:`_digit_weights`).
    Whether one is an automorphism is left to the certificate of
    :func:`girthforge.graphs.root_orbits`.
    """
    k, q = params.k, params.q
    perms = []
    for w in _digit_weights(k, q):
        perms.append(
            tuple(i - (q - 1) * w if i // w % q == q - 1 else i + w for i in range(q**k))
        )
    return [(side, perm) for side in ("left", "right") for perm in perms]


def _neighbour_rows(params: FieldParams):
    """Yield each point's q neighbour indices, points in lexicographic order.

    The neighbour x of u is const + slope * x (mod q) from one substitution,
    indexed digit by digit with :func:`_digit_weights`: the free
    coordinate's digit is x itself, and each solved coordinate adds its
    digits to the row with one comprehension.  Nothing larger than k + q
    entries is tabulated.
    """
    k, q = params.k, params.q
    plan = family_named(params.family).plan(k)
    free, steps = plan
    weights = _digit_weights(k, q)
    xs = range(q)
    start = [x * weights[free] for x in xs]
    solved = [(t, weights[t]) for t, _, _ in steps]
    for u in product(xs, repeat=k):
        const, slope = substitute(plan, u, from_point=True)
        row = start
        for t, w in solved:
            c, s = const[t], slope[t]
            row = [r + (c + s * x) % q * w for r, x in zip(row, xs)]
        yield row


def _build_graph(params: FieldParams) -> BipartiteGraph:
    k, q = params.k, params.q
    check_box_lower_bound("each side", k, DEFAULT_VERTEX_BUDGET)  # q >= 2
    size = q**k
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"{size} vertices per side exceeds the budget of {DEFAULT_VERTEX_BUDGET}"
        )
    graph = BipartiteGraph.from_rows(size, _neighbour_rows(params))
    root_orbits(graph, coordinate_translations(params))
    return graph


def build_lu_graph(params: FieldParams) -> BipartiteGraph:
    """The full layered graph on 2 * q**k vertices; index order is lexicographic."""
    return _build_graph(params)


def build_wenger_graph(params: FieldParams) -> BipartiteGraph:
    """The full positional graph on 2 * p**k vertices; index order is lexicographic."""
    return _build_graph(params)
