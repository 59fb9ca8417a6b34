"""Bipartite graphs and exact structural verifiers.

Girth comes from breadth-first search rooted at every vertex with an early
depth cutoff; fixed-length cycle detection is an exhaustive decision
procedure over simple paths.  Every witness returned by either routine is
machine-checked before it leaves this module.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import int_nth_root
from .families import family_named

__all__ = [
    "BipartiteGraph",
    "GirthReport",
    "DegreeSummary",
    "girth",
    "has_cycle_of_length",
    "degree_stats",
    "graphs_identical",
    "st_ratio",
    "theoretical_exponent",
    "girth_target",
]


class BipartiteGraph:
    """Immutable bipartite adjacency structure.

    Left vertices are indexed 0..left_count-1 and right vertices
    0..right_count-1; edges are (left, right) pairs.  Adjacency is stored
    sorted and mirrored on both sides.  In girth and cycle queries, vertices
    are addressed globally: left i stays i, right j becomes left_count + j.
    """

    __slots__ = ("left_count", "right_count", "left_adj", "right_adj")

    def __init__(self, left_count: int, right_count: int, edges) -> None:
        if left_count < 0 or right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        left = [[] for _ in range(left_count)]
        right = [[] for _ in range(right_count)]
        seen = set()
        for i, j in edges:
            if not (0 <= i < left_count and 0 <= j < right_count):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            left[i].append(j)
            right[j].append(i)
        self.left_count = left_count
        self.right_count = right_count
        self.left_adj = tuple(tuple(sorted(nbrs)) for nbrs in left)
        self.right_adj = tuple(tuple(sorted(nbrs)) for nbrs in right)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.left_adj)

    @property
    def vertex_count(self) -> int:
        return self.left_count + self.right_count

    def edges(self):
        """All edges as sorted (left, right) pairs."""
        return [(i, j) for i, nbrs in enumerate(self.left_adj) for j in nbrs]

    def global_adjacency(self) -> list[tuple[int, ...]]:
        """Adjacency over the combined vertex set, right side offset by left_count."""
        off = self.left_count
        out = [tuple(off + j for j in nbrs) for nbrs in self.left_adj]
        out.extend(tuple(nbrs) for nbrs in self.right_adj)
        return out

    def vertex_label(self, v: int) -> str:
        """Side-prefixed label for a global vertex index, e.g. 'U12' or 'V7'."""
        if 0 <= v < self.left_count:
            return f"U{v}"
        if self.left_count <= v < self.vertex_count:
            return f"V{v - self.left_count}"
        raise ValueError(f"global vertex index {v} out of range")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left_count == other.left_count
            and self.right_count == other.right_count
            and self.left_adj == other.left_adj
        )

    def __hash__(self):
        return hash((self.left_count, self.right_count, self.left_adj))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(left={self.left_count}, right={self.right_count}, "
            f"edges={self.edge_count})"
        )


@dataclass(frozen=True)
class GirthReport:
    """Exact girth plus a witness cycle (global vertex indices) when finite."""

    girth: int | float
    witness: tuple[int, ...] | None

    @property
    def is_finite(self) -> bool:
        return self.witness is not None


def _validate_cycle(adj, cycle, expected_len=None) -> None:
    if expected_len is not None and len(cycle) != expected_len:
        raise AssertionError(f"witness has length {len(cycle)}, expected {expected_len}")
    if len(set(cycle)) != len(cycle):
        raise AssertionError("witness repeats a vertex")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if b not in adj[a]:
            raise AssertionError(f"witness step {a}->{b} is not an edge")


def girth(g: BipartiteGraph) -> GirthReport:
    """Length of the shortest cycle, with a witness; math.inf for forests.

    BFS from every vertex; while processing a vertex at depth d only cycles
    of length >= 2d can still be discovered from that root, so each search is
    cut as soon as 2d reaches the best length found so far.  A candidate that
    ties the true girth always closes into a simple cycle, which is why the
    final witness can be reconstructed from parent links and then checked.
    """
    adj = g.global_adjacency()
    n = len(adj)
    best: int | float = math.inf
    witness: tuple[int, ...] | None = None
    seen = [-1] * n
    depth = [0] * n
    parent = [-1] * n
    for s in range(n):
        if not adj[s]:
            continue
        seen[s] = s
        depth[s] = 0
        parent[s] = -1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = depth[u]
            if 2 * du >= best:
                break
            pu = parent[u]
            for w in adj[u]:
                if seen[w] != s:
                    seen[w] = s
                    depth[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != pu:
                    length = du + depth[w] + 1
                    if length < best:
                        best = length
                        witness = _close_cycle(u, w, parent)
    if witness is not None:
        _validate_cycle(adj, witness, best)
        if best % 2:
            raise AssertionError("odd cycle in a bipartite graph")
    return GirthReport(best, witness)


def _close_cycle(u: int, w: int, parent) -> tuple[int, ...]:
    """Join the root-to-u and root-to-w tree paths across the edge (u, w)."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while parent[path_w[-1]] != -1:
        path_w.append(parent[path_w[-1]])
    # root ... u, then w ... child-of-root
    return tuple(reversed(path_u)) + tuple(path_w[:-1])


def has_cycle_of_length(g: BipartiteGraph, length: int) -> tuple[int, ...] | None:
    """Decide exactly whether a simple cycle of this exact length exists.

    Enumerates simple paths from each start vertex, restricted so that the
    start is the smallest global index on the cycle and the start's smaller
    neighbor comes first; each cycle is therefore generated at most once.
    Returns a validated witness, or None.  Odd lengths are rejected since
    bipartite graphs have none.
    """
    if length % 2 != 0:
        raise ValueError(f"cycle length must be even in a bipartite graph, got {length}")
    if length < 4:
        raise ValueError(f"cycle length must be >= 4, got {length}")
    adj = g.global_adjacency()
    adj_sets = [frozenset(nbrs) for nbrs in adj]
    n = len(adj)
    on_path = [False] * n

    for s in range(n):
        if len(adj[s]) < 2:
            continue
        path = [s]

        def extend(u: int, remaining: int) -> tuple[int, ...] | None:
            if remaining == 0:
                if s in adj_sets[u] and path[1] < path[-1]:
                    return tuple(path)
                return None
            for w in adj[u]:
                if w > s and not on_path[w]:
                    on_path[w] = True
                    path.append(w)
                    got = extend(w, remaining - 1)
                    path.pop()
                    on_path[w] = False
                    if got is not None:
                        return got
            return None

        on_path[s] = True
        witness = extend(s, length - 1)
        on_path[s] = False
        if witness is not None:
            _validate_cycle(adj, witness, length)
            return witness
    return None


@dataclass(frozen=True)
class DegreeSummary:
    minimum: int
    maximum: int
    histogram: dict

    @classmethod
    def of(cls, adjacency) -> "DegreeSummary":
        degrees = [len(nbrs) for nbrs in adjacency]
        if not degrees:
            return cls(0, 0, {})
        return cls(min(degrees), max(degrees), dict(Counter(degrees)))


def degree_stats(g: BipartiteGraph) -> tuple[DegreeSummary, DegreeSummary]:
    """Exact per-side degree statistics as (left summary, right summary)."""
    return DegreeSummary.of(g.left_adj), DegreeSummary.of(g.right_adj)


def graphs_identical(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Index-for-index adjacency equality; side sizes must already match."""
    if g1.left_count != g2.left_count or g1.right_count != g2.right_count:
        raise ValueError("graphs have different side sizes")
    return g1.left_adj == g2.left_adj


def st_ratio(points: int, lines: int, incidences: int) -> Fraction:
    """Incidence count against the planar point-line incidence bound shape.

    Returns ``incidences / (ceil((points*lines)**(2/3)) + points + lines)``
    as an exact rational.  The bound term is ceiled, never floored, so the
    denominator is never understated and the ratio never overstates how much
    of the bound shape is achieved.  This is a diagnostic: the bound's
    constant is not represented.
    """
    if points < 1 or lines < 1:
        raise ValueError("point and line counts must be >= 1")
    if incidences < 0:
        raise ValueError("incidence count must be >= 0")
    square = points * points * lines * lines
    root = int_nth_root(square, 3)
    if root**3 != square:
        root += 1
    return Fraction(incidences, root + points + lines)


def theoretical_exponent(family: str, k: int) -> Fraction:
    """Incidence-count exponent achieved by a family at its parameter k.

    'lu' gives 1 + 4/(k^2 + 6k - 3) for odd k >= 3; 'wenger' gives
    1 + 2/(k(k+1)) for k in {2, 3, 5}.
    """
    return family_named(family).exponent(k)


def girth_target(k: int) -> int:
    """Guaranteed girth lower bound k + 5 for the layered construction, odd k >= 3."""
    family_named("lu").check_k(k)
    return k + 5
