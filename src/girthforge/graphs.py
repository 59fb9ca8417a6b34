"""Bipartite graphs and exact structural verifiers.

Girth comes from breadth-first search rooted at the vertices of the smaller
side only, each root searching the graph without the smaller-indexed roots,
with an early depth cutoff.  Fixed-length cycle detection is an exhaustive
decision procedure over simple paths, pruned by exact BFS distances back to
the start.  Both prunings drop only work that cannot lead to a cycle, so
the answers are those of the unpruned searches; every witness returned by
either routine is machine-checked before it leaves this module.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import ceil_pow
from .families import family_named

__all__ = [
    "BipartiteGraph",
    "GirthReport",
    "DegreeSummary",
    "girth",
    "has_cycle_of_length",
    "degree_stats",
    "st_ratio",
    "theoretical_exponent",
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

    A cycle alternates sides, so it has a vertex on the smaller side
    ``[lo, hi)`` (the left side ``[0, left_count)`` on a tie, else the right
    side ``[left_count, n)``), and BFS roots there suffice.  The root s
    searches the graph without the root-side vertices ``lo <= w < s``: every
    cycle is then found from its smallest root-side vertex, in a subgraph
    that still holds the whole cycle, and no cycle is searched twice.  The
    bound is ``lo <= w``, not ``w < s``: when the right side is the smaller
    one, every left vertex has a smaller global index than the root, and
    cutting them off would leave every root isolated (girth inf).

    While processing a vertex at depth d only cycles of length >= 2d can
    still be discovered from that root, so each search is cut as soon as 2d
    reaches the best length found so far.  A candidate that ties the true
    girth always closes into a simple cycle, which is why the final witness
    can be reconstructed from parent links and then checked.
    """
    adj = g.global_adjacency()
    n = len(adj)
    lo, hi = (0, g.left_count) if g.left_count <= g.right_count else (g.left_count, n)
    best: int | float = math.inf
    witness: tuple[int, ...] | None = None
    seen = [-1] * n
    depth = [0] * n
    parent = [-1] * n
    for s in range(lo, hi):
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
                if lo <= w < s:
                    continue
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

    Enumerates simple paths from each start vertex s, restricted so that s
    is the smallest global index on the cycle (the path keeps to vertices
    > s) and s's smaller neighbor comes first; each cycle is therefore
    generated at most once.  Returns a validated witness, or None.  Odd
    lengths are rejected since bipartite graphs have none; a simple cycle
    alternates sides, so none is longer than twice the smaller side and such
    lengths answer None at once.

    Before the paths from s, a BFS over s and the vertices > s records the
    distance back to s of every vertex within ``length // 2``.  The path
    skips a neighbor w that BFS did not reach, or whose distance exceeds the
    ``length - len(path)`` edges still needed to close the cycle once w is
    on the path.  Both skips are exact: every vertex of a cycle of this
    length through s lies within ``length // 2`` of s along the cycle, and
    the rest of any closing path keeps to vertices > s, so it is no shorter
    than the BFS distance.  The surviving paths are visited in the same
    order, so the first witness is the one the unpruned search returns.
    """
    if length % 2 != 0:
        raise ValueError(f"cycle length must be even in a bipartite graph, got {length}")
    if length < 4:
        raise ValueError(f"cycle length must be >= 4, got {length}")
    if length > 2 * min(g.left_count, g.right_count):
        return None
    adj = g.global_adjacency()
    n = len(adj)
    on_path = [False] * n
    # distance back to the current start s; `length` marks "not reached",
    # which exceeds every edge count still left, so the DFS test on dist
    # also keeps the path to vertices > s
    dist = [length] * n

    for s in range(n):
        if len(adj[s]) < 2:
            continue
        dist[s] = 0
        reached = [s]
        frontier = [s]
        for d in range(1, length // 2 + 1):
            ring = []
            for u in frontier:
                for w in adj[u]:
                    if w > s and dist[w] == length:
                        dist[w] = d
                        ring.append(w)
            reached.extend(ring)
            frontier = ring
        # Depth-first over simple paths from s with an explicit stack, one
        # neighbor iterator per path vertex but the last: path lengths reach
        # the cycle length, far beyond the interpreter's recursion limit.
        path = [s]
        on_path[s] = True
        pending = [iter(adj[s])]
        while pending:
            steps_left = length - len(path)
            for w in pending[-1]:
                if dist[w] <= steps_left and not on_path[w]:
                    break
            else:
                pending.pop()
                on_path[path.pop()] = False
                continue
            path.append(w)
            if steps_left > 1:
                on_path[w] = True
                pending.append(iter(adj[w]))
            elif path[1] < w:
                # one step left and dist[w] == 1: w closes the cycle at s
                witness = tuple(path)
                _validate_cycle(adj, witness, length)
                return witness
            else:
                path.pop()
        for v in reached:
            dist[v] = length
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
    return Fraction(incidences, ceil_pow(points * lines, Fraction(2, 3)) + points + lines)


def theoretical_exponent(family: str, k: int) -> Fraction:
    """Incidence-count exponent achieved by a family at its parameter k.

    'lu' gives 1 + 4/(k^2 + 6k - 3) for odd k >= 3; 'wenger' gives
    1 + 2/(k(k+1)) for k in {2, 3, 5}.
    """
    return family_named(family).exponent(k)
