"""Bipartite graphs and exact structural verifiers.

Girth is breadth-first search cut at the first level that can close no
cycle shorter than the best; fixed-length cycle detection is an exhaustive
decision procedure over simple paths, pruned by exact BFS distances back to
the start.  Both take their starts from one place, _starts, by the start
rule below, each start searching the graph without the vertices below it.
Both prunings drop only work that cannot change the answer, so answers and
witnesses are those of the unpruned searches; every witness returned by
either routine is machine-checked before it leaves this module.

The start rule: global indices put every point (left vertex) below every
line, and every edge joins a point to a line, so the smallest vertex of a
cycle is a point, and the cycle lies in the graph without the points below
it.  A search that must meet each cycle from its smallest vertex starts at
each point s on the 2-core of that graph, or at the orbit roots when the
graph has them.

The 2-core is what is left after vertices of degree at most 1 are removed
until none is left: it keeps every cycle, since each vertex of a cycle
keeps two neighbours on it, and it is empty exactly on forests.  One peel
serves all the starts: after each start the start itself is removed and
the peel runs on, so each vertex is removed once.  A point s left out lies
on no cycle of the graph without the points below s, so the cycle search
finds nothing from it; there the girth BFS closes only walks with a stem,
at least two edges longer than the girth, which never give the final girth
or witness.  So the starts left out change no answer and no witness.
A tree hung off the graph costs one peel, not a BFS from each of its
points, and a graph that is one long cycle costs one BFS, from its
smallest point.

Orbit roots narrow the starts instead.  A graph's roots, when set, are
sorted points that include the smallest point of every orbit of some group
of its automorphisms; the field-graph builders prove the group from the
plan (:func:`girthforge.algebraic.plan_roots`).  Among the cycles of a
given length take the smallest point m on one of them: an automorphism
carries that cycle to one through the smallest point of m's orbit, which
is therefore no smaller than m, so m is a root.  The cycle through m avoids
every vertex below m, and no root below m lies on a cycle of that length,
so the searches from the roots, each still skipping the vertices below it,
miss no cycle and return the witnesses of the searches from every point.
Field graphs are q-regular, so their 2-core is the whole graph and roots
are taken as they are, without a peel.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

from .exactmath import ceil_pow
from .families import family_named

__all__ = [
    "BipartiteGraph",
    "GirthReport",
    "DegreeSummary",
    "girth",
    "check_cycle_length",
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

    ``roots`` is None, or sorted left indices that include the smallest of
    each orbit of a group of automorphisms (module docstring); the
    field-graph builders set them.  Equality and hashing ignore it, and the
    global adjacency too, which is built on first use and kept.
    """

    __slots__ = ("left_count", "right_count", "left_adj", "right_adj", "roots", "_global_adj")

    def __init__(self, left_count: int, right_count: int, edges) -> None:
        if left_count < 0 or right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        rows = [[] for _ in range(left_count)]
        for i, j in edges:
            if not 0 <= i < left_count:
                raise ValueError(f"edge ({i}, {j}) out of range")
            rows[i].append(j)
        self._set_rows(right_count, rows)

    @classmethod
    def from_rows(cls, right_count: int, left_rows) -> BipartiteGraph:
        """The graph whose left vertex i is adjacent to the right vertices in left_rows[i].

        Each row is sorted; a row that repeats a right vertex or leaves
        [0, right_count) raises ValueError with the edge-list constructor's
        messages.
        """
        graph = cls.__new__(cls)
        graph._set_rows(right_count, left_rows)
        return graph

    def _set_rows(self, right_count: int, left_rows) -> None:
        """Sort and check each row, then mirror the rows in one pass in left order."""
        if right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        left_adj = []
        right = [[] for _ in range(right_count)]
        for i, row in enumerate(left_rows):
            row = tuple(sorted(row))
            if row and not (0 <= row[0] and row[-1] < right_count):
                raise ValueError(f"edge ({i}, {row[0] if row[0] < 0 else row[-1]}) out of range")
            if len(set(row)) != len(row):
                j = next(a for a, b in zip(row, row[1:]) if a == b)
                raise ValueError(f"duplicate edge ({i}, {j})")
            left_adj.append(row)
            for j in row:
                right[j].append(i)
        self.left_count = len(left_adj)
        self.right_count = right_count
        self.left_adj = tuple(left_adj)
        # filled in left order, so each row is already sorted
        self.right_adj = tuple(map(tuple, right))
        self.roots = None
        self._global_adj = None

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.left_adj)

    @property
    def vertex_count(self) -> int:
        return self.left_count + self.right_count

    def edges(self):
        """All edges as sorted (left, right) pairs."""
        return [(i, j) for i, nbrs in enumerate(self.left_adj) for j in nbrs]

    def global_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency over the combined vertex set, right side offset by left_count; built once."""
        if self._global_adj is None:
            off = self.left_count
            self._global_adj = tuple(
                [tuple([off + j for j in nbrs]) for nbrs in self.left_adj]
            ) + self.right_adj
        return self._global_adj

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


class GirthReport(NamedTuple):
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


def _starts(g: BipartiteGraph, adj):
    """Yield the starts of the start rule: g's orbit roots when set, else
    each point s on the 2-core of the graph without the points below s.

    The peel removes vertices of degree 1 until none is left; a vertex of
    degree 0 removes nothing.  The first leaves are read off the points and
    their rows: a line of degree 1 is in exactly one point's row, so it is
    listed once.  When the next start is asked for, the last one is removed
    and the peel runs on, so the degrees left are those of the next point's
    2-core and every vertex is removed once.
    """
    if g.roots is not None:
        yield from g.roots
        return
    degree = list(map(len, adj))

    def peel(leaves):
        while leaves:
            v = leaves.pop()
            degree[v] = 0
            for w in adj[v]:
                if degree[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        leaves.append(w)

    peel([v for s in range(g.left_count) for v in (s, *adj[s]) if degree[v] == 1])
    for s in range(g.left_count):
        if degree[s]:
            yield s
            peel([s])


def girth(g: BipartiteGraph) -> GirthReport:
    """Length of the shortest cycle, with a witness; math.inf for forests.

    BFS runs from each start of the start rule (module docstring), the start
    s searching the graph without the vertices w < s.  A cycle is found from
    its smallest vertex, in a subgraph that still holds it whole, and no
    cycle is searched twice.  The smallest point of a shortest cycle is a
    start, and with orbit roots the smallest point on some shortest cycle is
    still a root; a point left out closes only walks with a stem, longer
    than the girth.  Either way the girth and the witness are those of the
    search from every point.

    Depths alternate sides, so a vertex u at depth d closes a new cycle of
    length 2d + 2: one of length 2d through a non-parent w at depth d - 1
    was closed when the later of w and u's parent was scanned.  Each search
    is cut once 2d + 2 reaches the best length; ties never replace the best,
    so the cut changes neither the girth nor the witness.  A candidate that
    ties the true girth always closes into a simple cycle, so the witness is
    rebuilt from parent links and checked.
    """
    adj = g.global_adjacency()
    n = len(adj)
    best: int | float = math.inf
    witness: tuple[int, ...] | None = None
    seen = [-1] * n
    depth = [0] * n
    parent = [-1] * n
    for s in _starts(g, adj):
        seen[s] = s
        depth[s] = 0
        parent[s] = -1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = depth[u]
            if 2 * du + 2 >= best:
                break
            pu = parent[u]
            for w in adj[u]:
                if w < s:
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


def check_cycle_length(length: int) -> None:
    """Refuse a length no simple cycle of a bipartite graph has: an odd one, or one below 4."""
    if length % 2 != 0:
        raise ValueError(f"cycle length must be even in a bipartite graph, got {length}")
    if length < 4:
        raise ValueError(f"cycle length must be >= 4, got {length}")


def has_cycle_of_length(g: BipartiteGraph, length: int) -> tuple[int, ...] | None:
    """Decide exactly whether a simple cycle of this exact length exists.

    Enumerates simple paths from each start vertex s, restricted so that s
    is the smallest global index on the cycle (the path keeps to vertices
    > s) and s's smaller neighbor comes first; each cycle is therefore
    generated at most once.  Returns a validated witness, or None.  Lengths
    refused by :func:`check_cycle_length` raise ValueError; a simple cycle
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

    The starts are those of the start rule in the module docstring: the
    points left out lie on no cycle of the subgraph they would search, and
    the roots leave out only starts that find nothing, so the answer and
    the witness are those of the search from every vertex.
    """
    check_cycle_length(length)
    if length > 2 * min(g.left_count, g.right_count):
        return None
    adj = g.global_adjacency()
    n = len(adj)
    on_path = [False] * n
    # distance back to the current start s; `length` marks "not reached",
    # which exceeds every edge count still left, so the DFS test on dist
    # also keeps the path to vertices > s
    dist = [length] * n

    for s in _starts(g, adj):
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


class DegreeSummary(NamedTuple):
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
