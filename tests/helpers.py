"""Shared oracles for the tests.

The graph oracles avoid the BFS path; the incidence oracles test every
point/line pair, independent of the grouped lookups in girthforge.geometry.
"""

import math

from girthforge.graphs import BipartiteGraph, has_cycle_of_length


def is_cycle(graph, witness, length):
    if len(witness) != length or len(set(witness)) != length:
        return False
    adj = graph.global_adjacency()
    return all(b in adj[a] for a, b in zip(witness, witness[1:] + witness[:1]))


def random_bipartite(rng):
    n_left = rng.randint(2, 20)
    n_right = rng.randint(2, 20)
    possible = [(i, j) for i in range(n_left) for j in range(n_right)]
    max_edges = min(len(possible), int(1.2 * (n_left + n_right)))
    count = rng.randint(0, max_edges)
    return BipartiteGraph(n_left, n_right, rng.sample(possible, count))


def union_find_has_cycle(graph):
    """Forest check by union-find, independent of any traversal code."""
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    off = graph.left_count
    for i, j in graph.edges():
        a, b = find(i), find(off + j)
        if a == b:
            return True
        parent[a] = b
    return False


def enumeration_girth(graph):
    """Oracle girth: ascending scan of exact cycle lengths, infinite for forests."""
    if not union_find_has_cycle(graph):
        return math.inf
    bound = 2 * min(graph.left_count, graph.right_count)
    for length in range(4, bound + 1, 2):
        if has_cycle_of_length(graph, length) is not None:
            return length
    raise AssertionError("union-find says cyclic but no cycle was enumerated")


def scan_incidence_set_kd(points, lines):
    """Oracle incidences in R^k: the exact membership test on every pair."""
    out = set()
    for lj, line in enumerate(lines):
        base, direction = line.point_at(0), line.direction
        dim = line.dim
        j = line.pivot
        dj = direction[j]
        bj = base[j]
        for pi, p in enumerate(points):
            if len(p) != dim:
                raise ValueError(f"point {pi} has dimension {len(p)}, line has {dim}")
            tj = p[j] - bj
            for x, b, d in zip(p, base, direction):
                if (x - b) * dj != tj * d:
                    break
            else:
                out.add((pi, lj))
    return out


def scan_planar_incidences(points, lines):
    """Oracle planar incidences: a*x + b*y + c == 0 on every pair."""
    return {
        (pi, lj)
        for lj, (a, b, c) in enumerate(lines)
        for pi, (x, y) in enumerate(points)
        if a * x + b * y + c == 0
    }
