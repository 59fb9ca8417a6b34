"""Shared oracles for the tests.

The layered systems write the D(k, q) equations out by hand in the paper's
notation, independent of the coordinate labels and of the plan.  The graph
oracles avoid the BFS path and the distance pruning of
girthforge.graphs: the cycle oracle enumerates every simple path.
scan_girth is the girth BFS as it was before its cut moved one level
earlier: it scans every vertex at depth d while 2d is below the best
length.  The incidence oracles test every point/line pair, independent of the grouped
lookups in girthforge.geometry.  canonical_planar_line is a general rational
normalizer, independent of the planar reader's triple rule.  The box and
window formulas are written out by position, independent of the family table
in girthforge.families.  The SVG oracle is the original renderer, which
clips and scales with Fraction arithmetic, independent of the integer grid
of girthforge.svg.  The field-graph oracle is the per-edge build: each
neighbour tuple from field_neighbors (one solve_one per point), ranked by
box_rank, fed as an edge list to the BipartiteGraph constructor, independent
of the builder's columns.  Its roots come from the forced-map certificate
over all 2k coordinate translations, independent of the plan's translation
pairs and of their certificate in girthforge.algebraic.  root_orbits is the
O(E) certificate of index permutation pairs on a built graph;
translation_pairs gives it the plan's pairs, each move applied to the
digits of every index by move_permutation, so a pair the plan certifies is
checked again on the graph itself.  point_on_line tests membership by
parallel differences, independent of the cross key; lu_edge_free and
wenger_edge_free run the truncation's row filters on one point.
solve_one is the forward substitution for one fixed vertex, scalar and apart
from the column kernel girthforge.families.substitute that it checks.
rowwise_lines_from_params is the line builder as it was before it went
column-wise: one solve_one, one slope lookup and one key per line, and
line_from_params builds one line with it.  scan_first_collision and
project_line_by_line take the lines one at a time, independent of the
direction groups of girthforge.geometry: the first compares every pair, the
second maps each line through the images of two of its points.  RowReader, with
rowwise_parse_arrangement and rowwise_parse_planar, is the file reader as it
was before it read whole sections: one line split and converted at a time,
each incidence range-checked and each planar triple checked as it is read,
so the first fault in file order is the one named.
"""

import math
import re
from collections import deque
from fractions import Fraction
from itertools import product

from girthforge import algebraic
from girthforge.exactmath import ceil_pow, floor_pow
from girthforge.families import box_rank, family_named, plan_holds_mod
from girthforge.files import ARRANGEMENT_HEADER, MAX_DIM, PLANAR_HEADER, ParseError
from girthforge.geometry import (
    AffineLineKD,
    PlanarArrangement,
    ProjectionError,
    _canonical_direction,
    _check_direction,
    _cross_key,
)
from girthforge.graphs import BipartiteGraph
from girthforge.truncation import TruncatedArrangement, TruncationSpec, lu_points_on, wenger_points_on


def _as_exact(x):
    """Normalize to int when integral so mixed tuples hash and compare cleanly."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


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


def _check_length(vertex, k, name):
    if len(vertex) != k:
        raise ValueError(f"{name} has length {len(vertex)}, expected {k}")


def solve_one(plan, fixed, from_point):
    """(const, slope) for one fixed vertex: its partners are const + slope * x, x the free coordinate.

    The scalar forward substitution, step by step: from a point u,
    v[t] = u[t] + v[a] * u[b]; from a line vertex v, u[t] = v[t] - v[a] * u[b].
    """
    free, steps = plan
    const = [0] * len(fixed)
    slope = [0] * len(fixed)
    slope[free] = 1
    for t, a, b in steps:
        if from_point:
            const[t] = fixed[t] + const[a] * fixed[b]
            slope[t] = slope[a] * fixed[b]
        else:
            const[t] = fixed[t] - fixed[a] * const[b]
            slope[t] = -fixed[a] * slope[b]
    return const, slope


def field_edge(u, v, params):
    """Whether the family's equations hold mod q for point u and line-vertex v."""
    _check_length(u, params.k, "u")
    _check_length(v, params.k, "v")
    return plan_holds_mod(family_named(params.family).plan(params.k), u, v, params.q)


def field_neighbors(u, params):
    """The q neighbors of u, one per value of the free coordinate of v."""
    _check_length(u, params.k, "u")
    q = params.q
    const, slope = solve_one(family_named(params.family).plan(params.k), u, from_point=True)
    return [tuple((c + s * x) % q for c, s in zip(const, slope)) for x in range(q)]


def coordinate_translations(params):
    """The 2k translations x -> x + e_s (mod q) as ("left" or "right", index permutation).

    The k point translations come first, then the k line-vertex
    translations, each in coordinate order; both sides are indexed
    lexicographically.
    """
    k, q = params.k, params.q
    perms = []
    for s in range(k):
        w = q ** (k - 1 - s)
        perms.append(tuple(i - (q - 1) * w if i // w % q == q - 1 else i + w for i in range(q**k)))
    return [(side, perm) for side in ("left", "right") for perm in perms]


def forced_map(perm, other, index):
    """The map b -> index[perm(N(b))] on the other side, or None unless it is a bijection."""
    forced = []
    for nbrs in other:
        b = index.get(tuple(sorted([perm[a] for a in nbrs])))
        if b is None:
            return None
        forced.append(b)
    return forced if len(set(forced)) == len(forced) else None


def neighbourhood_index(adjacency):
    """Each vertex by its neighbourhood, or None if two vertices share one."""
    index = {nbrs: b for b, nbrs in enumerate(adjacency)}
    return index if len(index) == len(adjacency) else None


def forced_map_root_orbits(g, generators):
    """The forced-map certificate of each ("left" or "right", perm) generator; roots g at the passing ones.

    The other side is indexed by neighbourhood, refusing if two of its
    vertices share one; each vertex b there goes to the vertex whose
    neighbourhood is perm(N(b)), refusing if there is none or if that map is
    not a bijection.  Sets g.roots to the smallest point of each orbit of
    the group the passing generators generate (their point maps), or leaves
    it alone if none passes.  Returns, per generator, whether it passed.
    """
    sides = {"left": (g.left_adj, g.right_adj), "right": (g.right_adj, g.left_adj)}
    passed = []
    left_perms = []
    for side, perm in generators:
        moved, other = sides[side]
        index = neighbourhood_index(other)
        forced = None
        if index is not None and sorted(perm) == list(range(len(moved))):
            forced = forced_map(perm, other, index)
        passed.append(forced is not None)
        if forced is not None:
            left_perms.append(perm if side == "left" else forced)
    if left_perms:
        reached = [False] * g.left_count
        roots = []
        for r in range(g.left_count):
            if reached[r]:
                continue
            roots.append(r)
            reached[r] = True
            stack = [r]
            while stack:
                x = stack.pop()
                for perm in left_perms:
                    if not reached[perm[x]]:
                        reached[perm[x]] = True
                        stack.append(perm[x])
        g.roots = tuple(roots)
    return tuple(passed)


def move_permutation(moves, params):
    """The index permutation of F_q^k, lexicographic, under the moves y[t] += c + m * y[r].

    Every move reads the digits of the tuple before any move, as
    girthforge.algebraic.translation_pairs defines them.
    """
    k, q = params.k, params.q
    image = list(range(q**k))
    for t, c, m, r in moves:
        w, v = q ** (k - 1 - t), q ** (k - 1 - r)
        image = [x + ((i // w + c + m * (i // v)) % q - i // w % q) * w for i, x in enumerate(image)]
    return image


def translation_pairs(params):
    """The plan's translation pairs as (point, line) index permutation pairs, for root_orbits."""
    return [
        tuple(move_permutation(moves, params) for moves in pair)
        for pair in algebraic.translation_pairs(params)
    ]


def root_orbits(g, pairs):
    """Root g at the point orbits of the offered pairs that pass an exact O(E) certificate.

    A pair ``(left_perm, right_perm)`` maps the points by T and the lines by
    S.  It is certified when T and S are permutations and the sorted S-image
    of every point's row is the row of its T-image; T and S then carry every
    edge to an edge.  In order, a pair whose T keeps every point in its
    orbit under the pairs certified so far cannot change the roots and is
    skipped uncertified, as is every pair once one orbit remains.  Sets
    ``g.roots`` to the smallest point of each orbit unless no pair is
    certified.  Returns, per pair, True (certified), False (refused, not
    used) or None (skipped).
    """
    n, rows = g.left_count, g.left_adj
    points, lines = list(range(n)), list(range(g.right_count))
    label = points  # the smallest point of each point's orbit
    orbits = n
    statuses = []
    for perm, image in pairs:
        if orbits <= 1:
            certified = None
        elif sorted(perm) != points:
            certified = False
        elif [label[x] for x in perm] == label:
            certified = None
        elif sorted(image) != lines:
            certified = False
        else:
            # map(map, ...) takes the image of every row with no interpreted step per row
            images = map(sorted, map(map, [image.__getitem__] * n, rows))
            certified = list(map(tuple, images)) == [rows[x] for x in perm]
        statuses.append(certified)
        if certified:
            # union-find over the orbits' roots, each joined to the smaller
            up = points[:]
            for a, b in zip(label, [label[x] for x in perm]):
                while up[a] != a:
                    up[a] = a = up[up[a]]
                while up[b] != b:
                    up[b] = b = up[up[b]]
                if a != b:
                    up[max(a, b)] = min(a, b)
                    orbits -= 1
            for x in points:  # up[x] <= x, so up[up[x]] is already final
                up[x] = up[up[x]]
            label = [up[r] for r in label]
    if True in statuses:
        g.roots = tuple(x for x in points if label[x] == x)
    return tuple(statuses)


def per_edge_field_graph(params):
    """The field graph one edge at a time, rooted by the forced-map certificate."""
    k, q = params.k, params.q
    ranges = [(0, q - 1)] * k
    edges = []
    for pi, u in enumerate(product(range(q), repeat=k)):
        for v in field_neighbors(u, params):
            edges.append((pi, box_rank(v, ranges)))
    graph = BipartiteGraph(q**k, q**k, edges)
    forced_map_root_orbits(graph, coordinate_translations(params))
    return graph


def lu_edge_free(u, v, k):
    """Whether point u lies on line vertex v, by girthforge.truncation.lu_points_on."""
    return bool(lu_points_on(v, (u,), k))


def wenger_edge_free(u, v, k):
    """Whether point u lies on line vertex v, by girthforge.truncation.wenger_points_on."""
    return bool(wenger_points_on(v, (u,), k))


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
        if scan_cycle_of_length(graph, length) is not None:
            return length
    raise AssertionError("union-find says cyclic but no cycle was enumerated")


def girth_target(k):
    """The layered graphs' guaranteed girth k + 5, stated for odd k >= 3 only."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"the layered girth bound needs odd k >= 3, got k={k}")
    return k + 5


def scan_cycle_of_length(graph, length):
    """Oracle cycle search: every simple path from every start, no pruning.

    The same generation order as girthforge.graphs.has_cycle_of_length (the
    start is the smallest index on the cycle, its smaller neighbor comes
    first), so both return the same first witness tuple.
    """
    if length % 2 != 0:
        raise ValueError(f"cycle length must be even in a bipartite graph, got {length}")
    if length < 4:
        raise ValueError(f"cycle length must be >= 4, got {length}")
    if length > 2 * min(graph.left_count, graph.right_count):
        return None
    adj = graph.global_adjacency()
    adj_sets = [frozenset(nbrs) for nbrs in adj]
    n = len(adj)
    on_path = [False] * n

    for s in range(n):
        if len(adj[s]) < 2:
            continue
        path = [s]
        on_path[s] = True
        pending = [iter(adj[s])]
        while pending:
            for w in pending[-1]:
                if w > s and not on_path[w]:
                    break
            else:
                pending.pop()
                on_path[path.pop()] = False
                continue
            path.append(w)
            if len(path) < length:
                on_path[w] = True
                pending.append(iter(adj[w]))
            elif s in adj_sets[w] and path[1] < w:
                witness = tuple(path)
                assert is_cycle(graph, witness, length)
                return witness
            else:
                path.pop()
    return None


def scan_girth(graph):
    """Oracle girth report (girth, witness): BFS from every start, cut once 2d reaches the best.

    The starts are the points, or the orbit roots when the graph has them,
    and the start s searches the graph without the vertices below it, so the
    witness is the tuple girthforge.graphs.girth returns.
    """
    adj = graph.global_adjacency()
    n = len(adj)
    best, witness = math.inf, None
    seen, depth, parent = [-1] * n, [0] * n, [-1] * n
    starts = range(graph.left_count) if graph.roots is None else graph.roots
    for s in starts:
        if not adj[s]:
            continue
        seen[s], depth[s], parent[s] = s, 0, -1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = depth[u]
            if 2 * du >= best:
                break
            for w in adj[u]:
                if w < s:
                    continue
                if seen[w] != s:
                    seen[w], depth[w], parent[w] = s, du + 1, u
                    queue.append(w)
                elif w != parent[u] and du + depth[w] + 1 < best:
                    best = du + depth[w] + 1
                    path_u, path_w = [u], [w]
                    while parent[path_u[-1]] != -1:
                        path_u.append(parent[path_u[-1]])
                    while parent[path_w[-1]] != -1:
                        path_w.append(parent[path_w[-1]])
                    witness = tuple(reversed(path_u)) + tuple(path_w[:-1])
    if witness is not None:
        assert is_cycle(graph, witness, best)
    return best, witness


def line_through(point, direction):
    """The canonical AffineLineKD through an exact point with a nonzero integer direction.

    An integral key entry is made an int, so a rational point of an integer
    line, such as point_at(line, 0), gives the line back; a key entry that is
    not integral is refused by AffineLineKD.
    """
    if len(point) != len(direction):
        raise ValueError("point and direction must have equal length")
    direction, pivot = _canonical_direction(direction)
    return AffineLineKD(direction, tuple(map(_as_exact, _cross_key(point, direction, pivot))))


def point_at(line, t):
    """The point key / d_j + t * direction of a line; t = 0 gives the point
    whose pivot coordinate j is zero."""
    dj = line.direction[line.pivot]
    return tuple(_as_exact(Fraction(c, dj) + t * d) for c, d in zip(line.key, line.direction))


def scan_incidence_set_kd(points, lines):
    """Oracle incidences in R^k: the exact membership test on every pair."""
    out = set()
    for lj, line in enumerate(lines):
        base, direction = point_at(line, 0), line.direction
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


def rowwise_lines_from_params(family, params, k):
    """The solution lines of a family's equations, one substitution per parameter tuple."""
    plan = family_named(family).plan(k)
    free = plan[0]
    directions = {}
    lines = []
    for v in params:
        if len(v) != k:
            raise ValueError(f"parameter tuple has length {len(v)}, expected {k}")
        const, slope = solve_one(plan, v, from_point=False)
        slope = tuple(slope)
        canonical = directions.get(slope)
        if canonical is None:
            direction, _ = _canonical_direction(slope)
            canonical = directions[slope] = (direction, _check_direction(direction))
        direction, pivot = canonical
        key = tuple(const) if pivot == free else _cross_key(const, direction, pivot)
        lines.append(AffineLineKD(direction, key))
    return lines


def scan_first_collision(lines):
    """Oracle: the pair (i, j), i < j, of equal lines with the smallest j, or None."""
    for j, line in enumerate(lines):
        for i in range(j):
            if lines[i] == line:
                return i, j
    return None


def line_from_params(family, v, k):
    """The solution line of a family's equations for line parameters v."""
    return rowwise_lines_from_params(family, [v], k)[0]


def point_on_line(point, line):
    """Exact membership in R^k: point - base is parallel to the direction, each coordinate against the pivot."""
    if len(point) != line.dim:
        raise ValueError(f"point has dimension {len(point)}, line has {line.dim}")
    base, direction, j = point_at(line, 0), line.direction, line.pivot
    tj = point[j] - base[j]
    return all((x - b) * direction[j] == tj * d for x, b, d in zip(point, base, direction))


def canonical_planar_line(a, b, c):
    """Scale an exact (a, b, c) of ints or Fractions to the canonical integer
    representative: gcd 1 and the first nonzero of (a, b) positive."""
    if a == 0 and b == 0:
        raise ValueError("(a, b) must not both be zero")
    mult = math.lcm(a.denominator, b.denominator, c.denominator)
    ints = [int(x * mult) for x in (a, b, c)]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    lead = ints[0] if ints[0] else ints[1]
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def scan_planar_incidences(points, lines):
    """Oracle planar incidences: a*x + b*y + c == 0 on every pair."""
    return {
        (pi, lj)
        for lj, (a, b, c) in enumerate(lines)
        for pi, (x, y) in enumerate(points)
        if a * x + b * y + c == 0
    }


def planar_triple(line, pmap):
    """The canonical planar line through the images of two points of the line."""
    (x0, y0), (x1, y1) = pmap.apply(point_at(line, 0)), pmap.apply(point_at(line, 1))
    return canonical_planar_line(y1 - y0, x0 - x1, x1 * y0 - x0 * y1)


def project_line_by_line(points, lines, pmap):
    """Oracle projection: the planar points, the canonical planar line
    through the images of two points of each line, and the planar
    incidences by the pairwise scan.  Raises ProjectionError with the
    messages of project_with_map for colliding points, a degenerate line
    (the first in line order) and colliding lines."""
    flat_points = [pmap.apply(p) for p in points]
    if len(set(flat_points)) != len(flat_points):
        raise ProjectionError("projected points collide")
    flat_lines = []
    for idx, line in enumerate(lines):
        if pmap.apply(point_at(line, 0)) == pmap.apply(point_at(line, 1)):
            raise ProjectionError(f"line {idx} degenerates under the map")
        flat_lines.append(planar_triple(line, pmap))
    if len(set(flat_lines)) != len(flat_lines):
        raise ProjectionError("projected lines collide")
    return flat_points, flat_lines, scan_planar_incidences(flat_points, flat_lines)


def lu3_residues(u, v):
    """D(3, q) by hand: one residue l - p - rhs per equation, p = u the point, l = v the line.

    The (1,1) equation reads p_01, which is p_1.  The pair is an edge
    exactly when every residue vanishes, over the integers for a truncation
    or mod q in the field graph.
    """
    p1, p11, p12 = u[:3]
    l1, l11, l12 = v[:3]
    return [
        l11 - p11 - l1 * p1,
        l12 - p12 - l11 * p1,
    ]


def lu5_residues(u, v):
    """k = 5 adds p_21 and p_22; the (2,1) equation reads p'_11, which is p_11."""
    p1, p11, p12, p21, p22 = u[:5]
    l1, l11, l12, l21, l22 = v[:5]
    return lu3_residues(u, v) + [
        l21 - p21 - l1 * p11,
        l22 - p22 - l1 * p12,
    ]


def lu7_residues(u, v):
    """k = 7 adds p'_22 and p_23."""
    p1, p11, p12, p21, p22, pp22, p23 = u[:7]
    l1, l11, l12, l21, l22, lp22, l23 = v[:7]
    return lu5_residues(u, v) + [
        lp22 - pp22 - l21 * p1,
        l23 - p23 - l22 * p1,
    ]


def lu9_residues(u, v):
    """k = 9 adds p_32 and p_33."""
    p1, p11, p12, p21, p22, pp22, p23, p32, p33 = u[:9]
    l1, l11, l12, l21, l22, lp22, l23, l32, l33 = v[:9]
    return lu7_residues(u, v) + [
        l32 - p32 - l1 * pp22,
        l33 - p33 - l1 * p23,
    ]


LU_BY_HAND = {3: lu3_residues, 5: lu5_residues, 7: lu7_residues, 9: lu9_residues}


def bumped(w, t, d):
    """The tuple w with coordinate t moved by d."""
    return w[:t] + (w[t] + d,) + w[t + 1 :]


def lu_boxes_by_position(k, n):
    """The layered point and line boxes, closed ranges [lo, hi] by position.

    The unit exponent is 4/(k^2 + 6k - 3).  Position 0 has weight 1, point
    scale 1 and line scale 2.  From position 1 on the coordinates come in
    blocks of four, (1,1) (1,2) (2,1) (2,2) and then primed(b+1) (b+1,b+2)
    (b+2,b+1) (b+2,b+2) for block b >= 1; the weight is i + j and the line
    scale is 4 for primed and (i, i+1), 3 for the rest.
    """
    step = Fraction(4, k * k + 6 * k - 3)
    weights, scales = [1], [2]
    for t in range(1, k):
        block, o = divmod(t - 1, 4)
        weights.append(2 * block + 2 + (0, 1, 1, 2)[o])
        scales.append((4 if block else 3, 4, 3, 3)[o])
    points = [(0, floor_pow(n, w * step)) for w in weights]
    lines = [(0, floor_pow(n, w * step, s)) for w, s in zip(weights, scales)]
    return points, lines


def wenger_boxes_by_position(k, n):
    """The positional point and line boxes: coordinate i has exponent (k - i) * 2/(k(k+1)).

    Points: [0, 2^(2(k-i-1)) n^e].  Lines: [2^(2(k-i-1)-1) n^e, 2^(2(k-i-1)) n^e],
    except [n^e, 2 n^e] for the last coordinate; lower ends ceiled.
    """
    step = Fraction(2, k * (k + 1))
    points, lines = [], []
    for i in range(k):
        e, s = (k - i) * step, 2 ** (2 * (k - i - 1))
        points.append((0, floor_pow(n, e, s)))
        if i < k - 1:
            lines.append((ceil_pow(n, e, s // 2), floor_pow(n, e, s)))
        else:
            lines.append((ceil_pow(n, e), floor_pow(n, e, 2)))
    return points, lines


def paper_window_by_hand(family, k, n):
    """Ends of the open prime window, lower end floored and upper end ceiled.

    Layered: (4 n^(8/k), 8 n^(8/k)).  Positional: (4^k n^(2/k), 2 4^k n^(2/k)).
    """
    if family == "lu":
        return floor_pow(n, Fraction(8, k), 4), ceil_pow(n, Fraction(8, k), 8)
    return floor_pow(n, Fraction(2, k), 2 ** (2 * k)), ceil_pow(n, Fraction(2, k), 2 ** (2 * k + 1))


_CANVAS_W = 800
_CANVAS_H = 600
_MARGIN = 40


def fraction_viewport(points):
    xs = [Fraction(p[0]) for p in points]
    ys = [Fraction(p[1]) for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    pad_x = max((xmax - xmin) / 20, Fraction(1))
    pad_y = max((ymax - ymin) / 20, Fraction(1))
    return (xmin - pad_x, xmax + pad_x), (ymin - pad_y, ymax + pad_y)


def fraction_clip_line(a, b, c, xspan, yspan):
    """Endpoints of a*x + b*y + c = 0 inside the closed box, or None."""
    (xmin, xmax), (ymin, ymax) = xspan, yspan
    candidates = []
    if b != 0:
        for x in (xmin, xmax):
            y = Fraction(-(c + a * x), b)
            if ymin <= y <= ymax:
                candidates.append((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = Fraction(-(c + b * y), a)
            if xmin <= x <= xmax:
                candidates.append((x, y))
    distinct = sorted(set(candidates))
    if len(distinct) < 2:
        return None
    return distinct[0], distinct[-1]


def fraction_export_svg(planar: PlanarArrangement) -> str:
    """Oracle SVG: the original renderer, every coordinate a Fraction until formatting."""
    if not planar.points:
        raise ValueError("cannot render an empty arrangement")
    xspan, yspan = fraction_viewport(planar.points)

    sx = Fraction(_CANVAS_W - 2 * _MARGIN, 1) / (xspan[1] - xspan[0])
    sy = Fraction(_CANVAS_H - 2 * _MARGIN, 1) / (yspan[1] - yspan[0])

    def to_px(pt):
        px = _MARGIN + (Fraction(pt[0]) - xspan[0]) * sx
        py = _CANVAS_H - _MARGIN - (Fraction(pt[1]) - yspan[0]) * sy
        return f"{float(px):.3f}", f"{float(py):.3f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS_W}" height="{_CANVAS_H}" '
        f'viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
    ]
    for a, b, c in planar.lines:
        seg = fraction_clip_line(a, b, c, xspan, yspan)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        px1, py1 = to_px((x1, y1))
        px2, py2 = to_px((x2, y2))
        out.append(
            f'<line x1="{px1}" y1="{py1}" x2="{px2}" y2="{py2}" '
            f'stroke="#3465a4" stroke-width="0.6"/>'
        )
    for pt in planar.points:
        px, py = to_px(pt)
        out.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="#cc0000"/>')
    caption = (
        f"points={len(planar.points)} lines={len(planar.lines)} "
        f"incidences={len(planar.incidences)}"
    )
    out.append(
        f'<text x="{_MARGIN}" y="{_CANVAS_H - 12}" '
        f'font-family="monospace" font-size="14">{caption}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


_LEADING_ZERO = re.compile(r"\s0[0-9]")


class RowReader:
    """The file reader one line at a time: every row is split and converted on its own."""

    def __init__(self, text):
        self.lines = [(at, s) for at, line in enumerate(text.splitlines(), 1) if (s := line.strip())]
        self.lines.reverse()
        self.at = 0
        self.plain = text.isascii() and not (
            "+" in text or "_" in text or "-0" in text or _LEADING_ZERO.search(text)
        )

    def next_line(self):
        if not self.lines:
            raise ParseError("unexpected end of file")
        self.at, line = self.lines.pop()
        return line

    def keyword(self, key):
        line = self.next_line()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ParseError(f"expected '{key} ...', got {line!r}")
        return rest.strip()

    def int_field(self, key):
        value = self.keyword(key)
        try:
            x = int(value)
        except ValueError as exc:
            raise ParseError(f"bad integer for {key!r}: {value!r}") from exc
        if str(x) != value:
            raise ParseError(f"bad integer for {key!r}: {value!r}")
        return x

    def count_field(self, key):
        value = self.int_field(key)
        if value < 0:
            raise ParseError(f"negative count for {key!r}: {value}")
        return value

    def row(self, width, convert=None):
        line = self.next_line()
        parts = line.split()
        if len(parts) != width:
            raise ParseError(f"line {self.at}: expected {width} fields, got {len(parts)}")
        try:
            if convert is not None:
                return tuple(map(convert, parts))
            values = tuple(map(int, parts))
            if not self.plain and list(map(str, values)) != parts:
                raise ValueError("not a canonical integer")
            return values
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {self.at}: bad field in {line!r}") from exc


def rowwise_parse_arrangement(text):
    r = RowReader(text)
    if r.next_line() != ARRANGEMENT_HEADER:
        raise ParseError(f"missing header {ARRANGEMENT_HEADER!r}")
    k = r.int_field("dim")
    if k > MAX_DIM:
        raise ParseError(f"dim {k} is above the ceiling of {MAX_DIM}")
    family = r.keyword("family")
    n = r.int_field("n")
    try:
        TruncationSpec(family, k, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    n_points = r.count_field("points")
    n_lines = r.count_field("lines")
    points = tuple(r.row(k) for _ in range(n_points))
    if len(set(points)) != len(points):
        raise ParseError("duplicate point")
    line_params = tuple(r.row(k) for _ in range(n_lines))
    edges = _rowwise_incidences(r, n_points, n_lines)
    return TruncatedArrangement(family, k, n, points, line_params, edges)


def _rowwise_incidences(r, n_points, n_lines):
    count = r.count_field("incidences")
    edges = []
    for _ in range(count):
        pi, lj = r.row(2)
        if not (0 <= pi < n_points and 0 <= lj < n_lines):
            raise ParseError(f"incidence ({pi}, {lj}) out of range")
        edges.append((pi, lj))
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate incidence pair")
    if r.lines:
        at, line = r.lines[-1]
        raise ParseError(f"line {at}: trailing content: {line!r}")
    return tuple(sorted(edges))


def _rowwise_rational(token):
    num, _, den = token.partition("/")
    x = Fraction(int(num), int(den))
    if token != f"{x.numerator}/{x.denominator}":
        raise ValueError(f"not a canonical rational: {token!r}")
    return _as_exact(x)


def rowwise_parse_planar(text):
    r = RowReader(text)
    if r.next_line() != PLANAR_HEADER:
        raise ParseError(f"missing header {PLANAR_HEADER!r}")
    n_points = r.count_field("points")
    points = tuple(r.row(2, _rowwise_rational) for _ in range(n_points))
    if len(set(points)) != len(points):
        raise ParseError("duplicate planar point")
    n_lines = r.count_field("lines")
    lines = []
    for _ in range(n_lines):
        a, b, c = r.row(3)
        if not (math.gcd(a, b, c) == 1 and (a or b) > 0):
            raise ParseError(f"line ({a}, {b}, {c}) is not in canonical form")
        lines.append((a, b, c))
    if len(set(lines)) != len(lines):
        raise ParseError("duplicate planar line")
    edges = _rowwise_incidences(r, n_points, n_lines)
    return PlanarArrangement(points, tuple(lines), frozenset(edges))
