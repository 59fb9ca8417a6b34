import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from girthforge import algebraic
from girthforge.algebraic import (
    FieldParams,
    LUParams,
    WengerParams,
    build_lu_graph,
    build_wenger_graph,
    certify_pair,
    freed_coordinates,
)
from helpers import (
    coordinate_translations,
    enumeration_girth,
    forced_map,
    forced_map_root_orbits,
    girth_target,
    is_cycle,
    neighbourhood_index,
    move_permutation,
    random_bipartite,
    root_orbits,
    scan_cycle_of_length,
    scan_girth,
    translation_pairs,
    union_find_has_cycle,
)

from girthforge.graphs import (
    BipartiteGraph,
    degree_stats,
    girth,
    has_cycle_of_length,
    st_ratio,
    theoretical_exponent,
)
from girthforge.truncation import TruncationSpec, WengerTruncationSpec, build_truncated


def hexagon():
    # 6-cycle: U0-V0-U1-V1-U2-V2-U0
    return BipartiteGraph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


def path_graph():
    return BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])


def transpose(g):
    """The same graph with its sides swapped."""
    return BipartiteGraph(g.right_count, g.left_count, [(j, i) for i, j in g.edges()])


def rootless(g):
    """The same graph built by the constructor, so without orbit roots."""
    return BipartiteGraph(g.left_count, g.right_count, g.edges())


# field graphs whose rooted searches are compared with the unpruned oracles
ROOTED_FIELD_GRAPHS = (
    ("lu", 3, 3),
    ("lu", 5, 3),
    ("wenger", 2, 5),
    ("wenger", 3, 5),
    ("wenger", 5, 2),
)

# The benchmark's field graphs: the status of each plan pair, in order.
WORKLOAD_STATUSES = {
    ("lu", 3, 7): (True, True, True, None),
    ("wenger", 3, 7): (True, True, True, None),
    ("wenger", 5, 3): (True, True, True, True, True, None),
    ("lu", 5, 5): (True, True, True, None, None),
    ("wenger", 2, 23): (True, True, None, None),
}

# The benchmark's field graphs: the coordinates their plan pairs free.
WORKLOAD_FREED = {
    ("lu", 3, 7): {1, 2},
    ("wenger", 3, 7): {0, 1, 2},
    ("wenger", 5, 3): {0, 1, 2, 3, 4},
    ("lu", 5, 5): {2, 3, 4},
    ("wenger", 2, 23): {0, 1},
}

# Every rooted field graph whose girth and cycle answers are compared across search orders.
FIELD_GRAPHS = ROOTED_FIELD_GRAPHS + tuple(WORKLOAD_STATUSES)


def field_graph(family, k, q):
    if family == "lu":
        return build_lu_graph(LUParams(k, q))
    return build_wenger_graph(WengerParams(k, q))


@st.composite
def bipartite_graphs(draw, min_side=2):
    """Sparse bipartite graphs, either side the larger, some vertices isolated."""
    left_count, right_count = draw(st.integers(min_side, 9)), draw(st.integers(min_side, 9))
    isolated_left = draw(st.sets(st.integers(0, left_count - 1), max_size=2))
    isolated_right = draw(st.sets(st.integers(0, right_count - 1), max_size=2))
    pairs = [
        (i, j)
        for i in range(left_count)
        for j in range(right_count)
        if i not in isolated_left and j not in isolated_right
    ]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=int(1.5 * (left_count + right_count)))
        if pairs
        else st.just([])
    )
    return BipartiteGraph(left_count, right_count, edges)


@st.composite
def graphs_with_trees(draw):
    """bipartite_graphs with paths and trees hung off them, both sides' indices shuffled."""
    g = draw(bipartite_graphs(min_side=1))
    left, right, edges = g.left_count, g.right_count, g.edges()
    for _ in range(draw(st.integers(0, 14))):
        # a new point on a line, or a new line through a point; taking the
        # newest vertex of the other side grows a path
        new_point = draw(st.booleans())
        other = right if new_point else left
        j = draw(st.just(other - 1) | st.integers(0, other - 1))
        if new_point:
            edges.append((left, j))
            left += 1
        else:
            edges.append((j, right))
            right += 1
    points = draw(st.permutations(range(left)))
    lines = draw(st.permutations(range(right)))
    return BipartiteGraph(left, right, [(points[i], lines[j]) for i, j in edges])


class CountingRows(tuple):
    """A global adjacency that counts the rows read by index."""

    reads = 0

    def __getitem__(self, v):
        CountingRows.reads += 1
        return tuple.__getitem__(self, v)


def long_path(points):
    """The path U0-V0-U1-V1-...-U(points-1)."""
    return [(i, i) for i in range(points - 1)] + [(i + 1, i) for i in range(points - 1)]


class TestBipartiteGraph:
    def test_adjacency_sorted_and_mirrored(self):
        g = BipartiteGraph(2, 3, [(0, 2), (0, 0), (1, 1)])
        assert g.left_adj == ((0, 2), (1,))
        assert g.right_adj == ((0,), (1,), (0,))
        assert g.edge_count == 3
        assert g.edges() == [(0, 0), (0, 2), (1, 1)]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range$"):
            BipartiteGraph(2, 2, [(0, 5)])
        with pytest.raises(ValueError, match=r"^edge \(2, 0\) out of range$"):
            BipartiteGraph(2, 2, [(0, 0), (2, 0)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 0\)$"):
            BipartiteGraph(2, 2, [(0, 0), (0, 0)])
        for counts in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="^vertex counts must be nonnegative$"):
                BipartiteGraph(*counts, [])

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rows_give_the_graph_of_the_edge_list(self, rng):
        plain = random_bipartite(rng)
        edges = plain.edges()
        rng.shuffle(edges)
        rows = [[j for i, j in edges if i == a] for a in range(plain.left_count)]
        g = BipartiteGraph.from_rows(plain.right_count, rows)
        assert g == plain == BipartiteGraph(plain.left_count, plain.right_count, edges)
        assert g.left_adj == tuple(tuple(sorted(row)) for row in rows)
        assert g.right_adj == tuple(
            tuple(sorted(i for i, j in edges if j == b)) for b in range(plain.right_count)
        )
        assert g.roots is None

    @pytest.mark.parametrize(
        "right_count,rows,message",
        [
            (3, [[0], [2, 1, 2]], r"^duplicate edge \(1, 2\)$"),
            (3, [[0], [1, -1]], r"^edge \(1, -1\) out of range$"),
            (3, [[3, 0]], r"^edge \(0, 3\) out of range$"),
            (-1, [], "^vertex counts must be nonnegative$"),
        ],
        ids=["repeated-neighbour", "rank-minus-one", "rank-at-right-count", "negative-count"],
    )
    def test_rows_are_refused(self, right_count, rows, message):
        with pytest.raises(ValueError, match=message):
            BipartiteGraph.from_rows(right_count, rows)

    def test_labels(self):
        g = BipartiteGraph(2, 2, [(0, 0)])
        assert g.vertex_label(1) == "U1"
        assert g.vertex_label(2) == "V0"
        with pytest.raises(ValueError):
            g.vertex_label(4)

    def test_global_adjacency_offsets_right_side(self):
        g = hexagon()
        adj = g.global_adjacency()
        assert adj[0] == (3, 5)
        assert adj[3] == (0, 1)

    def test_global_adjacency_is_one_tuple_that_equality_ignores(self):
        g = build_lu_graph(LUParams(3, 3))
        adj = g.global_adjacency()
        assert type(adj) is tuple and all(type(nbrs) is tuple for nbrs in adj)
        assert g.global_adjacency() is adj
        fresh = build_lu_graph(LUParams(3, 3))
        assert g == fresh and hash(g) == hash(fresh)
        assert g == rootless(g) and hash(g) == hash(rootless(g))

    @pytest.mark.parametrize(
        "family,k,q,length", [("lu", 3, 3, 8), ("lu", 3, 3, 12), ("wenger", 2, 5, 6)]
    )
    def test_searches_after_one_another_match_a_fresh_copy(self, family, k, q, length):
        g = field_graph(family, k, q)
        report, witness = girth(g), has_cycle_of_length(g, length)
        assert witness is not None
        fresh = field_graph(family, k, q)
        assert has_cycle_of_length(fresh, length) == witness
        assert girth(fresh) == report


class TestGirth:
    def test_hexagon(self):
        report = girth(hexagon())
        assert report.girth == 6
        assert is_cycle(hexagon(), report.witness, 6)

    def test_tree_is_acyclic(self):
        report = girth(path_graph())
        assert report.girth == math.inf
        assert report.witness is None

    def test_complete_bipartite_2x2(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert girth(g).girth == 4

    def test_layered_graph_girth_is_exact(self):
        g = build_lu_graph(LUParams(3, 3))
        report = girth(g)
        assert report.girth == 8
        assert is_cycle(g, report.witness, 8)
        # exhaustive enumeration agrees: nothing shorter, something at 8
        assert has_cycle_of_length(g, 4) is None
        assert has_cycle_of_length(g, 6) is None
        assert has_cycle_of_length(g, 8) is not None

    def test_empty_graph(self):
        assert girth(BipartiteGraph(0, 0, [])).girth == math.inf

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs())
    def test_girth_does_not_depend_on_which_side_is_left(self, g):
        report = girth(g)
        assert report.girth == girth(transpose(g)).girth == enumeration_girth(g)
        if report.witness is not None:
            assert is_cycle(g, report.witness, report.girth)

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs(min_side=1))
    def test_same_report_as_the_scan_cut_a_level_later(self, g):
        # the cut at 2d + 2 leaves the girth and the witness tuple as they were
        assert girth(g) == scan_girth(g)

    @pytest.mark.parametrize("family, k, q", FIELD_GRAPHS)
    def test_same_report_as_the_scan_cut_a_level_later_on_field_graphs(self, family, k, q):
        g = field_graph(family, k, q)
        assert g.roots is not None
        assert girth(g) == scan_girth(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs_with_trees())
    def test_same_answers_as_the_scans_with_trees_hung_off(self, g):
        # the points a peel leaves out are no starts, and change no answer or witness
        assert girth(g) == scan_girth(g)
        for length in range(4, 13, 2):
            assert has_cycle_of_length(g, length) == scan_cycle_of_length(g, length), length

    @pytest.mark.parametrize("shape, expected", [("path", math.inf), ("path and hexagon", 6), ("cycle", 4000)])
    def test_a_long_path_or_cycle_costs_linear_work(self, shape, expected):
        # 2,000 points on a path; with a hexagon U2000-V1999-U2001-V2000-U2002-V2001
        # hung at U1999; or closed into one cycle by the line V1999 through U1999 and U0
        edges = long_path(2000)
        points, lines = 2000, 1999
        if shape == "path and hexagon":
            edges += [(1999, 1999)] + [(2000 + i, 1999 + i) for i in range(3)]
            edges += [(2000 + (i + 1) % 3, 1999 + i) for i in range(3)]
            points, lines = 2003, 2002
        elif shape == "cycle":
            edges += [(1999, 1999), (0, 1999)]
            lines = 2000
        g = BipartiteGraph(points, lines, edges)
        g._global_adj = CountingRows(g.global_adjacency())
        CountingRows.reads = 0
        report = girth(g)
        assert report.girth == expected
        assert CountingRows.reads <= 2 * (g.vertex_count + g.edge_count)

    def test_truncated_wenger_with_the_smaller_right_side(self):
        # 822 points on the left, 408 lines on the right: starts are still points
        g = build_truncated(WengerTruncationSpec(2, 200)).to_bipartite_graph()
        assert (g.left_count, g.right_count) == (822, 408)
        report = girth(g)
        assert report.girth == 6
        assert is_cycle(g, report.witness, 6)


class TestCycleOfLength:
    def test_four_cycle_found(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        witness = has_cycle_of_length(g, 4)
        assert witness is not None
        assert is_cycle(g, witness, 4)

    def test_hexagon_has_no_four_cycle(self):
        assert has_cycle_of_length(hexagon(), 4) is None
        assert has_cycle_of_length(hexagon(), 6) is not None

    def test_wenger_instances_are_cycle_free(self):
        assert has_cycle_of_length(build_wenger_graph(WengerParams(2, 3)), 4) is None
        assert has_cycle_of_length(build_wenger_graph(WengerParams(5, 2)), 10) is None

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            has_cycle_of_length(hexagon(), 5)

    def test_short_length_rejected(self):
        with pytest.raises(ValueError):
            has_cycle_of_length(hexagon(), 2)

    def test_length_beyond_twice_the_smaller_side_is_none_at_once(self):
        # 32 + 32 vertices: no simple cycle is longer than 64
        g = build_wenger_graph(WengerParams(5, 2))
        start = time.perf_counter()
        assert has_cycle_of_length(g, 52) is None
        assert has_cycle_of_length(g, 66) is None
        assert has_cycle_of_length(g, 10**6) is None
        assert time.perf_counter() - start < 1.0
        k23 = BipartiteGraph(2, 3, [(i, j) for i in range(2) for j in range(3)])
        assert has_cycle_of_length(k23, 4) is not None
        assert has_cycle_of_length(k23, 6) is None

    def test_longer_even_cycles_in_big_even_cycle(self):
        # a single 12-cycle contains exactly one cycle: the whole thing
        edges = [(i, i) for i in range(6)] + [((i + 1) % 6, i) for i in range(6)]
        g = BipartiteGraph(6, 6, edges)
        assert girth(g).girth == 12
        for length in (4, 6, 8, 10):
            assert has_cycle_of_length(g, length) is None
        witness = has_cycle_of_length(g, 12)
        assert is_cycle(g, witness, 12)

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs())
    def test_same_witness_as_the_unpruned_scan(self, g):
        for length in range(4, 2 * min(g.left_count, g.right_count) + 1, 2):
            assert has_cycle_of_length(g, length) == scan_cycle_of_length(g, length)

    def test_same_witness_as_the_unpruned_scan_on_field_graphs(self):
        for g, lengths in (
            (rootless(build_lu_graph(LUParams(3, 3))), (4, 6, 8, 10)),
            (rootless(build_wenger_graph(WengerParams(2, 5))), (4, 6, 8)),
            (rootless(build_wenger_graph(WengerParams(3, 5))), (4, 6, 8)),
        ):
            for length in lengths:
                assert has_cycle_of_length(g, length) == scan_cycle_of_length(g, length)

    @pytest.mark.parametrize("family, k, q", ROOTED_FIELD_GRAPHS)
    def test_rooted_search_agrees_with_the_unpruned_scan_on_field_graphs(self, family, k, q):
        # the smallest vertex on any cycle of a length is a root, so even the
        # witnesses are those of the searches from every vertex
        g = field_graph(family, k, q)
        assert g.roots is not None
        for length in range(4, min(12, 2 * g.left_count) + 1, 2):
            witness = has_cycle_of_length(g, length)
            assert witness == scan_cycle_of_length(g, length), length
            if witness is not None:
                assert is_cycle(g, witness, length)
        report = girth(g)
        assert report == girth(rootless(g))
        assert report.girth == enumeration_girth(g)
        assert is_cycle(g, report.witness, report.girth)

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs(min_side=1))
    def test_answers_do_not_depend_on_a_girth_taken_first(self, g):
        # neither search keeps state on the graph that the other could read
        first = rootless(g)
        girth(first)
        for length in range(4, min(2 * min(g.left_count, g.right_count), 10) + 1, 2):
            assert has_cycle_of_length(first, length) == has_cycle_of_length(g, length)

    @pytest.mark.parametrize("family, k, q", FIELD_GRAPHS)
    def test_answers_do_not_depend_on_a_girth_taken_first_on_field_graphs(self, family, k, q):
        g, first = field_graph(family, k, q), field_graph(family, k, q)
        girth(first)
        for length in range(4, min(2 * g.left_count, 10) + 1, 2):
            assert has_cycle_of_length(first, length) == has_cycle_of_length(g, length), length

    def test_cycle_longer_than_the_recursion_limit(self):
        # one 1200-cycle: every simple path of the search grows to 1200 vertices
        edges = [(i, i) for i in range(600)] + [(i, (i + 1) % 600) for i in range(600)]
        g = BipartiteGraph(600, 600, edges)
        witness = has_cycle_of_length(g, 1200)
        assert is_cycle(g, witness, 1200)
        assert has_cycle_of_length(g, 1198) is None


@st.composite
def cyclic_covers(draw):
    """A c-fold cyclic cover of a small bipartite graph, relabelled at random,
    with the shift of the copies on the left and on the right.

    Left (i, x) joins right (j, x + volt) for each base edge (i, j) with its
    voltage, so x -> x + 1 on both sides is an automorphism.  Shifting the
    right copies by 2 instead is not: an edge's image would need the voltage
    of its base edge plus 1, and the base edges are distinct.
    """
    base_left, base_right, c = (draw(st.integers(2, 4)) for _ in range(3))
    pairs = [(i, j) for i in range(base_left) for j in range(base_right)]
    base = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2, max_size=8))
    volts = draw(st.lists(st.integers(0, c - 1), min_size=len(base), max_size=len(base)))
    left_label = draw(st.permutations(range(base_left * c)))
    right_label = draw(st.permutations(range(base_right * c)))
    edges = [
        (left_label[i * c + x], right_label[j * c + (x + v) % c])
        for (i, j), v in zip(base, volts)
        for x in range(c)
    ]

    def shift(label, count, by):
        moved = [0] * (count * c)
        for i in range(count):
            for x in range(c):
                moved[label[i * c + x]] = label[i * c + (x + by) % c]
        return moved

    graph = BipartiteGraph(base_left * c, base_right * c, edges)
    left, right = shift(left_label, base_left, 1), shift(right_label, base_right, 1)
    return graph, left, right, shift(right_label, base_right, 2)


# Every field graph whose plan pairs are checked against the forced-map oracle.
PAIR_GRAPHS = (
    [("lu", 3, q) for q in (2, 3, 5, 7, 11)]
    + [("lu", 5, q) for q in (3, 5, 7)]
    + [("lu", 7, 3), ("lu", 7, 5), ("lu", 9, 2), ("lu", 9, 3)]
    + [("wenger", 2, q) for q in (2, 5, 23, 97)]
    + [("wenger", 3, q) for q in (2, 5, 7)]
    + [("wenger", 5, q) for q in (2, 3, 7)]
)


class TestOrbitRoots:
    @settings(max_examples=200, deadline=None)
    @given(cyclic_covers())
    def test_rooted_searches_match_the_searches_from_every_vertex(self, cover):
        g, shift, right_shift, wrong_shift = cover
        plain = rootless(g)
        assert root_orbits(g, [(shift, wrong_shift), (shift, right_shift)]) == (False, True)
        smallest = set()
        for v in range(g.left_count):
            orbit = [v]
            while shift[orbit[-1]] != v:
                orbit.append(shift[orbit[-1]])
            smallest.add(min(orbit))
        assert g.roots == tuple(sorted(smallest))
        report = girth(g)
        assert report.girth == enumeration_girth(plain)
        assert report == girth(plain)
        for length in range(4, 2 * min(g.left_count, g.right_count) + 1, 2):
            witness = has_cycle_of_length(g, length)
            assert witness == scan_cycle_of_length(plain, length), length

    @pytest.mark.parametrize("family,k,q", PAIR_GRAPHS)
    def test_plan_pairs_agree_with_the_forced_map_oracle(self, family, k, q):
        params = FieldParams(family, k, q)
        g = field_graph(family, k, q)
        pairs = translation_pairs(params)
        assert False not in root_orbits(rootless(g), pairs)
        oracle = rootless(g)
        forced_map_root_orbits(oracle, coordinate_translations(params))
        assert g.roots == oracle.roots
        right_index, left_index = neighbourhood_index(g.right_adj), neighbourhood_index(g.left_adj)
        for perm, image in pairs:
            assert forced_map(perm, g.right_adj, right_index) == list(image)
            assert forced_map(image, g.left_adj, left_index) == list(perm)
        # each pair the plan certifies passes the O(E) certificate on its own
        for moves, perms in zip(algebraic.translation_pairs(params), pairs):
            assert certify_pair(params, moves)
            assert root_orbits(oracle, [perms]) == (True,)

    @pytest.mark.parametrize("key", WORKLOAD_STATUSES)
    def test_workload_graphs_certify_the_pinned_pairs(self, key):
        g = rootless(field_graph(*key))
        assert root_orbits(g, translation_pairs(FieldParams(*key))) == WORKLOAD_STATUSES[key]

    @pytest.mark.parametrize("key", WORKLOAD_FREED)
    def test_workload_graphs_free_the_pinned_coordinates(self, key):
        params = FieldParams(*key)
        assert freed_coordinates(params, algebraic.translation_pairs(params)) == WORKLOAD_FREED[key]

    def test_a_pair_stripped_of_its_product_term_is_refused(self):
        # D(5,5)'s point pair at coordinate 2 needs S(v)[4] = v[4] + v[0],
        # from the step v[4] - u[4] = v[0] * u[2]
        params = LUParams(5, 5)
        pair = algebraic.translation_pairs(params)[0]
        assert pair == (((2, 1, 0, 2),), ((2, 1, 0, 1), (4, 0, 1, 0)))
        stripped = (pair[0], pair[1][:1])
        assert certify_pair(params, pair) and freed_coordinates(params, [pair]) == {2}
        assert not certify_pair(params, stripped)
        assert freed_coordinates(params, [stripped]) == frozenset()
        g = rootless(build_lu_graph(params))
        assert root_orbits(g, [[move_permutation(moves, params) for moves in stripped]]) == (False,)

    def test_a_move_reading_a_coordinate_its_map_moves_is_refused(self):
        # H_2(5)'s point pair at 1 followed by its line pair at 1 is an
        # automorphism whose edge polynomial maps to itself, but each map
        # moves coordinate 1 and reads it in the move of coordinate 0
        params = WengerParams(2, 5)
        pair = (((0, -1, -1, 1), (1, 1, 0, 1)), ((0, 0, 1, 1), (1, 1, 0, 1)))
        g = rootless(build_wenger_graph(params))
        assert root_orbits(g, [[move_permutation(moves, params) for moves in pair]]) == (True,)
        assert not certify_pair(params, pair)
        # a second move of one coordinate is refused as well
        shift = algebraic.translation_pairs(params)[0]
        assert certify_pair(params, shift)
        assert not certify_pair(params, (shift[0] + ((0, 0, 0, 0),), shift[1]))

    def test_lu_k5_q5_offers_the_recorded_translations(self):
        params = LUParams(5, 5)
        pairs = translation_pairs(params)
        translations = coordinate_translations(params)
        # points: coordinates 2-4; line vertices: coordinates 3-4
        assert [list(perm) for perm, _ in pairs[:3]] == [list(perm) for _, perm in translations[2:5]]
        assert [list(image) for _, image in pairs[3:]] == [list(perm) for _, perm in translations[8:]]
        g = rootless(build_lu_graph(params))
        assert root_orbits(g, pairs) == (True, True, True, None, None)
        assert len(g.roots) == 25
        assert g.roots == build_lu_graph(params).roots

    def test_wenger_translations_give_one_orbit(self):
        for k, p in ((2, 5), (3, 5), (5, 2)):
            g = build_wenger_graph(WengerParams(k, p))
            assert g.roots == (0,)

    def test_a_pair_with_two_images_swapped_is_refused(self):
        g = rootless(build_lu_graph(LUParams(3, 3)))
        perm, image = translation_pairs(LUParams(3, 3))[0]
        swapped = list(image)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert root_orbits(g, [(perm, swapped)]) == (False,)
        assert g.roots is None

    def test_a_pair_that_keeps_the_orbits_is_skipped_uncertified(self):
        params = LUParams(3, 3)
        pairs = translation_pairs(params)
        perm, image = pairs[0]
        swapped = list(image)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        g = rootless(build_lu_graph(params))
        assert root_orbits(g, pairs + [(perm, swapped)]) == (True, True, True, None, None)
        assert g.roots == build_lu_graph(params).roots

    def test_a_permutation_that_is_not_an_automorphism_is_refused(self):
        g = rootless(build_lu_graph(LUParams(3, 3)))
        swap = list(range(g.left_count))
        swap[0], swap[1] = 1, 0
        assert root_orbits(g, [(swap, range(g.right_count)), (swap, swap)]) == (False, False)
        assert g.roots is None

    def test_a_map_that_is_not_a_permutation_is_refused(self):
        g = hexagon()
        turn = (1, 2, 0)  # with itself on the lines, an automorphism of the hexagon
        not_permutations = [((0, 0, 1), turn), ((1, 2), turn), (turn, (1, 2, 3)), (turn, (0, 0, 1))]
        assert root_orbits(g, not_permutations) == (False, False, False, False)
        assert g.roots is None
        assert root_orbits(g, [(turn, turn)]) == (True,)
        assert g.roots == (0,)

    def test_equal_neighbourhoods_need_no_distinct_rows(self):
        # K_{2,2}: the swap of both sides is an automorphism, though both
        # points, and both lines, share one neighbourhood
        k22 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert root_orbits(k22, [((1, 0), (1, 0))]) == (True,)
        assert k22.roots == (0,)
        assert girth(k22).girth == 4
        assert girth(k22) == girth(rootless(k22))

    def test_constructed_and_truncated_graphs_carry_no_roots(self):
        assert hexagon().roots is None
        assert build_truncated(WengerTruncationSpec(2, 16)).to_bipartite_graph().roots is None

    def test_roots_do_not_enter_equality_or_hash(self):
        g = build_lu_graph(LUParams(3, 3))
        plain = rootless(g)
        assert g.roots is not None and plain.roots is None
        assert g == plain and hash(g) == hash(plain)


class TestForest:
    # a graph is a forest exactly when its girth report has no witness
    def test_forests_and_cyclic_graphs(self):
        for g in (path_graph(), BipartiteGraph(0, 0, []), BipartiteGraph(3, 3, [(0, 0), (2, 2)])):
            assert girth(g).witness is None and not union_find_has_cycle(g)
        for g in (hexagon(), build_lu_graph(LUParams(3, 3))):
            assert girth(g).witness is not None and union_find_has_cycle(g)

    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    def test_forest_exactly_when_the_girth_is_infinite(self, g):
        assert (girth(g).witness is None) == (not union_find_has_cycle(g)) == (enumeration_girth(g) == math.inf)


# Truncations whose sides differ by up to 120 times, and the even lengths at
# which the unpruned oracle stays fast on each.
TRUNCATION_LENGTHS = {
    "lu64": range(4, 24, 2),  # 135 points, 2,145 lines, girth 8
    "wenger64": range(4, 62, 2),  # 325 points, 165 lines, girth 6
    "lu5_64": (*range(4, 42, 2), 288),  # 144 points, 17,424 lines, a forest
}


@pytest.fixture(scope="module")
def lu5_64():
    return build_truncated(TruncationSpec("lu", 5, 64))


class TestPointSideStarts:
    @pytest.mark.parametrize("name", TRUNCATION_LENGTHS)
    def test_cycle_search_returns_the_unpruned_witness_on_truncations(self, request, name):
        g = request.getfixturevalue(name).to_bipartite_graph()
        for length in TRUNCATION_LENGTHS[name]:
            assert has_cycle_of_length(g, length) == scan_cycle_of_length(g, length), length

    @pytest.mark.parametrize("name", TRUNCATION_LENGTHS)
    def test_girth_matches_the_enumeration_on_truncations(self, request, name):
        g = request.getfixturevalue(name).to_bipartite_graph()
        report = girth(g)
        assert report.girth == enumeration_girth(g)
        if report.witness is not None:
            assert is_cycle(g, report.witness, report.girth)

    @pytest.mark.parametrize("name", TRUNCATION_LENGTHS)
    def test_forest_answer_matches_union_find_on_truncations(self, request, name):
        g = request.getfixturevalue(name).to_bipartite_graph()
        assert (girth(g).witness is None) == (not union_find_has_cycle(g)) == (name == "lu5_64")


class TestGirthOracleAgreement:
    def test_random_graphs_small(self):
        rng = random.Random(20250808)
        for _ in range(60):
            g = random_bipartite(rng)
            assert girth(g).girth == enumeration_girth(g)

    def test_girth_consistency(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_bipartite(rng)
            report = girth(g)
            if report.girth is math.inf:
                continue
            assert is_cycle(g, report.witness, report.girth)
            assert has_cycle_of_length(g, report.girth) is not None
            for shorter in range(4, report.girth, 2):
                assert has_cycle_of_length(g, shorter) is None


class TestDegreeStats:
    def test_regular_graph(self):
        left, right = degree_stats(build_lu_graph(LUParams(3, 3)))
        assert left.minimum == left.maximum == 3
        assert right.minimum == right.maximum == 3
        assert left.histogram == {3: 27}

    def test_empty_graph(self):
        left, right = degree_stats(BipartiteGraph(0, 0, []))
        assert (left.minimum, left.maximum) == (0, 0)
        assert left.histogram == {}

    def test_mixed_degrees(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0)])
        left, right = degree_stats(g)
        assert (left.minimum, left.maximum) == (0, 2)
        assert left.histogram == {2: 1, 1: 1, 0: 1}
        assert (right.minimum, right.maximum) == (1, 2)


class TestGraphsIdentical:
    def test_self(self):
        g = hexagon()
        assert g == g

    def test_one_edge_removed(self):
        g = hexagon()
        h = BipartiteGraph(3, 3, g.edges()[:-1])
        assert g != h

    def test_size_mismatch_is_unequal(self):
        assert hexagon() != BipartiteGraph(2, 3, [])


class TestDiagnostics:
    def test_st_ratio_unit_case(self):
        assert st_ratio(1, 1, 1) == Fraction(1, 3)

    def test_st_ratio_exact_cube_is_not_bumped(self):
        # (2*4)**(2/3) = 4 exactly, so the denominator is 4 + 2 + 4, not 11
        assert st_ratio(2, 4, 1) == Fraction(1, 10)

    def test_st_ratio_zero_incidences(self):
        assert st_ratio(10, 10, 0) == 0

    def test_st_ratio_reference_instance(self):
        # ceil((135 * 2145)**(2/3)) = 4377; 675 / (4377 + 135 + 2145)
        assert st_ratio(135, 2145, 675) == Fraction(675, 6657)
        assert st_ratio(135, 2145, 675) < 1

    def test_st_ratio_validation(self):
        with pytest.raises(ValueError):
            st_ratio(0, 5, 1)
        with pytest.raises(ValueError):
            st_ratio(5, 5, -1)

    def test_exponents(self):
        assert theoretical_exponent("lu", 3) == Fraction(7, 6)
        assert theoretical_exponent("lu", 5) == Fraction(14, 13)
        assert theoretical_exponent("wenger", 2) == Fraction(4, 3)
        assert theoretical_exponent("wenger", 3) == Fraction(7, 6)
        assert theoretical_exponent("wenger", 5) == Fraction(16, 15)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            theoretical_exponent("lu", 4)
        with pytest.raises(ValueError):
            theoretical_exponent("wenger", 4)
        with pytest.raises(ValueError):
            theoretical_exponent("grid", 3)

    def test_girth_targets(self):
        assert girth_target(3) == 8
        assert girth_target(5) == 10
        with pytest.raises(ValueError):
            girth_target(4)
