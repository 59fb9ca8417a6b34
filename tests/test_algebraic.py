import random
from itertools import product

import pytest

from girthforge.algebraic import (
    BudgetExceededError,
    LUParams,
    WengerParams,
    build_lu_graph,
    build_wenger_graph,
    field_edge,
    field_neighbors,
)
from girthforge.families import CoordLabel, family_named, lu_equation_plan, lu_label, lu_labels
from girthforge.graphs import degree_stats, girth, has_cycle_of_length


class TestLabels:
    def test_first_position(self):
        assert lu_label(1, 5) == CoordLabel("first")

    def test_k5_matches_display_order(self):
        expected = [
            CoordLabel("first"),
            CoordLabel("pair", 1, 1),
            CoordLabel("pair", 1, 2),
            CoordLabel("pair", 2, 1),
            CoordLabel("pair", 2, 2),
        ]
        assert list(lu_labels(5)) == expected

    def test_position_nine_is_pair_3_3(self):
        assert lu_label(9, 9) == CoordLabel("pair", 3, 3)

    def test_second_block(self):
        assert [lu_label(p, 13) for p in range(6, 14)] == [
            CoordLabel("primed", 2, 2),
            CoordLabel("pair", 2, 3),
            CoordLabel("pair", 3, 2),
            CoordLabel("pair", 3, 3),
            CoordLabel("primed", 3, 3),
            CoordLabel("pair", 3, 4),
            CoordLabel("pair", 4, 3),
            CoordLabel("pair", 4, 4),
        ]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lu_label(0, 5)
        with pytest.raises(ValueError):
            lu_label(6, 5)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            CoordLabel("pair", 1, 3)  # indices differ by 2
        with pytest.raises(ValueError):
            CoordLabel("primed", 1, 1)  # layer-1 primed is identified, never stored
        with pytest.raises(ValueError):
            CoordLabel("diagonal", 2, 2)

    def test_plan_reads_only_earlier_positions(self):
        for k in (3, 5, 7, 9, 11, 13):
            for t, (_, src) in enumerate(lu_equation_plan(k), start=1):
                assert 0 <= src < t


@pytest.mark.parametrize("name,ks", [("lu", (3, 5, 7, 9, 11, 13)), ("wenger", (2, 3, 5))])
def test_plan_steps_read_only_solved_coordinates(name, ks):
    """From either side, each step reads only the free or an earlier-solved coordinate."""
    for k in ks:
        free, steps = family_named(name).plan(k)
        solved = {free}
        for t, a, b in steps:
            assert a in solved and b in solved and t not in solved
            solved.add(t)
        assert solved == set(range(k))


class TestLUEdges:
    def test_direct_substitution_true(self):
        assert field_edge((1, 1, 0), (1, 2, 2), LUParams(3, 5))

    def test_zero_point_accepts_any_first_coordinate(self):
        for q in (2, 3, 5):
            params = LUParams(3, q)
            for c in range(q):
                assert field_edge((0, 0, 0), (c, 0, 0), params)

    def test_second_equation_fails(self):
        assert not field_edge((1, 1, 0), (1, 2, 3), LUParams(3, 5))

    def test_k5_plan_matches_handwritten_equations(self):
        # the four equations written out coordinate by coordinate
        params = LUParams(5, 7)
        rng = random.Random(1)
        for _ in range(500):
            u = tuple(rng.randrange(7) for _ in range(5))
            v = tuple(rng.randrange(7) for _ in range(5))
            by_hand = (
                (v[1] - u[1] - v[0] * u[0]) % 7 == 0
                and (v[2] - u[2] - v[1] * u[0]) % 7 == 0
                and (v[3] - u[3] - v[0] * u[1]) % 7 == 0
                and (v[4] - u[4] - v[0] * u[2]) % 7 == 0
            )
            assert field_edge(u, v, params) == by_hand

    def test_mismatched_length_rejected(self):
        with pytest.raises(ValueError):
            field_edge((1, 1), (1, 2, 2), LUParams(3, 5))
        with pytest.raises(ValueError):
            field_edge((1, 1, 0), (1, 2), LUParams(3, 5))

    def test_zero_propagation_neighbors(self):
        got = field_neighbors((0, 0, 0), LUParams(3, 3))
        assert got == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]

    def test_neighbor_matches_edge_example(self):
        nbrs = field_neighbors((1, 1, 0), LUParams(3, 5))
        assert (1, 2, 2) in nbrs

    @pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (3, 5), (5, 2), (5, 3)])
    def test_neighbor_count_is_q(self, k, q):
        params = LUParams(k, q)
        rng = random.Random(k * 100 + q)
        for _ in range(20):
            u = tuple(rng.randrange(q) for _ in range(k))
            nbrs = field_neighbors(u, params)
            assert len(nbrs) == q
            assert len(set(nbrs)) == q

    @pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (5, 2)])
    def test_edge_iff_neighbor_exhaustive(self, k, q):
        params = LUParams(k, q)
        vertices = list(product(range(q), repeat=k))
        for u in vertices:
            nbrs = set(field_neighbors(u, params))
            for v in vertices:
                assert field_edge(u, v, params) == (v in nbrs)


class TestWengerEdges:
    def test_true_example(self):
        assert field_edge((1, 2), (0, 1), WengerParams(2, 3))

    def test_zero_point(self):
        for p in (2, 3, 5):
            params = WengerParams(2, p)
            for c in range(p):
                assert field_edge((0, 0), (0, c), params)

    def test_false_example(self):
        assert not field_edge((1, 2), (1, 1), WengerParams(2, 3))

    def test_neighbors_example(self):
        got = field_neighbors((1, 2), WengerParams(2, 3))
        assert set(got) == {(1, 0), (0, 1), (2, 2)}

    def test_zero_vertex_neighbors(self):
        params = WengerParams(3, 5)
        got = field_neighbors((0, 0, 0), params)
        assert got == [(0, 0, c) for c in range(5)]

    def test_k3_plan_matches_handwritten_equations(self):
        params = WengerParams(3, 5)
        rng = random.Random(2)
        for _ in range(500):
            u = tuple(rng.randrange(5) for _ in range(3))
            v = tuple(rng.randrange(5) for _ in range(3))
            by_hand = (
                (v[0] - u[0] - u[1] * v[2]) % 5 == 0
                and (v[1] - u[1] - u[2] * v[2]) % 5 == 0
            )
            assert field_edge(u, v, params) == by_hand

    def test_mismatched_length_rejected(self):
        with pytest.raises(ValueError):
            field_edge((1,), (0, 1), WengerParams(2, 3))

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (5, 2)])
    def test_edge_iff_neighbor_exhaustive(self, k, p):
        params = WengerParams(k, p)
        vertices = list(product(range(p), repeat=k))
        for u in vertices:
            nbrs = set(field_neighbors(u, params))
            assert len(nbrs) == p
            for v in vertices:
                assert field_edge(u, v, params) == (v in nbrs)


class TestParams:
    def test_even_k_rejected_with_reason(self):
        with pytest.raises(ValueError, match="odd"):
            LUParams(4, 5)

    def test_small_or_nonprime_rejected(self):
        with pytest.raises(ValueError):
            LUParams(1, 5)
        with pytest.raises(ValueError):
            LUParams(3, 9)
        with pytest.raises(ValueError):
            WengerParams(4, 5)
        with pytest.raises(ValueError):
            WengerParams(2, 6)


class TestBuildGraphs:
    def test_lu_3_3(self):
        g = build_lu_graph(LUParams(3, 3))
        assert g.vertex_count == 54
        assert g.edge_count == 81
        left, right = degree_stats(g)
        assert (left.minimum, left.maximum) == (3, 3)
        assert (right.minimum, right.maximum) == (3, 3)

    def test_lu_3_2(self):
        g = build_lu_graph(LUParams(3, 2))
        assert g.vertex_count == 16
        assert g.edge_count == 16
        left, right = degree_stats(g)
        assert (left.minimum, left.maximum) == (2, 2)
        assert (right.minimum, right.maximum) == (2, 2)

    @pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (3, 5), (5, 2), (5, 3)])
    def test_lu_vertex_count_and_regularity(self, k, q):
        g = build_lu_graph(LUParams(k, q))
        assert g.vertex_count == 2 * q**k
        left, right = degree_stats(g)
        assert left.minimum == left.maximum == q
        assert right.minimum == right.maximum == q

    def test_wenger_2_3(self):
        g = build_wenger_graph(WengerParams(2, 3))
        assert g.vertex_count == 18
        assert g.edge_count == 27

    def test_wenger_5_2(self):
        g = build_wenger_graph(WengerParams(5, 2))
        assert g.vertex_count == 64
        assert g.edge_count == 64

    @pytest.mark.parametrize("k,p", [(2, 2), (2, 5), (3, 3), (5, 3)])
    def test_wenger_vertex_count_and_regularity(self, k, p):
        g = build_wenger_graph(WengerParams(k, p))
        assert g.vertex_count == 2 * p**k
        assert g.edge_count == p ** (k + 1)
        left, right = degree_stats(g)
        assert left.minimum == left.maximum == p
        assert right.minimum == right.maximum == p

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            build_lu_graph(LUParams(3, 5), budget=100)


# Excluded: (5, 5) on both sides; exact girth / cycle search from every root
# on 6250 vertices is past the desk-scale test budget.
@pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (3, 5), (5, 2), (5, 3)])
def test_lu_girth_meets_target(k, q):
    g = build_lu_graph(LUParams(k, q))
    report = girth(g)
    assert report.girth >= k + 5


@pytest.mark.parametrize(
    "k,p",
    [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3)],
)
def test_wenger_has_no_forbidden_cycle(k, p):
    g = build_wenger_graph(WengerParams(k, p))
    assert has_cycle_of_length(g, 2 * k) is None
