from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from girthforge.algebraic import BudgetExceededError
from girthforge.exactmath import floor_pow, next_prime
from girthforge.families import (
    CoordLabel,
    family_named,
    lu_labels,
    lu_line_range,
    lu_point_range,
    wenger_line_range,
    wenger_point_range,
)
from girthforge.graphs import degree_stats, girth
from girthforge.truncation import (
    LUTruncationSpec,
    TruncatedArrangement,
    WengerTruncationSpec,
    _walk,
    build_truncated,
    embedding_prime,
    lu_edge_free,
    max_coordinate,
    verify_subgraph_embedding,
    wenger_edge_free,
)

LU64 = LUTruncationSpec(3, 64)
W64 = WengerTruncationSpec(2, 64)


def lu3_edge_oracle(u, v):
    """The two k=3 equations written out by hand, independent of the plan engine."""
    return v[1] - u[1] == v[0] * u[0] and v[2] - u[2] == v[1] * u[0]


def wenger2_edge_oracle(u, v):
    return v[0] == u[0] + u[1] * v[1]


class TestRanges:
    def test_lu_point_ranges_at_64(self):
        assert lu_point_range(CoordLabel("first"), 3, 64) == (0, 2)
        assert lu_point_range(CoordLabel("pair", 1, 1), 3, 64) == (0, 4)
        assert lu_point_range(CoordLabel("pair", 1, 2), 3, 64) == (0, 8)

    def test_lu_line_ranges_at_64(self):
        assert lu_line_range(CoordLabel("first"), 3, 64) == (0, 4)
        assert lu_line_range(CoordLabel("pair", 1, 1), 3, 64) == (0, 12)
        assert lu_line_range(CoordLabel("pair", 1, 2), 3, 64) == (0, 32)

    def test_lu_line_scales_by_label_kind(self):
        spec = LUTruncationSpec(11, 4096)
        step = spec.exponent_step
        assert lu_line_range(CoordLabel("primed", 2, 2), 11, 4096) == (
            0,
            floor_pow(4096, 4 * step, 4),
        )
        assert lu_line_range(CoordLabel("pair", 2, 3), 11, 4096) == (
            0,
            floor_pow(4096, 5 * step, 4),
        )
        assert lu_line_range(CoordLabel("pair", 3, 2), 11, 4096) == (
            0,
            floor_pow(4096, 5 * step, 3),
        )
        assert lu_line_range(CoordLabel("pair", 2, 2), 11, 4096) == (
            0,
            floor_pow(4096, 4 * step, 3),
        )

    def test_wenger_point_ranges_at_64(self):
        assert wenger_point_range(0, 2, 64) == (0, 64)
        assert wenger_point_range(1, 2, 64) == (0, 4)

    def test_wenger_point_range_at_1(self):
        assert wenger_point_range(1, 2, 1) == (0, 1)

    def test_wenger_line_ranges_at_64(self):
        assert wenger_line_range(0, 2, 64) == (32, 64)
        assert wenger_line_range(1, 2, 64) == (4, 8)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            wenger_point_range(2, 2, 64)
        with pytest.raises(ValueError):
            wenger_line_range(-1, 2, 64)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wenger_ranges_never_empty(self, k):
        for n in list(range(1, 60)) + [127, 128, 1000]:
            for i in range(k):
                lo, hi = wenger_line_range(i, k, n)
                assert lo <= hi, (k, n, i)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LUTruncationSpec(4, 64)
        with pytest.raises(ValueError):
            LUTruncationSpec(3, 0)
        with pytest.raises(ValueError):
            WengerTruncationSpec(4, 64)

    def test_exponent_steps(self):
        assert LU64.exponent_step == Fraction(1, 6)
        assert W64.exponent_step == Fraction(1, 3)


class TestBuildLU:
    def test_reference_counts(self, lu64):
        assert len(lu64.points) == 135
        assert len(lu64.line_params) == 2145
        assert len(lu64.edges) == 675

    def test_brute_force_oracle_agreement(self, lu64):
        oracle = {
            (pi, lj)
            for pi, u in enumerate(lu64.points)
            for lj, v in enumerate(lu64.line_params)
            if lu3_edge_oracle(u, v)
        }
        assert oracle == lu64.edge_set

    def test_box_membership(self, lu64):
        point_his = [lu_point_range(lab, 3, 64)[1] for lab in lu_labels(3)]
        line_his = [lu_line_range(lab, 3, 64)[1] for lab in lu_labels(3)]
        for u in lu64.points:
            assert all(0 <= c <= hi for c, hi in zip(u, point_his))
        for v in lu64.line_params:
            assert all(0 <= c <= hi for c, hi in zip(v, line_his))

    def test_no_duplicate_tuples(self, lu64):
        assert len(set(lu64.points)) == len(lu64.points)
        assert len(set(lu64.line_params)) == len(lu64.line_params)

    def test_every_point_has_full_free_coordinate_degree(self, lu64):
        # each of the 5 choices of the free first coordinate lands in the box
        degrees = Counter(pi for pi, _ in lu64.edges)
        assert all(degrees[pi] == 5 for pi in range(len(lu64.points)))

    def test_point_degree_lower_bound(self, lu64):
        bound = floor_pow(64, Fraction(1, 6), 2)
        assert bound == 4
        left, _ = degree_stats(lu64.to_bipartite_graph())
        assert left.minimum >= bound

    def test_tiny_instance_is_valid(self):
        arr = build_truncated(LUTruncationSpec(3, 1))
        assert arr.edges
        for pi, lj in arr.edges:
            assert lu3_edge_oracle(arr.points[pi], arr.line_params[lj])

    def test_girth_inherited_without_embedding_argument(self):
        arr = build_truncated(LUTruncationSpec(3, 16))
        report = girth(arr.to_bipartite_graph())
        assert report.girth >= 8

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_degree_bound_across_sizes(self, n):
        arr = build_truncated(LUTruncationSpec(3, n))
        bound = floor_pow(n, Fraction(1, 6), 2)
        degrees = Counter(pi for pi, _ in arr.edges)
        assert all(degrees[pi] >= bound for pi in range(len(arr.points)))


class TestBuildWenger:
    def test_reference_counts(self, wenger64):
        assert len(wenger64.points) == 325
        assert len(wenger64.line_params) == 165
        assert len(wenger64.edges) == 825

    def test_brute_force_oracle_agreement(self, wenger64):
        oracle = {
            (pi, lj)
            for pi, u in enumerate(wenger64.points)
            for lj, v in enumerate(wenger64.line_params)
            if wenger2_edge_oracle(u, v)
        }
        assert oracle == wenger64.edge_set

    def test_every_line_has_full_free_coordinate_degree(self, wenger64):
        degrees = Counter(lj for _, lj in wenger64.edges)
        assert all(degrees[lj] == 5 for lj in range(len(wenger64.line_params)))

    def test_line_degree_lower_bound(self, wenger64):
        bound = floor_pow(64, Fraction(1, 3), 1)
        assert bound == 4
        _, right = degree_stats(wenger64.to_bipartite_graph())
        assert right.minimum >= bound

    def test_box_membership(self, wenger64):
        for u in wenger64.points:
            for i, c in enumerate(u):
                lo, hi = wenger_point_range(i, 2, 64)
                assert lo <= c <= hi
        for v in wenger64.line_params:
            for i, c in enumerate(v):
                lo, hi = wenger_line_range(i, 2, 64)
                assert lo <= c <= hi

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 9), (3, 8), (3, 27)])
    def test_line_degree_bound_across_sizes(self, k, n):
        spec = WengerTruncationSpec(k, n)
        arr = build_truncated(spec)
        bound = floor_pow(n, spec.exponent_step, 1)
        degrees = Counter(lj for _, lj in arr.edges)
        assert all(degrees[lj] >= bound for lj in range(len(arr.line_params)))

    def test_free_edges_satisfy_integer_relations(self):
        arr = build_truncated(WengerTruncationSpec(3, 8))
        for pi, lj in arr.edges:
            assert wenger_edge_free(arr.points[pi], arr.line_params[lj], 3)


def lu7_edge_oracle(u, v):
    """All six k=7 equations by hand; exercises the layer-2 primed block."""
    return (
        v[1] - u[1] == v[0] * u[0]
        and v[2] - u[2] == v[1] * u[0]
        and v[3] - u[3] == v[0] * u[1]
        and v[4] - u[4] == v[0] * u[2]
        and v[5] - u[5] == u[0] * v[3]
        and v[6] - u[6] == u[0] * v[4]
    )


@pytest.mark.parametrize(
    "spec,oracle",
    [(LU64, lu3_edge_oracle), (LUTruncationSpec(3, 9), lu3_edge_oracle), (W64, wenger2_edge_oracle)],
    ids=["lu3-n64", "lu3-n9", "wenger2-n64"],
)
def test_walk_from_either_side_finds_the_oracle_edges(spec, oracle):
    """build_truncated walks from one side only; the other side must agree too."""
    arr = build_truncated(spec, cross_check_limit=0)
    plan = family_named(spec.family).plan(spec.k)
    from_points = set(_walk(plan, arr.points, arr.line_params, spec.line_ranges(), True))
    from_lines = {
        (pi, lj) for lj, pi in _walk(plan, arr.line_params, arr.points, spec.point_ranges(), False)
    }
    expected = {
        (pi, lj)
        for pi, u in enumerate(arr.points)
        for lj, v in enumerate(arr.line_params)
        if oracle(u, v)
    }
    assert from_points == from_lines == expected


class TestHigherK:
    def test_k5_instance_has_exact_free_coordinate_degrees(self):
        spec = LUTruncationSpec(5, 1024)
        arr = build_truncated(spec)
        assert len(arr.points) == 1350
        v1_hi = lu_line_range(CoordLabel("first"), 5, 1024)[1]
        degrees = Counter(pi for pi, _ in arr.edges)
        assert all(degrees[pi] == v1_hi + 1 for pi in range(len(arr.points)))
        assert verify_subgraph_embedding(arr, embedding_prime(spec, "minimal"))

    def test_k7_exhaustive_oracle(self):
        arr = build_truncated(LUTruncationSpec(7, 1))
        assert len(arr.points) == 128
        oracle = {
            (pi, lj)
            for pi, u in enumerate(arr.points)
            for lj, v in enumerate(arr.line_params)
            if lu7_edge_oracle(u, v)
        }
        assert oracle == arr.edge_set
        degrees = Counter(pi for pi, _ in arr.edges)
        assert all(degrees[pi] == 3 for pi in range(len(arr.points)))
        assert verify_subgraph_embedding(arr, embedding_prime(arr.spec, "minimal"))


class TestBudget:
    def test_box_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            build_truncated(LU64, box_budget=500)


class TestEmbedding:
    def test_minimal_prime_lu(self, lu64):
        assert max_coordinate(LU64) == 32
        assert embedding_prime(LU64, "minimal") == 37
        assert verify_subgraph_embedding(lu64, 37)

    def test_too_small_prime_fails_range_check(self, lu64):
        assert not verify_subgraph_embedding(lu64, 31)

    def test_minimal_prime_wenger(self, wenger64):
        assert embedding_prime(W64, "minimal") == 67
        assert verify_subgraph_embedding(wenger64, 67)

    def test_paper_window_lu(self):
        # window is (4 * 64**(8/3), 8 * 64**(8/3)) = (2**18, 2**19)
        assert embedding_prime(LU64, "paper_window") == 262147

    def test_paper_window_wenger(self):
        p = embedding_prime(W64, "paper_window")
        # window (2**4 * 64, 2**5 * 64) = (1024, 2048)
        assert 1024 < p < 2048
        assert p == next_prime(1024)

    def test_nonprime_modulus_rejected(self, lu64):
        with pytest.raises(ValueError):
            verify_subgraph_embedding(lu64, 33)

    def test_empty_arrangement_embeds(self):
        empty = TruncatedArrangement("lu", 3, 1, (), (), ())
        assert verify_subgraph_embedding(empty, 5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            embedding_prime(LU64, "exact")

    @pytest.mark.parametrize(
        "spec",
        [
            LUTruncationSpec(3, 1),
            LUTruncationSpec(3, 16),
            LUTruncationSpec(3, 64),
            WengerTruncationSpec(2, 16),
            WengerTruncationSpec(2, 64),
            WengerTruncationSpec(3, 8),
        ],
    )
    def test_minimal_prime_always_embeds(self, spec):
        arr = build_truncated(spec)
        assert verify_subgraph_embedding(arr, embedding_prime(spec, "minimal"))


class TestFreePredicates:
    def test_lu_free_matches_hand_equations(self):
        for u in product(range(3), repeat=3):
            for v in product(range(3), repeat=3):
                assert lu_edge_free(u, v, 3) == lu3_edge_oracle(u, v)

    def test_integer_equality_implies_congruence(self, lu64):
        for pi, lj in list(lu64.edges)[::50]:
            u, v = lu64.points[pi], lu64.line_params[lj]
            assert lu_edge_free(u, v, 3)
