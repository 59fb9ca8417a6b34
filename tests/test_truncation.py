import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from girthforge.algebraic import BudgetExceededError
from girthforge.exactmath import floor_pow, next_prime
from girthforge.families import CoordLabel, box_rank, family_named, lu_labels, substitute
from girthforge.graphs import degree_stats, girth
from girthforge import truncation
from girthforge.truncation import (
    DEFAULT_CROSS_CHECK_LIMIT,
    LUTruncationSpec,
    TruncatedArrangement,
    WengerTruncationSpec,
    _walk,
    build_truncated,
    embedding_prime,
    TruncationSpec,
    lu_points_on,
    verify_subgraph_embedding,
    wenger_points_on,
)
from helpers import (
    bumped,
    lu3_residues,
    lu7_residues,
    lu_boxes_by_position,
    lu_edge_free,
    paper_window_by_hand,
    solve_one,
    wenger_boxes_by_position,
    wenger_edge_free,
)

LU64 = LUTruncationSpec(3, 64)
W64 = WengerTruncationSpec(2, 64)


def lu3_edge_oracle(u, v):
    """The two k=3 equations written out by hand, independent of the plan engine."""
    return not any(lu3_residues(u, v))


def wenger2_edge_oracle(u, v):
    return v[0] == u[0] + u[1] * v[1]


SWEEP_N = list(range(1, 70)) + [100, 400, 1000, 4096, 10**6, 10**12, 3**40 + 1]
BOXES_BY_HAND = {"lu": lu_boxes_by_position, "wenger": wenger_boxes_by_position}


class TestRanges:
    def test_lu_point_ranges_at_64(self):
        points, _ = LU64.ranges()
        assert points == [(0, 2), (0, 4), (0, 8)]

    def test_lu_line_ranges_at_64(self):
        _, lines = LU64.ranges()
        assert lines == [(0, 4), (0, 12), (0, 32)]

    def test_lu_line_scales_by_label_kind(self):
        step = family_named("lu").exponent_step(11)
        labels = lu_labels(11)
        _, lines = LUTruncationSpec(11, 4096).ranges()
        assert labels[5] == CoordLabel("primed", 2, 2)
        assert lines[5] == (0, floor_pow(4096, 4 * step, 4))
        assert labels[6] == CoordLabel("pair", 2, 3)
        assert lines[6] == (0, floor_pow(4096, 5 * step, 4))
        assert labels[7] == CoordLabel("pair", 3, 2)
        assert lines[7] == (0, floor_pow(4096, 5 * step, 3))
        assert labels[4] == CoordLabel("pair", 2, 2)
        assert lines[4] == (0, floor_pow(4096, 4 * step, 3))

    def test_wenger_point_ranges_at_64(self):
        points, _ = W64.ranges()
        assert points == [(0, 64), (0, 4)]

    def test_wenger_point_range_at_1(self):
        points, _ = WengerTruncationSpec(2, 1).ranges()
        assert points[1] == (0, 1)

    def test_wenger_line_ranges_at_64(self):
        _, lines = W64.ranges()
        assert lines == [(32, 64), (4, 8)]

    def test_one_range_per_coordinate(self):
        for spec in (LU64, LUTruncationSpec(11, 5), W64, WengerTruncationSpec(5, 1)):
            points, lines = spec.ranges()
            assert len(points) == len(lines) == spec.k, spec

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wenger_ranges_never_empty(self, k):
        for n in list(range(1, 60)) + [127, 128, 1000]:
            _, lines = WengerTruncationSpec(k, n).ranges()
            for i, (lo, hi) in enumerate(lines):
                assert lo <= hi, (k, n, i)

    @pytest.mark.parametrize(
        "family,k", [("lu", k) for k in range(3, 40, 2)] + [("wenger", k) for k in (2, 3, 5)]
    )
    def test_table_matches_the_formulas_by_position(self, family, k):
        for n in SWEEP_N:
            assert TruncationSpec(family, k, n).ranges() == BOXES_BY_HAND[family](k, n), n
            assert family_named(family).prime_window(k, n) == paper_window_by_hand(family, k, n), n

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LUTruncationSpec(4, 64)
        with pytest.raises(ValueError):
            LUTruncationSpec(3, 0)
        with pytest.raises(ValueError):
            WengerTruncationSpec(4, 64)

    def test_exponent_steps(self):
        assert family_named("lu").exponent_step(3) == Fraction(1, 6)
        assert family_named("wenger").exponent_step(2) == Fraction(1, 3)
        # the paper's exponents 1 + 4/(k^2 + 6k - 3) and 1 + 2/(k(k + 1))
        for k in range(3, 100, 2):
            assert family_named("lu").exponent_step(k) == Fraction(4, k * k + 6 * k - 3), k
        for k in (2, 3, 5):
            assert family_named("wenger").exponent_step(k) == Fraction(2, k * (k + 1)), k

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_every_partner_of_an_in_box_point_lands_in_the_line_box(self, k):
        # every box pair whose point box holds at most 2,000 points; from a
        # point, partner coordinates never decrease in the free coordinate x,
        # so the two ends of its line range bound every partner
        family = family_named("lu")
        plan = family.plan(k)
        boxes, n = {}, 1
        while True:
            points, lines = family.ranges(k, n)
            if prod(hi - lo + 1 for lo, hi in points) > 2000:
                break
            boxes.setdefault((tuple(points), tuple(lines)), n)
            n += 1
        for (points, lines), n in boxes.items():
            ends = lines[plan[0]]
            for u in product(*(range(lo, hi + 1) for lo, hi in points)):
                const, slope = solve_one(plan, u, from_point=True)
                for x in ends:
                    v = [c + m * x for c, m in zip(const, slope)]
                    assert all(lo <= c <= hi for c, (lo, hi) in zip(v, lines)), (n, u, x)

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_partner_of_an_in_box_line_lands_in_the_point_box(self, k):
        # every box pair whose line box holds at most 2,000 lines; from a line
        # vertex, each partner coordinate is affine in the free coordinate x,
        # so the two ends of the point range bound every partner
        family = family_named("wenger")
        plan = family.plan(k)
        boxes, n = {}, 1
        while True:
            points, lines = family.ranges(k, n)
            if prod(hi - lo + 1 for lo, hi in lines) > 2000:
                break
            boxes.setdefault((tuple(points), tuple(lines)), n)
            n += 1
        for (points, lines), n in boxes.items():
            ends = points[plan[0]]
            for v in product(*(range(lo, hi + 1) for lo, hi in lines)):
                const, slope = solve_one(plan, v, from_point=False)
                for x in ends:
                    u = [c + m * x for c, m in zip(const, slope)]
                    assert all(lo <= c <= hi for c, (lo, hi) in zip(u, points)), (n, v, x)

    @pytest.mark.parametrize(
        "family,k,n",
        [("lu", 3, n) for n in (1, 2, 64, 400, 1000)]
        + [("lu", 5, n) for n in (1, 200)]
        + [("lu", 7, 1)]
        + [("wenger", 2, n) for n in (1, 2, 64, 200, 1000)]
        + [("wenger", 3, n) for n in (1, 144, 300)],
    )
    def test_each_walked_vertex_has_one_partner_per_free_value(self, family, k, n):
        # the walked side is the points for lu and the lines for wenger
        arr = build_truncated(TruncationSpec(family, k, n))
        points, lines = family_named(family).ranges(k, n)
        free = family_named(family).plan(k)[0]
        walked, (lo, hi) = (arr.points, lines[free]) if family == "lu" else (arr.line_params, points[free])
        assert len(arr.edges) == len(walked) * (hi - lo + 1)
        degrees = Counter(pi if family == "lu" else lj for pi, lj in arr.edges)
        assert set(degrees.values()) == {hi - lo + 1} and len(degrees) == len(walked)


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
        point_ranges, line_ranges = LU64.ranges()
        for u in lu64.points:
            assert all(lo <= c <= hi for c, (lo, hi) in zip(u, point_ranges))
        for v in lu64.line_params:
            assert all(lo <= c <= hi for c, (lo, hi) in zip(v, line_ranges))

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
        point_ranges, line_ranges = W64.ranges()
        for u in wenger64.points:
            for c, (lo, hi) in zip(u, point_ranges):
                assert lo <= c <= hi
        for v in wenger64.line_params:
            for c, (lo, hi) in zip(v, line_ranges):
                assert lo <= c <= hi

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 9), (3, 8), (3, 27)])
    def test_line_degree_bound_across_sizes(self, k, n):
        spec = WengerTruncationSpec(k, n)
        arr = build_truncated(spec)
        bound = floor_pow(n, family_named("wenger").exponent_step(k), 1)
        degrees = Counter(lj for _, lj in arr.edges)
        assert all(degrees[lj] >= bound for lj in range(len(arr.line_params)))

    def test_free_edges_satisfy_integer_relations(self):
        arr = build_truncated(WengerTruncationSpec(3, 8))
        for pi, lj in arr.edges:
            assert wenger_edge_free(arr.points[pi], arr.line_params[lj], 3)


def lu7_edge_oracle(u, v):
    """All six k=7 equations by hand; exercises the layer-2 primed block."""
    return not any(lu7_residues(u, v))


@pytest.mark.parametrize(
    "spec,oracle",
    [(LU64, lu3_edge_oracle), (LUTruncationSpec(3, 9), lu3_edge_oracle), (W64, wenger2_edge_oracle)],
    ids=["lu3-n64", "lu3-n9", "wenger2-n64"],
)
def test_walk_from_either_side_finds_the_oracle_edges(spec, oracle):
    """build_truncated walks from one side only; the other side must agree too."""
    arr = build_truncated(spec, cross_check_limit=0)
    plan = family_named(spec.family).plan(spec.k)
    point_ranges, line_ranges = spec.ranges()
    from_points = set(_walk(plan, arr.points, line_ranges, True))
    from_lines = {(pi, lj) for lj, pi in _walk(plan, arr.line_params, point_ranges, False)}
    expected = {
        (pi, lj)
        for pi, u in enumerate(arr.points)
        for lj, v in enumerate(arr.line_params)
        if oracle(u, v)
    }
    assert from_points == from_lines == expected


small_boxes = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda r: (r[0], r[0] + r[1])),
    min_size=1,
    max_size=4,
)


@given(small_boxes)
def test_box_rank_is_the_product_order_and_refuses_one_step_outside(ranges):
    box = list(product(*(range(lo, hi + 1) for lo, hi in ranges)))
    for t in box:
        assert box_rank(t, ranges) == box.index(t)
        for i, (lo, hi) in enumerate(ranges):
            for outside in (lo - 1, hi + 1):
                assert box_rank(t[:i] + (outside,) + t[i + 1 :], ranges) is None


class TestHigherK:
    def test_k5_instance_has_exact_free_coordinate_degrees(self):
        spec = LUTruncationSpec(5, 1024)
        arr = build_truncated(spec)
        assert len(arr.points) == 1350
        _, line_ranges = spec.ranges()
        v1_hi = line_ranges[0][1]
        degrees = Counter(pi for pi, _ in arr.edges)
        assert all(degrees[pi] == v1_hi + 1 for pi in range(len(arr.points)))
        assert verify_subgraph_embedding(arr, embedding_prime(arr, "minimal"))

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
        assert verify_subgraph_embedding(arr, embedding_prime(arr, "minimal"))


class TestBudget:
    def test_box_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            build_truncated(LU64, box_budget=500)

    @pytest.mark.parametrize(
        "spec,budget",
        [
            (LUTruncationSpec(2001, 1), 10**6),
            (LUTruncationSpec(10**12 + 1, 1), 10**6),
            (WengerTruncationSpec(5, 1), 2**5 - 1),
            (LUTruncationSpec(5, 1), 2**5 - 1),
        ],
    )
    def test_point_box_lower_bound_is_refused_before_any_range(self, spec, budget, monkeypatch):
        # Every point coordinate range holds 0 and 1: at least 2**k points.
        def no_ranges(self):
            raise AssertionError("a range was evaluated")

        monkeypatch.setattr(type(spec), "ranges", no_ranges)
        with pytest.raises(BudgetExceededError, match=r"2\*\*"):
            build_truncated(spec, box_budget=budget)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_value_error(self, budget):
        with pytest.raises(ValueError, match=r"^budget must be >= 1$"):
            build_truncated(LU64, box_budget=budget)

    def test_lower_bound_equal_to_the_budget_passes(self):
        # lu k=5, n=1 has exactly 2**5 points, so only its 960 lines exceed 32.
        with pytest.raises(BudgetExceededError, match="box sizes 32 x 960"):
            build_truncated(LUTruncationSpec(5, 1), box_budget=2**5)


class TestEmbedding:
    def test_minimal_prime_lu(self, lu64):
        assert max(hi for side in LU64.ranges() for _, hi in side) == 32
        assert embedding_prime(lu64, "minimal") == 37
        assert verify_subgraph_embedding(lu64, 37)

    def test_too_small_prime_fails_range_check(self, lu64):
        assert not verify_subgraph_embedding(lu64, 31)

    def test_minimal_prime_wenger(self, wenger64):
        assert embedding_prime(wenger64, "minimal") == 67
        assert verify_subgraph_embedding(wenger64, 67)

    def test_paper_window_lu(self, lu64):
        # window is (4 * 64**(8/3), 8 * 64**(8/3)) = (2**18, 2**19)
        assert embedding_prime(lu64, "paper") == 262147

    def test_paper_window_wenger(self, wenger64):
        p = embedding_prime(wenger64, "paper")
        # window (2**4 * 64, 2**5 * 64) = (1024, 2048)
        assert 1024 < p < 2048
        assert p == next_prime(1024)

    def test_paper_window_beyond_exact_primality_rejected(self):
        # (4 n**(8/3), 8 n**(8/3)) at n = 10**12 starts near 4e32.
        with pytest.raises(ValueError, match="at or above the exact primality limit"):
            embedding_prime(TruncatedArrangement("lu", 3, 10**12, (), (), ()), "paper")

    def test_paper_window_across_the_primality_limit_is_answered(self):
        # The window straddles psi_12 = 318665857834031151167461, and its
        # smallest prime lies below it.
        n = 324_000_000
        assert family_named("lu").prime_window(3, n) == (
            198082762990900653766538,
            396165525981801307533077,
        )
        arr = TruncatedArrangement("lu", 3, n, (), (), ())
        assert embedding_prime(arr, "paper") == 198082762990900653766603

    def test_nonprime_modulus_rejected(self, lu64):
        with pytest.raises(ValueError):
            verify_subgraph_embedding(lu64, 33)

    def test_edge_failing_the_equations_mod_q_does_not_embed(self):
        # In range mod 5, but (0,0,0)-(0,0,1) breaks v[2] - u[2] = v[1] * u[0].
        points, lines = ((0, 0, 0),), ((0, 0, 0), (0, 0, 1))
        assert verify_subgraph_embedding(TruncatedArrangement("lu", 3, 1, points, lines, ((0, 0),)), 5)
        bad = TruncatedArrangement("lu", 3, 1, points, lines, ((0, 0), (0, 1)))
        assert not verify_subgraph_embedding(bad, 5)

    def test_empty_arrangement_embeds(self):
        empty = TruncatedArrangement("lu", 3, 1, (), (), ())
        assert verify_subgraph_embedding(empty, 5)

    def test_minimal_prime_reads_only_the_coordinates(self):
        # no range is evaluated, so a huge k with no rows costs nothing
        assert embedding_prime(TruncatedArrangement("lu", 2001, 1, (), (), ()), "minimal") == 2
        one_point = TruncatedArrangement("lu", 3, 10**60, ((0, 5, 1),), (), ())
        assert embedding_prime(one_point, "minimal") == 7

    def test_unknown_mode_rejected(self, lu64):
        for mode in ("exact", "paper_window"):
            with pytest.raises(ValueError, match="unknown mode"):
                embedding_prime(lu64, mode)

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
        q = embedding_prime(arr, "minimal")
        assert q == next_prime(max(hi for side in spec.ranges() for _, hi in side))
        assert verify_subgraph_embedding(arr, q)


class TestFreePredicates:
    def test_lu_free_matches_hand_equations(self):
        for u in product(range(3), repeat=3):
            for v in product(range(3), repeat=3):
                assert lu_edge_free(u, v, 3) == lu3_edge_oracle(u, v)

    @pytest.mark.parametrize("k", range(3, 42, 2))
    def test_lu_free_accepts_partners_and_rejects_every_bump(self, k):
        """Partners from the plan, solved from either side, pass; a one-coordinate bump fails.

        The fixed vertex starts with a nonzero coordinate and the free
        coordinate is nonzero, so a bump at position 0 breaks the first
        equation too.
        """
        plan = family_named("lu").plan(k)
        rng = random.Random(k)
        for _ in range(4):
            fixed = (rng.randint(1, 5),) + tuple(rng.randint(0, 5) for _ in range(k - 1))
            for from_point in (True, False):
                const, slope = solve_one(plan, fixed, from_point)
                x = rng.randint(1, 5)
                partner = tuple(c + s * x for c, s in zip(const, slope))
                u, v = (fixed, partner) if from_point else (partner, fixed)
                assert lu_edge_free(u, v, k)
                for t in range(k):
                    for d in (-1, 1):
                        assert not lu_edge_free(bumped(u, t, d), v, k), (k, t, d)
                        assert not lu_edge_free(u, bumped(v, t, d), k), (k, t, d)

    def test_integer_equality_implies_congruence(self, lu64):
        for pi, lj in list(lu64.edges)[::50]:
            u, v = lu64.points[pi], lu64.line_params[lj]
            assert lu_edge_free(u, v, 3)


@st.composite
def line_and_points(draw, family, k):
    """A line vertex and a list of points: random tuples, partners of the line
    from the plan, partners bumped by one in one coordinate, and repeats."""
    coord = st.integers(-4, 4)
    anywhere = st.tuples(*[coord] * k)
    v = draw(anywhere)
    const, slope = solve_one(family_named(family).plan(k), v, False)
    on = st.builds(lambda x: tuple(c + s * x for c, s in zip(const, slope)), coord)
    near = st.builds(bumped, on, st.integers(0, k - 1), st.sampled_from((-1, 1)))
    rows = draw(st.lists(st.one_of(anywhere, on, near), max_size=10))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return v, draw(st.permutations(rows + repeats))


POINTS_ON = {"lu": (lu_points_on, lu_edge_free), "wenger": (wenger_points_on, wenger_edge_free)}


@pytest.mark.parametrize(
    "family,k", [("lu", 3), ("lu", 5), ("lu", 7), ("lu", 9), ("wenger", 2), ("wenger", 3), ("wenger", 5)]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_points_on_a_line_is_the_pair_predicate_row_by_row(family, k, data):
    v, points = data.draw(line_and_points(family, k))
    points_on, edge_free = POINTS_ON[family]
    assert points_on(v, points, k) == [i for i, u in enumerate(points) if edge_free(u, v, k)]


# small coordinates of either sign, and coordinates of 300 to 400 digits of either sign
HUGE = st.integers(10**299, 10**400)
COORDINATE = st.one_of(st.integers(-9, 9), HUGE, HUGE.map(lambda c: -c))


@pytest.mark.parametrize("from_point", [True, False], ids=["from-point", "from-line"])
@pytest.mark.parametrize(
    "family,k", [("lu", 3), ("lu", 5), ("lu", 7), ("lu", 9), ("wenger", 2), ("wenger", 3), ("wenger", 5)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_kernel_is_the_scalar_solve_row_by_row(family, k, from_point, data):
    rows = data.draw(st.lists(st.tuples(*[COORDINATE] * k), min_size=1, max_size=6))
    plan = family_named(family).plan(k)
    const, slope = substitute(plan, list(zip(*rows)), from_point)
    assert len(const) == len(slope) == k
    for r, fixed in enumerate(rows):
        assert ([c[r] for c in const], [s[r] for s in slope]) == solve_one(plan, fixed, from_point)


def dropping_first_edge(walk):
    return lambda *args, **kwargs: walk(*args, **kwargs)[1:]


def adding_a_non_edge(walk):
    def wrong(*args, **kwargs):
        edges = walk(*args, **kwargs)
        present = set(edges)
        i = edges[0][0]
        return edges + [next((i, j) for _, j in edges if (i, j) not in present)]

    return wrong


@pytest.mark.parametrize("spec", [LU64, WengerTruncationSpec(2, 200)], ids=["lu3-n64", "wenger2-n200"])
@pytest.mark.parametrize("wrong_walk", [dropping_first_edge, adding_a_non_edge])
def test_cross_check_refuses_a_walk_off_by_one_edge(spec, wrong_walk, monkeypatch):
    """Both instances sit under the default limit, so the brute-force pass runs."""
    honest = build_truncated(spec)
    assert len(honest.points) * len(honest.line_params) <= DEFAULT_CROSS_CHECK_LIMIT
    monkeypatch.setattr(truncation, "_walk", wrong_walk(truncation._walk))
    with pytest.raises(AssertionError, match="disagrees with the brute-force predicate"):
        build_truncated(spec)
    unchecked = build_truncated(spec, cross_check_limit=0)
    assert len(unchecked.edge_set ^ honest.edge_set) == 1
