import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st
from helpers import (
    canonical_planar_line,
    line_from_params,
    line_through,
    planar_triple,
    point_at,
    point_on_line,
    project_line_by_line,
    rowwise_lines_from_params,
    scan_first_collision,
    scan_incidence_set_kd,
    scan_planar_incidences,
    solve_one,
)

from girthforge.families import family_named
from girthforge.geometry import (
    AffineLineKD,
    LineGroups,
    _incidence_plan,
    _planar_incidences,
    ProjectionError,
    ProjectionMap,
    certify_lines_distinct,
    incidence_set_kd,
    lines_from_params,
    project_generic,
    project_with_map,
    sample_projection,
)
from girthforge.truncation import TruncationSpec, build_truncated


def lu3_system_holds(v, x):
    """System for k=3 written out by hand: x is a point of the candidate line."""
    return v[1] - x[1] == v[0] * x[0] and v[2] - x[2] == v[1] * x[0]


def wenger_system_holds(v, x, k):
    return all(x[i] + v[k - 1] * x[i + 1] - v[i] == 0 for i in range(k - 1))


def lu5_system_holds(v, x):
    """The four k=5 equations written out by hand."""
    return (
        v[1] - x[1] == v[0] * x[0]
        and v[2] - x[2] == v[1] * x[0]
        and v[3] - x[3] == v[0] * x[1]
        and v[4] - x[4] == v[0] * x[2]
    )


class TestLineConstruction:
    def test_lu_k3_shape(self):
        line = line_from_params("lu", (1, 2, 2), 3)
        assert point_at(line, 0) == (0, 2, 2)
        assert line.key == (0, 2, 2)
        assert line.direction == (1, -1, -2)

    def test_lu_zero_params_is_first_axis(self):
        line = line_from_params("lu", (0, 0, 0), 3)
        assert point_at(line, 0) == (0, 0, 0)
        assert line.key == (0, 0, 0)
        assert line.direction == (1, 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_lu_line_points_satisfy_system(self, seed):
        rng = random.Random(seed)
        v = tuple(rng.randrange(-6, 7) for _ in range(3))
        line = line_from_params("lu", v, 3)
        for t in (0, 1, -2, Fraction(1, 3)):
            assert lu3_system_holds(v, point_at(line, t))

    @pytest.mark.parametrize("seed", range(6))
    def test_lu_k5_line_points_satisfy_system(self, seed):
        rng = random.Random(100 + seed)
        v = tuple(rng.randrange(-6, 7) for _ in range(5))
        line = line_from_params("lu", v, 5)
        for t in (0, 1, -3, Fraction(-2, 5)):
            assert lu5_system_holds(v, point_at(line, t))

    def test_wenger_k2_shape(self):
        v = (5, 3)
        line = line_from_params("wenger", v, 2)
        # the line x0 + 3*x1 - 5 = 0: (5, 0) is on it, direction ~ (-3, 1)
        assert point_on_line((5, 0), line)
        assert line.direction in ((3, -1), (-3, 1))

    def test_wenger_k3_shape(self):
        v0, v1, v2 = 7, 4, 2
        line = line_from_params("wenger", (v0, v1, v2), 3)
        assert point_on_line((v0 - v2 * v1, v1, 0), line)
        # direction collinear with (v2**2, -v2, 1)
        assert line.direction == (4, -2, 1)

    def test_wenger_zero_params_is_last_axis(self):
        line = line_from_params("wenger", (0, 0, 0), 3)
        assert point_at(line, 0) == (0, 0, 0)
        assert line.key == (0, 0, 0)
        assert line.direction == (0, 0, 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wenger_line_points_satisfy_system(self, k):
        rng = random.Random(k)
        for _ in range(8):
            v = tuple(rng.randrange(-5, 6) for _ in range(k))
            line = line_from_params("wenger", v, k)
            for t in (0, 2, -1, Fraction(5, 2)):
                assert wenger_system_holds(v, point_at(line, t), k)

    def test_wrong_parameter_length(self):
        with pytest.raises(ValueError):
            line_from_params("lu", (1, 2), 3)
        with pytest.raises(ValueError):
            line_from_params("wenger", (1, 2, 3), 2)


@st.composite
def param_batches(draw):
    """A family, a k it accepts, and up to 30 line parameter tuples, with
    repeats, so several tuples share a slope."""
    family, k = draw(st.sampled_from([("lu", 3), ("lu", 5), ("wenger", 2), ("wenger", 3), ("wenger", 5)]))
    entries = st.integers(-4, 4) | st.integers(-10**6, 10**6)
    pool = draw(st.lists(st.tuples(*[entries] * k), min_size=1, max_size=10))
    return family, k, draw(st.lists(st.sampled_from(pool), max_size=30))


@st.composite
def oracle_batches(draw):
    """A family, a k it accepts, and up to 40 line parameter tuples with
    repeats; sometimes one tuple has the wrong length."""
    family, k = draw(st.sampled_from(
        [("lu", 3), ("lu", 5), ("lu", 7), ("wenger", 2), ("wenger", 3), ("wenger", 5)]
    ))
    entries = st.integers(-4, 4) | st.integers(-10**6, 10**6)
    pool = draw(st.lists(st.tuples(*[entries] * k), min_size=1, max_size=12))
    params = draw(st.lists(st.sampled_from(pool), max_size=40))
    if draw(st.booleans()):
        wrong = draw(st.lists(entries, max_size=k + 2).filter(lambda v: len(v) != k))
        params.insert(draw(st.integers(0, len(params))), tuple(wrong))
    return family, k, params


class TestLinesFromParams:
    @given(oracle_batches())
    def test_columns_match_the_per_line_oracle(self, batch):
        family, k, params = batch
        try:
            expected = rowwise_lines_from_params(family, params, k)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                lines_from_params(family, params, k)
            assert str(got.value) == str(exc)
        else:
            lines = lines_from_params(family, params, k)
            assert list(lines) == expected
            assert all(type(line) is AffineLineKD for line in lines)

    @given(param_batches())
    def test_batch_matches_one_line_at_a_time(self, batch):
        family, k, params = batch
        lines = lines_from_params(family, params, k)
        assert len(lines) == len(params)
        plan = family_named(family).plan(k)
        for v, line in zip(params, lines):
            const, slope = solve_one(plan, v, from_point=False)
            assert line == line_through(const, slope)
            assert AffineLineKD(line.direction, line.key) == line
            for x in range(-2, 3):
                assert point_on_line([c + x * s for c, s in zip(const, slope)], line)
            lead = next(d for d in line.direction if d)
            assert lead > 0 and gcd(*line.direction) == 1

    @pytest.mark.parametrize(
        "family,k,n", [("lu", 3, 400), ("wenger", 2, 200), ("lu", 5, 200), ("wenger", 3, 300)]
    )
    def test_every_line_passes_the_validating_constructor(self, family, k, n):
        arr = build_truncated(TruncationSpec(family, k, n))
        lines = lines_from_params(family, arr.line_params, k)
        assert len(lines) == len(arr.line_params)
        for line in lines:
            assert AffineLineKD(line.direction, line.key) == line

    def test_empty_batch(self):
        lines = lines_from_params("wenger", [], 2)
        assert len(lines) == 0 and list(lines) == []

    def test_wrong_length_in_a_batch_rejected(self):
        with pytest.raises(ValueError, match="length 2, expected 3"):
            lines_from_params("lu", [(1, 2, 2), (0, 0, 0), (1, 2)], 3)


def assert_groups_match_the_per_line_oracles(points, lines, groups, seed, bound):
    """groups, the LineGroups of lines, against oracles that take one line at a time."""
    assert len(groups) == len(lines) and list(groups) == lines
    first = scan_first_collision(lines)
    assert certify_lines_distinct(groups) == (first is None, first)
    expected = scan_incidence_set_kd(points, lines)
    assert incidence_set_kd(points, groups) == expected
    pmap = sample_projection(lines[0].dim, seed, bound)
    try:
        flat_points, flat_lines, planar = project_line_by_line(points, lines, pmap)
    except ProjectionError as exc:
        with pytest.raises(ProjectionError) as got:
            project_with_map(points, groups, pmap, expected)
        assert str(got.value) == str(exc)
        return
    if planar != expected:
        message = f"incidences changed: +{len(planar - expected)} / -{len(expected - planar)}"
        with pytest.raises(ProjectionError, match=f"^{re.escape(message)}$"):
            project_with_map(points, groups, pmap, expected)
    else:
        got = project_with_map(points, groups, pmap, expected)
        assert got == (tuple(flat_points), tuple(flat_lines), frozenset(planar))


@st.composite
def family_line_sets(draw):
    """A family's lines from parameter tuples with repeats, and integer points
    on them (partners at small x) among a few free ones."""
    family, k = draw(st.sampled_from(
        [("lu", 3), ("lu", 5), ("lu", 7), ("wenger", 2), ("wenger", 3), ("wenger", 5)]
    ))
    entries = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    pool = draw(st.lists(st.tuples(*[entries] * k), min_size=1, max_size=8))
    params = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    plan = family_named(family).plan(k)
    points = []
    for v, x in draw(st.lists(st.tuples(st.sampled_from(params), st.integers(-2, 2)), max_size=20)):
        const, slope = solve_one(plan, v, from_point=False)
        points.append(tuple(c + m * x for c, m in zip(const, slope)))
    points += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), max_size=20))
    return family, k, params, points


@st.composite
def hand_built_line_sets(draw):
    """Integer points in [-2, 2]^dim and lines in up to 4 directions, some
    through a drawn point (walkable when the direction has a +-1 entry) and
    some through a rational point (a Fraction key: probed), drawn with
    repeats."""
    dim = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=40))
    vectors = st.tuples(*[st.sampled_from([-2, -1, 0, 1, 3])] * dim).filter(any)
    bases = st.sampled_from(points) | st.tuples(*[small_rationals] * dim)
    pool = [
        line_through(base, direction)
        for direction in draw(st.lists(vectors, min_size=1, max_size=4))
        for base in draw(st.lists(bases, min_size=1, max_size=3))
    ]
    return points, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))


class TestLineGroupsAgainstOracles:
    """Each consumer of the direction groups against its per-line oracle."""

    @given(family_line_sets(), st.integers(0, 1000), st.sampled_from([2, 3, 1 << 16]))
    def test_family_lines(self, case, seed, bound):
        family, k, params, points = case
        lines = rowwise_lines_from_params(family, params, k)
        groups = lines_from_params(family, params, k)
        assert_groups_match_the_per_line_oracles(points, lines, groups, seed, bound)

    @given(hand_built_line_sets(), st.integers(0, 1000), st.sampled_from([2, 3, 1 << 16]))
    def test_hand_built_lines(self, case, seed, bound):
        points, lines = case
        assert_groups_match_the_per_line_oracles(points, lines, LineGroups.of(lines), seed, bound)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_fractions_probes_and_walks_at_once(self, seed):
        points = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        walked = [line_through((0, 0), (1, 1)), line_through((1, 0), (1, 1))]
        half = line_through((Fraction(1, 2), 0), (0, 1))
        steep = line_through((0, 0), (2, 3))
        lines = [walked[0], half, steep, walked[1], half, walked[0], line_through((1, 1), (2, 3))]
        groups = LineGroups.of(lines)
        plan = {group[0]: walk for group, walk in _incidence_plan(points, groups)}
        assert plan == {(1, 1): (0, -2, 2), (0, 1): None, (2, 3): None}
        assert certify_lines_distinct(groups) == (False, (1, 4))
        assert_groups_match_the_per_line_oracles(points, lines, groups, seed, 1 << 16)


class TestPointOnLine:
    def test_derived_example_true(self):
        line = line_from_params("lu", (1, 2, 2), 3)
        assert point_on_line((1, 1, 0), line)

    def test_base_always_on_line(self):
        line = line_from_params("wenger", (5, 3), 2)
        assert point_on_line(point_at(line, 0), line)

    def test_derived_example_false(self):
        line = line_from_params("lu", (1, 2, 2), 3)
        assert not point_on_line((1, 1, 1), line)

    def test_rational_points(self):
        line = line_from_params("wenger", (5, 3), 2)
        assert point_on_line((Fraction(7, 2), Fraction(1, 2)), line)
        assert not point_on_line((Fraction(7, 2), Fraction(1, 3)), line)

    def test_dimension_mismatch(self):
        line = line_from_params("lu", (1, 2, 2), 3)
        with pytest.raises(ValueError):
            point_on_line((1, 1), line)


class TestCanonicalForm:
    def test_make_and_replace_check_like_the_constructor(self):
        with pytest.raises(ValueError, match="^key and direction must have equal length$"):
            AffineLineKD._make(((0, 0), "junk"))
        line = line_through((6, 5), (2, 4))
        with pytest.raises(ValueError, match="^key must have a zero pivot coordinate$"):
            line._replace(key=(1, -7))
        with pytest.raises(ValueError, match="^leading direction entry must be positive$"):
            line._replace(direction=(-1, -2))
        assert line._replace(key=(0, 3)) == AffineLineKD((1, 2), (0, 3))

    def test_through_normalizes_direction_sign_and_gcd(self):
        line = line_through((0, 0), (-4, -6))
        assert line.direction == (2, 3)

    def test_base_pivot_is_zero(self):
        line = line_through((6, 5), (2, 4))
        assert point_at(line, 0)[line.pivot] == 0
        assert line.key == (0, -7)
        assert point_on_line((6, 5), line)

    def test_same_line_same_form(self):
        a = line_through((0, 1, 5), (1, 2, 0))
        b = line_through((3, 7, 5), (-2, -4, 0))
        assert a == b

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            line_through((1, 2), (0, 0))


    @given(
        st.tuples(*[st.integers(-30, 30)] * 3),
        st.tuples(*[st.integers(-9, 9)] * 3),
    )
    def test_idempotent(self, base, direction):
        if not any(direction):
            return
        line = line_through(base, direction)
        again = line_through(point_at(line, 0), line.direction)
        assert line == again

    @given(
        st.tuples(*[st.integers(-30, 30)] * 3),
        st.tuples(*[st.integers(-9, 9)] * 3),
        st.integers(-5, 5),
    )
    def test_shifted_base_gives_same_line(self, base, direction, shift):
        if not any(direction):
            return
        line = line_through(base, direction)
        other_point = tuple(b + shift * d for b, d in zip(base, direction))
        assert line_through(other_point, direction) == line


class TestConstructorContract:
    """The checks of the direct AffineLineKD(direction, key) constructor."""

    @pytest.mark.parametrize(
        "direction,key,message",
        [
            ((1, 2), (0, 1, 2), "key and direction must have equal length"),
            ((0, 0), (0, 0), "direction must be nonzero"),
            ((0, -1, 2), (1, 0, 3), "leading direction entry must be positive"),
            ((2, 4, 0), (0, 1, 1), "direction must be primitive"),
            ((0, 1, 3), (2, 5, 0), "key must have a zero pivot coordinate"),
        ],
        ids=["unequal-length", "zero-direction", "negative-lead", "not-primitive", "pivot-key"],
    )
    def test_invalid_line_rejected(self, direction, key, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AffineLineKD(direction, key)

    def test_valid_line_keeps_its_fields(self):
        line = AffineLineKD((0, 2, -3), (Fraction(1, 2), 0, 7))
        assert (line.direction, line.key) == ((0, 2, -3), (Fraction(1, 2), 0, 7))
        assert (line.dim, line.pivot) == (3, 1)
        assert repr(line).startswith("AffineLineKD(")

    def test_equal_lines_hash_equal(self):
        a = AffineLineKD((1, 2), (0, 3))
        b = line_through((1, 5), (-2, -4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_lines_of_different_dimension_are_unequal(self):
        assert AffineLineKD((1, 0), (0, 0)) != AffineLineKD((1, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("reference", ["lu64", "wenger64"])
def test_reference_keys_and_planar_entries_are_ints(reference, request):
    arr = request.getfixturevalue(reference)
    lines = request.getfixturevalue(f"{reference}_lines")
    planar, _ = project_generic(arr.points, lines, seed=1)
    entries = [c for line in lines for c in line.key]
    entries += [c for p in planar.points for c in p] + [c for t in planar.lines for c in t]
    assert all(type(c) is int for c in entries)


class TestDistinctness:
    def test_reference_lines_all_distinct(self, lu64_lines):
        ok, pair = certify_lines_distinct(lu64_lines)
        assert ok and pair is None
        assert len(lu64_lines) == 2145

    def test_wenger_lines_all_distinct(self, wenger64_lines):
        ok, _ = certify_lines_distinct(wenger64_lines)
        assert ok
        assert len(wenger64_lines) == 165

    def test_duplicate_parameters_reported(self):
        lines = [
            line_from_params("lu", (1, 2, 2), 3),
            line_from_params("lu", (0, 0, 0), 3),
            line_from_params("lu", (1, 2, 2), 3),
        ]
        ok, pair = certify_lines_distinct(lines)
        assert not ok
        assert pair == (0, 2)

    def test_parallel_lines_distinct(self):
        a = line_from_params("wenger", (32, 4), 2)
        b = line_from_params("wenger", (33, 4), 2)
        assert a.direction == b.direction
        assert a != b
        ok, _ = certify_lines_distinct([a, b])
        assert ok


small_rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3]))


@st.composite
def arrangements(draw):
    """Small rational arrangements: several parallel lines per direction, and
    points drawn on chosen lines (so hits occur) besides free points."""
    dim = draw(st.integers(2, 4))
    vectors = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    coordinates = st.tuples(*[small_rationals] * dim)
    lines = [
        line_through(base, direction)
        for direction in draw(st.lists(vectors, min_size=1, max_size=4))
        for base in draw(st.lists(coordinates, min_size=1, max_size=4))
    ]
    placed = draw(
        st.lists(st.tuples(st.integers(0, len(lines) - 1), small_rationals), max_size=12)
    )
    points = [point_at(lines[lj], t) for lj, t in placed]
    points += draw(st.lists(coordinates, max_size=6))
    return points, lines


class TestIncidences:
    def test_lu_realization_equivalence(self, lu64, lu64_lines):
        assert incidence_set_kd(lu64.points, lu64_lines) == lu64.edge_set

    def test_wenger_realization_equivalence(self, wenger64, wenger64_lines):
        assert incidence_set_kd(wenger64.points, wenger64_lines) == wenger64.edge_set

    def test_empty_lines(self, lu64):
        assert incidence_set_kd(lu64.points, []) == set()

    def test_single_point_degree_recount(self, lu64, lu64_lines):
        pairs = incidence_set_kd([lu64.points[0]], lu64_lines)
        assert len(pairs) == 5  # one line per admissible free coordinate

    def test_dimension_mismatch(self, lu64_lines):
        with pytest.raises(ValueError):
            incidence_set_kd([(1, 2)], lu64_lines)

    @given(arrangements())
    def test_grouped_lookup_matches_pairwise_scan(self, arrangement):
        points, lines = arrangement
        assert incidence_set_kd(points, lines) == scan_incidence_set_kd(points, lines)


def walks(points, lines):
    """Per direction, the walk the incidence pass takes, or None where it probes."""
    return {group[0]: walk for group, walk in _incidence_plan(points, LineGroups.of(lines))}


@st.composite
def integer_arrangements(draw, entries, points_size):
    """Integer points in [-2, 2]^dim, up to 3 directions drawn from entries, and
    up to 3 lines per direction: some through a drawn point, some given by an
    arbitrary integer key, which may name a line without integer points."""
    dim = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), **points_size))
    vectors = st.tuples(*[st.sampled_from(entries)] * dim).filter(lambda v: gcd(*v) == 1)
    lines = []
    origin = (0,) * dim
    vectors = draw(st.lists(vectors, min_size=1, max_size=3))
    directions = {line_through(origin, v).direction for v in vectors}
    for direction in sorted(directions):
        pivot = next(idx for idx, d in enumerate(direction) if d)
        for through in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
            if through and points:
                lines.append(line_through(draw(st.sampled_from(points)), direction))
            else:
                key = draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim))
                key[pivot] = 0
                lines.append(AffineLineKD(direction, tuple(key)))
    return points, lines


class TestWalkOrProbe:
    """incidence_set_kd against the pairwise oracle on each method it can choose."""

    # At least 16 points and at most 3 keys over an extent of at most 5: every
    # direction with a +-1 entry is cheaper to walk.
    @given(integer_arrangements([-3, -1, 0, 1, 2], {"min_size": 16, "max_size": 30}))
    def test_walked_directions_match_pairwise_scan(self, arrangement):
        points, lines = arrangement
        for direction, walk in walks(points, lines).items():
            assert (walk is not None) == any(d in (1, -1) for d in direction)
        assert incidence_set_kd(points, lines) == scan_incidence_set_kd(points, lines)

    # No entry is +-1, so no direction can be walked.
    @given(integer_arrangements([-3, -2, 0, 2, 3], {"max_size": 30}))
    def test_probed_directions_match_pairwise_scan(self, arrangement):
        points, lines = arrangement
        assert set(walks(points, lines).values()) <= {None}
        assert incidence_set_kd(points, lines) == scan_incidence_set_kd(points, lines)

    def test_walk_off_the_pivot_divides_the_key(self):
        # Direction (2, 1, 0) is walked along coordinate 1, not its pivot 0, so
        # the base point is key / 2 where that is exact; key (0, 0, 1) has none.
        points = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        lines = [AffineLineKD((2, 1, 0), key) for key in [(0, 0, 2), (0, 1, 0), (0, 0, 1)]]
        assert walks(points, lines) == {(2, 1, 0): (1, 0, 2)}
        found = incidence_set_kd(points, lines)
        assert found == scan_incidence_set_kd(points, lines)
        on_line = {lj: {points[pi] for pi, l in found if l == lj} for lj in range(3)}
        assert on_line == {0: {(0, 0, 1), (2, 1, 1)}, 1: {(1, 1, 0)}, 2: set()}

    def test_walk_keeps_every_index_of_a_duplicate_point(self):
        points = [(0, 0), (1, 1), (0, 0), (2, 1)] * 2
        lines = [line_through((0, 0), (1, 1)), line_through((2, 1), (0, 1))]
        assert all(walk is not None for walk in walks(points, lines).values())
        found = incidence_set_kd(points, lines)
        assert found == scan_incidence_set_kd(points, lines)
        assert found == {(0, 0), (1, 0), (2, 0), (4, 0), (5, 0), (6, 0), (3, 1), (7, 1)}

    def test_non_integer_point_on_a_walkable_line(self):
        points = [(x, y) for x in range(4) for y in range(4)] + [(Fraction(1, 2), Fraction(1, 2))]
        lines = [line_through((0, 0), (1, 1))]
        assert walks(points, lines) == {(1, 1): None}
        found = incidence_set_kd(points, lines)
        assert found == scan_incidence_set_kd(points, lines)
        assert (16, 0) in found

    def test_non_integer_key_is_probed(self):
        points = [(x, y) for x in range(4) for y in range(4)]
        half = line_through((Fraction(1, 2), 0), (0, 1))
        lines = [half, line_through((1, 0), (0, 1)), line_through((0, 0), (1, 1))]
        assert half.key == (Fraction(1, 2), 0)
        assert walks(points, lines) == {(0, 1): None, (1, 1): (0, 0, 3)}
        assert incidence_set_kd(points, lines) == scan_incidence_set_kd(points, lines)

    def test_huge_coordinate_is_probed_at_once(self):
        points = [(x, y) for x in range(4) for y in range(4)] + [(10**30, 10**30)]
        lines = [line_through((0, 0), (1, 1)), line_through((0, 1), (1, 1))]
        assert walks(points, lines) == {(1, 1): None}
        assert incidence_set_kd(points, lines) == scan_incidence_set_kd(points, lines)
        assert (16, 0) in incidence_set_kd(points, lines)

    @pytest.mark.parametrize("count", [2, 16], ids=["probed", "walked"])
    def test_point_of_wrong_dimension_rejected(self, count):
        points = [(x, x % 2) for x in range(count)]
        lines = [line_through((0, 0), (0, 1))]
        assert (walks(points, lines)[(0, 1)] is None) == (count == 2)
        with pytest.raises(ValueError, match="point 1 has dimension 3"):
            incidence_set_kd([points[0], (1, 0, 0)] + points[1:], lines)

    def test_reference_instances_walk_every_direction(self, lu64, lu64_lines, wenger64, wenger64_lines):
        for arr, lines in [(lu64, lu64_lines), (wenger64, wenger64_lines)]:
            plan = walks(arr.points, lines)
            assert plan and None not in plan.values()


class TestProjectionMap:
    def test_seeded_rows_are_reproducible(self):
        a = sample_projection(3, seed=1, bound=1 << 16)
        b = sample_projection(3, seed=1, bound=1 << 16)
        assert a.rows == b.rows
        assert a.seed == 1 and a.bound == 1 << 16

    def test_different_seed_different_rows(self):
        a = sample_projection(3, seed=1)
        b = sample_projection(3, seed=2)
        assert a.rows != b.rows

    def test_rows_always_independent(self):
        for seed in range(60):
            pmap = sample_projection(3, seed=seed, bound=2)
            r1, r2 = pmap.rows
            assert any(
                r1[a] * r2[b] != r1[b] * r2[a]
                for a in range(3)
                for b in range(a + 1, 3)
            )

    def test_identity_rows_are_valid(self):
        pmap = ProjectionMap(((1, 0), (0, 1)))
        assert pmap.apply((3, 7)) == (3, 7)

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            ProjectionMap(((1, 2), (2, 4)))

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            sample_projection(3, seed=1, bound=1)


class TestCanonicalPlanarLine:
    def test_clears_denominators_and_gcd(self):
        assert canonical_planar_line(Fraction(2, 3), Fraction(4, 3), 2) == (1, 2, 3)

    def test_sign_normalization(self):
        assert canonical_planar_line(-2, 4, -6) == (1, -2, 3)
        assert canonical_planar_line(0, -5, 10) == (0, 1, -2)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            canonical_planar_line(0, 0, 7)


def points_on(line, xs):
    """Rational points of the planar line (a, b, c), one per x (per y when b = 0)."""
    a, b, c = line
    if b == 0:
        return [(Fraction(-c, a), y) for y in xs]
    return [(x, Fraction(-c - a * x, b)) for x in xs]


@st.composite
def planar_cases(draw):
    """Distinct canonical triples, many sharing a primitive slope but not (a, b),
    and distinct rational points, some of them on the lines."""
    small = st.integers(-4, 4)
    triples = st.tuples(small, small, st.integers(-9, 9)).filter(lambda t: t[:2] != (0, 0))
    drawn = draw(st.lists(triples, min_size=1, max_size=8))
    lines = list(dict.fromkeys(canonical_planar_line(*t) for t in drawn))
    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    points = draw(st.lists(st.tuples(rationals, rationals), max_size=6))
    for line in draw(st.lists(st.sampled_from(lines), max_size=6)):
        points += points_on(line, [draw(rationals)])
    return list(dict.fromkeys(points)), lines


class TestPlanarIncidences:
    """_planar_incidences against the pairwise scan, on lines that share a
    primitive slope class but not (a, b)."""

    def test_fixed_lines_sharing_slopes(self):
        lines = [(1, 2, 3), (2, 4, 1), (2, 4, -3), (0, 3, 1), (0, 1, 5), (1, 0, -2)]
        points = [p for line in lines for p in points_on(line, [0, Fraction(1, 2), 2])]
        # (3, 0) is on no line, but x + 2y = 3 = -c for (2, 4, -3) unscaled.
        points = list(dict.fromkeys(points + [(3, 0), (Fraction(1, 3), Fraction(1, 7))]))
        expected = scan_planar_incidences(points, lines)
        assert len(expected) == 23
        assert _planar_incidences(points, lines) == expected

    @given(planar_cases())
    def test_matches_pairwise_scan(self, case):
        points, lines = case
        assert _planar_incidences(points, lines) == scan_planar_incidences(points, lines)


class TestProjection:
    def test_identity_map_preserves_wenger_incidences(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points,
            wenger64_lines,
            ProjectionMap(((1, 0), (0, 1))),
            incidence_set_kd(wenger64.points, wenger64_lines),
        )
        assert planar.incidences == wenger64.edge_set
        assert len(planar.points) == 325
        assert len(planar.lines) == 165

    def test_generic_projection_of_reference_instance(self, lu64, lu64_lines):
        planar, pmap = project_generic(lu64.points, lu64_lines, seed=1)
        assert len(set(planar.points)) == 135
        assert len(set(planar.lines)) == 2145
        assert planar.incidences == lu64.edge_set
        assert lu64.to_bipartite_graph() == planar.to_bipartite_graph()
        assert pmap.seed >= 1

    def test_planar_lines_are_canonical(self, lu64, lu64_lines):
        planar, _ = project_generic(lu64.points, lu64_lines, seed=1)
        for a, b, c in planar.lines:
            assert (a, b) != (0, 0)
            assert gcd(a, gcd(b, c)) == 1
            lead = a if a else b
            assert lead > 0

    def test_tiny_bound_exhausts_retries(self, lu64, lu64_lines):
        with pytest.raises(ProjectionError, match="raise the coefficient bound"):
            project_generic(lu64.points, lu64_lines, seed=1, bound=2)

    def test_duplicate_points_rejected(self, lu64_lines):
        with pytest.raises(ValueError, match="distinct"):
            project_generic([(0, 0, 0), (0, 0, 0)], lu64_lines[:5], seed=1)

    def test_duplicate_lines_rejected(self, lu64):
        dup = [line_from_params("lu", (1, 2, 2), 3)] * 2
        with pytest.raises(ValueError, match="coincide"):
            project_generic(lu64.points, dup, seed=1)

    def test_map_that_gains_an_incidence_fails_verification(self):
        points = [(0, 0, 1)]
        lines = [line_through((0, 0, 0), (1, 0, 0))]
        pmap = ProjectionMap(((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ProjectionError, match=r"\+1 / -0"):
            project_with_map(points, lines, pmap, incidence_set_kd(points, lines))

    @given(arrangements(), st.integers(0, 1000), st.sampled_from([2, 3, 1 << 16]))
    def test_planar_check_matches_pairwise_scan(self, arrangement, seed, bound):
        points, lines = (list(dict.fromkeys(items)) for items in arrangement)
        pmap = sample_projection(lines[0].dim, seed, bound)
        expected = scan_incidence_set_kd(points, lines)
        try:
            planar = project_with_map(points, lines, pmap, expected)
        except ProjectionError as exc:
            if not str(exc).startswith("incidences changed"):
                return
            flat = scan_planar_incidences(
                [pmap.apply(p) for p in points], [planar_triple(line, pmap) for line in lines]
            )
            gained, lost = len(flat - expected), len(expected - flat)
            assert str(exc) == f"incidences changed: +{gained} / -{lost}"
        else:
            assert planar.incidences == scan_planar_incidences(planar.points, planar.lines)
            assert planar.incidences == expected

    @pytest.mark.parametrize(
        "reference,rows",
        [("wenger64", ((1, 0, 0), (0, 1, 0))), ("lu64", ((1, 0), (0, 1)))],
    )
    def test_map_of_another_dimension_is_refused(self, reference, rows, request, monkeypatch):
        arr = request.getfixturevalue(reference)
        lines = request.getfixturevalue(f"{reference}_lines")
        pmap = ProjectionMap(rows)

        def no_apply(self, vector):
            raise AssertionError("a point was projected")

        monkeypatch.setattr(ProjectionMap, "apply", no_apply)
        dims = rf"dimension {len(rows[0])}\b.*dimension {lines[0].dim}\b"
        with pytest.raises(ValueError, match=dims):
            project_with_map(arr.points, lines, pmap, arr.edge_set)

    def test_kernel_direction_fails_verification(self):
        # a map that kills the direction (0, 0, 1)
        points = [(0, 0, 0), (0, 0, 1)]
        lines = [line_from_params("wenger", (0, 0, 0), 3)]
        pmap = ProjectionMap(((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ProjectionError):
            project_with_map(points, lines, pmap, incidence_set_kd(points, lines))


class TestPerDirectionProjection:
    """project_with_map against the two-point oracle planar_triple."""

    @pytest.mark.parametrize("reference", ["lu64", "wenger64"])
    def test_reference_lines_match_two_point_oracle(self, reference, request):
        arr = request.getfixturevalue(reference)
        lines = request.getfixturevalue(f"{reference}_lines")
        pmap = sample_projection(lines[0].dim, 7)
        planar = project_with_map(arr.points, lines, pmap, arr.edge_set)
        assert list(planar.lines) == [planar_triple(line, pmap) for line in lines]

    def test_fraction_key_matches_two_point_oracle(self):
        half = line_through((Fraction(1, 2), 0), (0, 1))
        third = line_through((Fraction(1, 3), Fraction(2, 3)), (2, -4))
        # (5, 2) maps to (17, 0): a = 0 and b < 0 until the sign is turned.
        flat = line_through((0, Fraction(1, 3)), (5, 2))
        lines = [half, third, flat, line_through((1, 0), (0, 1)), line_through((0, 0), (1, 1))]
        assert half.key == (Fraction(1, 2), 0)
        pmap = ProjectionMap(((3, 1), (-2, 5)))
        planar = project_with_map([], lines, pmap, set())
        assert list(planar.lines) == [planar_triple(line, pmap) for line in lines]

    @given(arrangements(), st.integers(0, 1000))
    def test_lines_match_two_point_oracle(self, arrangement, seed):
        _, lines = arrangement
        lines = list(dict.fromkeys(lines))
        pmap = sample_projection(lines[0].dim, seed)
        try:
            planar = project_with_map([], lines, pmap, set())
        except ProjectionError:
            return
        assert list(planar.lines) == [planar_triple(line, pmap) for line in lines]

    @pytest.mark.parametrize("first", [0, 1])
    def test_degenerate_direction_names_its_first_line(self, first):
        # The map kills (0, 0, 1); lines `first` and `first + 1` have that direction.
        killed = [line_through((0, 0, 0), (0, 0, 1)), line_through((1, 0, 0), (0, 0, 1))]
        lines = [line_through((0, 0, 0), (1, 0, 0))][:first] + killed
        pmap = ProjectionMap(((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ProjectionError, match=f"^line {first} degenerates under the map$"):
            project_with_map([], lines, pmap, set())

