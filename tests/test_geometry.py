import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from girthforge.geometry import (
    AffineLineKD,
    ProjectionError,
    ProjectionMap,
    canonical_planar_line,
    certify_lines_distinct,
    incidence_set_kd,
    line_from_params,
    point_on_line,
    project_generic,
    project_with_map,
    sample_projection,
)
from girthforge.graphs import graphs_identical


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
        assert line.base == (0, 2, 2)
        assert line.direction == (1, -1, -2)

    def test_lu_zero_params_is_first_axis(self):
        line = line_from_params("lu", (0, 0, 0), 3)
        assert line.base == (0, 0, 0)
        assert line.direction == (1, 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_lu_line_points_satisfy_system(self, seed):
        rng = random.Random(seed)
        v = tuple(rng.randrange(-6, 7) for _ in range(3))
        line = line_from_params("lu", v, 3)
        for t in (0, 1, -2, Fraction(1, 3)):
            assert lu3_system_holds(v, line.point_at(t))

    @pytest.mark.parametrize("seed", range(6))
    def test_lu_k5_line_points_satisfy_system(self, seed):
        rng = random.Random(100 + seed)
        v = tuple(rng.randrange(-6, 7) for _ in range(5))
        line = line_from_params("lu", v, 5)
        for t in (0, 1, -3, Fraction(-2, 5)):
            assert lu5_system_holds(v, line.point_at(t))

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
        assert line.base == (0, 0, 0)
        assert line.direction == (0, 0, 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wenger_line_points_satisfy_system(self, k):
        rng = random.Random(k)
        for _ in range(8):
            v = tuple(rng.randrange(-5, 6) for _ in range(k))
            line = line_from_params("wenger", v, k)
            for t in (0, 2, -1, Fraction(5, 2)):
                assert wenger_system_holds(v, line.point_at(t), k)

    def test_wrong_parameter_length(self):
        with pytest.raises(ValueError):
            line_from_params("lu", (1, 2), 3)
        with pytest.raises(ValueError):
            line_from_params("wenger", (1, 2, 3), 2)


class TestPointOnLine:
    def test_derived_example_true(self):
        line = line_from_params("lu", (1, 2, 2), 3)
        assert point_on_line((1, 1, 0), line)

    def test_base_always_on_line(self):
        line = line_from_params("wenger", (5, 3), 2)
        assert point_on_line(line.base, line)

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
    def test_through_normalizes_direction_sign_and_gcd(self):
        line = AffineLineKD.through((0, 0), (-4, -6))
        assert line.direction == (2, 3)

    def test_base_pivot_is_zero(self):
        line = AffineLineKD.through((6, 5), (2, 4))
        assert line.base[line.pivot] == 0
        assert point_on_line((6, 5), line)

    def test_same_line_same_form(self):
        a = AffineLineKD.through((0, 1, 5), (1, 2, 0))
        b = AffineLineKD.through((3, 7, 5), (-2, -4, 0))
        assert a == b

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            AffineLineKD.through((1, 2), (0, 0))

    @given(
        st.tuples(*[st.integers(-30, 30)] * 3),
        st.tuples(*[st.integers(-9, 9)] * 3),
    )
    def test_idempotent(self, base, direction):
        if not any(direction):
            return
        line = AffineLineKD.through(base, direction)
        again = AffineLineKD.through(line.base, line.direction)
        assert line == again

    @given(
        st.tuples(*[st.integers(-30, 30)] * 3),
        st.tuples(*[st.integers(-9, 9)] * 3),
        st.integers(-5, 5),
    )
    def test_shifted_base_gives_same_line(self, base, direction, shift):
        if not any(direction):
            return
        line = AffineLineKD.through(base, direction)
        other_point = tuple(b + shift * d for b, d in zip(base, direction))
        assert AffineLineKD.through(other_point, direction) == line


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


class TestProjection:
    def test_identity_map_preserves_wenger_incidences(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points, wenger64_lines, ProjectionMap(((1, 0), (0, 1)))
        )
        assert planar.incidences == wenger64.edge_set
        assert len(planar.points) == 325
        assert len(planar.lines) == 165

    def test_generic_projection_of_reference_instance(self, lu64, lu64_lines):
        planar, pmap = project_generic(lu64.points, lu64_lines, seed=1)
        assert len(set(planar.points)) == 135
        assert len(set(planar.lines)) == 2145
        assert planar.incidences == lu64.edge_set
        assert graphs_identical(
            lu64.to_bipartite_graph(), planar.to_bipartite_graph()
        )
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
            project_generic(lu64.points, lu64_lines, seed=1, bound=2, max_retries=4)

    def test_duplicate_points_rejected(self, lu64_lines):
        with pytest.raises(ValueError, match="distinct"):
            project_generic([(0, 0, 0), (0, 0, 0)], lu64_lines[:5], seed=1)

    def test_duplicate_lines_rejected(self, lu64):
        dup = [line_from_params("lu", (1, 2, 2), 3)] * 2
        with pytest.raises(ValueError, match="coincide"):
            project_generic(lu64.points, dup, seed=1)

    def test_kernel_direction_fails_verification(self):
        # a map that kills the direction (0, 0, 1)
        points = [(0, 0, 0), (0, 0, 1)]
        lines = [line_from_params("wenger", (0, 0, 0), 3)]
        pmap = ProjectionMap(((1, 0, 0), (0, 1, 0)))
        with pytest.raises(ProjectionError):
            project_with_map(points, lines, pmap)
