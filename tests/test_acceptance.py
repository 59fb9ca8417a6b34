"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expected values are either exact combinatorial facts
(vertex, edge, and box counts), frozen outputs of independent oracles, or
properties re-derived here from scratch.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from helpers import enumeration_girth, girth_target, is_cycle, random_bipartite

from girthforge.algebraic import LUParams, WengerParams, build_lu_graph, build_wenger_graph
from girthforge.exactmath import floor_pow
from girthforge.geometry import certify_lines_distinct, incidence_set_kd, project_generic
from girthforge.graphs import (
    degree_stats,
    girth,
    has_cycle_of_length,
    st_ratio,
    theoretical_exponent,
)
from girthforge.truncation import (
    LUTruncationSpec,
    WengerTruncationSpec,
    build_truncated,
    embedding_prime,
    verify_subgraph_embedding,
)


class criterion:
    """Prints 'criterion N: PASS/FAIL (detail)' when the block exits."""

    def __init__(self, num):
        self.num = num
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"criterion {self.num}: {status}{suffix}")
        return False


def test_criterion_1_layered_graph_k3_q3():
    with criterion(1) as c:
        g = build_lu_graph(LUParams(3, 3))
        assert g.vertex_count == 54
        assert g.edge_count == 81
        left, right = degree_stats(g)
        assert left.minimum == left.maximum == 3
        assert right.minimum == right.maximum == 3
        report = girth(g)
        assert report.girth >= 8
        assert is_cycle(g, report.witness, report.girth)
        assert report.girth == enumeration_girth(g)
        elapsed = c.elapsed
        assert elapsed < 1.0
        c.detail = f"girth {report.girth}, {elapsed:.2f}s"


def test_criterion_2_layered_graph_k5_q3():
    with criterion(2) as c:
        g = build_lu_graph(LUParams(5, 3))
        assert g.vertex_count == 486
        left, right = degree_stats(g)
        assert left.minimum == left.maximum == 3
        assert right.minimum == right.maximum == 3
        report = girth(g)
        assert report.girth >= 10
        elapsed = c.elapsed
        assert elapsed < 10.0
        c.detail = f"girth {report.girth}, {elapsed:.2f}s"


def test_criterion_3_wenger_forbidden_cycles():
    with criterion(3) as c:
        cases = [(2, 3), (2, 5), (2, 7), (3, 3), (3, 11), (5, 2), (5, 3)]
        for k, p in cases:
            g = build_wenger_graph(WengerParams(k, p))
            assert has_cycle_of_length(g, 2 * k) is None, (k, p)
            if (k, p) == (3, 11):
                assert girth(g).girth == 8
        elapsed = c.elapsed
        assert elapsed < 60.0
        c.detail = f"{len(cases)} instances, {elapsed:.2f}s"


def test_criterion_4_truncated_layered_instance():
    with criterion(4) as c:
        spec = LUTruncationSpec(3, 64)
        arr = build_truncated(spec)
        assert len(arr.points) == 135
        assert len(arr.line_params) == 2145
        assert len(arr.edges) == 675
        degrees = Counter(pi for pi, _ in arr.edges)
        bound = floor_pow(64, Fraction(1, 6), 2)
        assert bound == 4
        assert all(degrees[pi] == 5 for pi in range(135))
        assert 5 >= bound
        report = girth(arr.to_bipartite_graph())
        assert report.girth >= 8
        assert embedding_prime(arr, "minimal") == 37
        assert verify_subgraph_embedding(arr, 37)
        elapsed = c.elapsed
        assert elapsed < 5.0
        c.detail = f"135/2145/675, girth {report.girth}, q=37, {elapsed:.2f}s"


def test_criterion_5_truncated_wenger_instance():
    with criterion(5) as c:
        spec = WengerTruncationSpec(2, 64)
        arr = build_truncated(spec)
        assert len(arr.points) == 325
        assert len(arr.line_params) == 165
        assert len(arr.edges) == 825
        degrees = Counter(lj for _, lj in arr.edges)
        bound = floor_pow(64, Fraction(1, 3), 1)
        assert bound == 4
        assert all(degrees[lj] == 5 for lj in range(165))
        assert 5 >= bound
        assert has_cycle_of_length(arr.to_bipartite_graph(), 4) is None
        elapsed = c.elapsed
        assert elapsed < 5.0
        c.detail = f"325/165/825, C4-free, {elapsed:.2f}s"


def test_criterion_6_realization_equivalence(lu64, lu64_lines, wenger64, wenger64_lines):
    with criterion(6) as c:
        assert incidence_set_kd(lu64.points, lu64_lines) == lu64.edge_set
        ok, _ = certify_lines_distinct(lu64_lines)
        assert ok and len(lu64_lines) == 2145
        assert incidence_set_kd(wenger64.points, wenger64_lines) == wenger64.edge_set
        ok, _ = certify_lines_distinct(wenger64_lines)
        assert ok and len(wenger64_lines) == 165
        c.detail = f"both instances, {c.elapsed:.2f}s"


def test_criterion_7_projection_soundness(lu64, lu64_lines):
    with criterion(7) as c:
        planar, pmap = project_generic(lu64.points, lu64_lines, seed=1, bound=1 << 16)
        assert len(set(planar.points)) == 135
        assert len(set(planar.lines)) == 2145
        assert len(planar.incidences) == 675
        pre = lu64.to_bipartite_graph()
        post = planar.to_bipartite_graph()
        assert pre == post
        report = girth(post)
        assert report.girth >= 8
        c.detail = (
            f"seed {pmap.seed}, planar girth {report.girth}, {c.elapsed:.2f}s"
        )


def test_criterion_8_exponent_formulas():
    with criterion(8) as c:
        assert theoretical_exponent("lu", 3) == Fraction(7, 6)
        assert theoretical_exponent("wenger", 5) == Fraction(16, 15)
        assert girth_target(3) == 8
        assert girth_target(5) == 10
        c.detail = "7/6, 16/15, 8, 10"


def test_criterion_9_sanity_diagnostics(lu64, wenger64):
    with criterion(9) as c:
        r_lu = st_ratio(len(lu64.points), len(lu64.line_params), len(lu64.edges))
        r_w = st_ratio(
            len(wenger64.points), len(wenger64.line_params), len(wenger64.edges)
        )
        assert r_lu < 1
        assert r_w < 1
        rng = random.Random(20250808)
        mismatches = 0
        for _ in range(200):
            g = random_bipartite(rng)
            if girth(g).girth != enumeration_girth(g):
                mismatches += 1
        assert mismatches == 0
        c.detail = (
            f"ratios {float(r_lu):.3f} / {float(r_w):.3f}, "
            f"200 graphs 0 mismatches, {c.elapsed:.2f}s"
        )


def _layered_girth(num, k, q, expected):
    """D(k, q) is q-regular on q^k vertices a side, with girth exactly expected >= k + 5."""
    with criterion(num) as c:
        g = build_lu_graph(LUParams(k, q))
        assert g.left_count == g.right_count == q**k
        left, right = degree_stats(g)
        assert left.minimum == left.maximum == right.minimum == right.maximum == q
        report = girth(g)
        assert report.girth == expected >= girth_target(k)
        assert is_cycle(g, report.witness, report.girth)
        elapsed = c.elapsed
        assert elapsed < 30.0
        c.detail = f"girth {report.girth} >= {girth_target(k)}, {elapsed:.2f}s"


def test_criterion_10_layered_graph_k7_q3():
    _layered_girth(10, 7, 3, 12)


def test_criterion_11_layered_graph_k9_q3():
    _layered_girth(11, 9, 3, 18)


def test_criterion_12_layered_graph_k5_q7():
    _layered_girth(12, 5, 7, 10)


def test_criterion_13_wenger_k5_p7_has_no_ten_cycle():
    with criterion(13) as c:
        g = build_wenger_graph(WengerParams(5, 7))
        assert g.left_count == g.right_count == 7**5
        assert has_cycle_of_length(g, 10) is None
        elapsed = c.elapsed
        assert elapsed < 30.0
        c.detail = f"no 10-cycle, {elapsed:.2f}s"


def test_criterion_14_layered_graph_k7_q5():
    _layered_girth(14, 7, 5, 12)
