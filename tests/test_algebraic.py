import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import girthforge
from girthforge import families
from girthforge.algebraic import (
    BudgetExceededError,
    FieldParams,
    LUParams,
    WengerParams,
    build_lu_graph,
    build_wenger_graph,
    plan_roots,
)
from girthforge.families import CoordLabel, family_named, lu_labels
from girthforge.geometry import ProjectionMap
from girthforge.graphs import degree_stats, girth, has_cycle_of_length
from girthforge.truncation import TruncationSpec
from helpers import LU_BY_HAND, bumped, field_edge, field_neighbors, lu_edge_free, per_edge_field_graph, solve_one


class TestLabels:
    def test_first_position(self):
        assert lu_labels(5)[0] == CoordLabel("first")

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
        assert lu_labels(9)[8] == CoordLabel("pair", 3, 3)

    def test_second_block(self):
        assert list(lu_labels(13)[5:]) == [
            CoordLabel("primed", 2, 2),
            CoordLabel("pair", 2, 3),
            CoordLabel("pair", 3, 2),
            CoordLabel("pair", 3, 3),
            CoordLabel("primed", 3, 3),
            CoordLabel("pair", 3, 4),
            CoordLabel("pair", 4, 3),
            CoordLabel("pair", 4, 4),
        ]

    @pytest.mark.parametrize(
        "edit, error",
        [
            # the primed coordinate of layer 1 is identified with (1,1), never stored
            (lambda labels: labels[:5] + (CoordLabel("primed", 1, 1),) + labels[6:], KeyError),
            # (2,2) stored before the (1,2) its equation reads
            (lambda labels: labels[:2] + labels[4:1:-1] + labels[5:], AssertionError),
            # a pair two layers apart, and a kind the plan has no equation for
            (lambda labels: labels[:6] + (CoordLabel("pair", 1, 3),), AssertionError),
            (lambda labels: labels[:6] + (CoordLabel("diagonal", 2, 2),), AssertionError),
        ],
        ids=["unknown-coordinate", "reads-a-later-position", "pair-two-layers-apart", "unknown-kind"],
    )
    def test_the_plan_refuses_a_label_it_cannot_read(self, monkeypatch, edit, error):
        # labels carry no checks of their own; the plan reading them is the check
        labels = edit(lu_labels(7))
        monkeypatch.setattr(families, "lu_labels", lambda k: labels)
        with pytest.raises(error):
            families._lu_plan.__wrapped__(7)

    @pytest.mark.parametrize(
        "value, bad",
        [
            (FieldParams("lu", 3, 5), {"q": 4}),
            (TruncationSpec("lu", 3, 7), {"n": 0}),
            (ProjectionMap(((1, 0), (0, 1))), {"rows": ((1, 0), (2, 0))}),
        ],
    )
    def test_replace_checks_like_the_constructor(self, value, bad):
        assert type(value._replace()) is type(value)
        with pytest.raises(ValueError):
            value._replace(**bad)
        with pytest.raises(ValueError):
            type(value)._make({**value._asdict(), **bad}.values())

    def test_plan_reads_only_earlier_positions(self):
        # the layered plan solves the positions in storage order, and each
        # equation v[t] - u[t] = v[a] * u[b] reads only earlier positions
        for k in (3, 5, 7, 9, 11, 13):
            free, steps = family_named("lu").plan(k)
            assert free == 0
            assert [t for t, _, _ in steps] == list(range(1, k))
            for t, a, b in steps:
                assert 0 <= a < t and 0 <= b < t

    def test_weight(self):
        # the plan's weights are the label degrees: 1 for the first coordinate, else i + j
        for k in range(3, 42, 2):
            degrees = [1 if lab.kind == "first" else lab.i + lab.j for lab in lu_labels(k)]
            assert family_named("lu").weights(k) == degrees, k
        for k in (2, 3, 5):
            assert family_named("wenger").weights(k) == [k - i for i in range(k)], k


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


def test_lu_plan_steps_pinned():
    """(t, a, b) means v[t] - u[t] = v[a] * u[b]; each k extends the previous plan."""
    steps = {
        3: ((1, 0, 0), (2, 1, 0)),
        5: ((3, 0, 1), (4, 0, 2)),
        7: ((5, 3, 0), (6, 4, 0)),
        9: ((7, 0, 5), (8, 0, 6)),
    }
    expected = ()
    for k in (3, 5, 7, 9):
        expected += steps[k]
        assert family_named("lu").plan(k) == (0, expected)


def check_lu_against_hand_system(k, q=7):
    """field_edge mod q and lu_edge_free over the integers, against the system by hand.

    Random pairs are almost never edges, so each point is also paired with
    its integer partners from the plan, which must satisfy the system, with
    its field neighbors, and with those partners bumped in one coordinate.
    """
    by_hand, params = LU_BY_HAND[k], LUParams(k, q)
    rng = random.Random(k)
    for _ in range(60):
        u = tuple(rng.randrange(q) for _ in range(k))
        const, slope = solve_one(family_named("lu").plan(k), u, from_point=True)
        partners = [tuple(c + s * x for c, s in zip(const, slope)) for x in range(q)]
        for v in partners:
            assert not any(by_hand(u, v))
        bumps = [bumped(v, t, 1) for v in partners for t in range(k)]
        randoms = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(5)]
        for v in partners + field_neighbors(u, params) + bumps + randoms:
            residues = by_hand(u, v)
            assert field_edge(u, v, params) == all(r % q == 0 for r in residues)
            assert lu_edge_free(u, v, k) == (not any(residues))


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
        check_lu_against_hand_system(5)

    @pytest.mark.parametrize("k", [7, 9])
    def test_layer_2_and_3_plans_match_handwritten_equations(self, k):
        check_lu_against_hand_system(k)

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

    @pytest.mark.parametrize(
        "family,k,q",
        [("lu", 3, 2), ("lu", 3, 3), ("lu", 3, 5), ("lu", 3, 7), ("lu", 5, 3), ("lu", 5, 5),
         ("lu", 7, 3), ("wenger", 2, 23), ("wenger", 3, 7), ("wenger", 5, 3)],
    )
    def test_rows_match_the_per_edge_oracle(self, family, k, q):
        params = FieldParams(family, k, q)
        g = build_lu_graph(params) if family == "lu" else build_wenger_graph(params)
        oracle = per_edge_field_graph(params)
        assert g.left_adj == oracle.left_adj
        assert g.right_adj == oracle.right_adj
        assert g.roots is not None
        assert g.roots == oracle.roots

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            # 47**3 = 103,823 vertices per side, refused before anything is built
            build_lu_graph(LUParams(3, 47))
        with pytest.raises(BudgetExceededError, match=r"2\*\*9015"):
            # 3**9015 has more digits than Python prints; 2**9015 already
            # exceeds the budget, so the refusal comes before q**k
            build_lu_graph(LUParams(9015, 3))

    def test_roots_from_the_plan_beyond_the_vertex_budget(self):
        # 11**5 = 161,051 points per side: the plan roots the graph it cannot build
        for params, roots in (
            (WengerParams(5, 11), (0,)),
            (LUParams(5, 11), tuple(a * 11**4 + b * 11**3 for a in range(11) for b in range(11))),
        ):
            start = time.perf_counter()
            assert plan_roots(params) == roots
            assert time.perf_counter() - start < 1.0
        assert len(plan_roots(LUParams(5, 11))) == 121
        with pytest.raises(BudgetExceededError):
            build_wenger_graph(WengerParams(5, 11))
        # D(9, 11) frees coordinates 5-8 and keeps five
        with pytest.raises(BudgetExceededError, match="^the root set holds 161051 tuples, beyond"):
            plan_roots(LUParams(9, 11))

    def test_plan_roots_refuses_a_huge_k_without_a_quadratic_plan_walk(self):
        # 2**19997 roots are refused; reading the pairs off the plan must take
        # time linear in k, not a scan of every step for each coordinate
        code = (
            "from girthforge.algebraic import BudgetExceededError, FieldParams, plan_roots\n"
            "try:\n"
            "    plan_roots(FieldParams('lu', 20001, 3))\n"
            "except BudgetExceededError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(girthforge.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("the root set holds at least 2**"), proc.stdout


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
