import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from helpers import (
    canonical_planar_line,
    fraction_export_svg,
    fraction_viewport,
    line_from_params,
    rowwise_parse_arrangement,
    rowwise_parse_planar,
)
from hypothesis import given, settings, strategies as st

import girthforge
from girthforge.cli import run
from girthforge.exactmath import _MR_LIMIT
from girthforge.files import (
    MAX_DIM,
    ParseError,
    parse_arrangement,
    parse_planar,
    render_arrangement,
    render_edge_list,
    render_planar,
    sniff_format,
)
from girthforge.geometry import (
    PlanarArrangement,
    ProjectionMap,
    incidence_set_kd,
    project_generic,
    project_with_map,
)
from girthforge.svg import _clip_line, export_svg
from girthforge.truncation import TruncatedArrangement, WengerTruncationSpec, build_truncated


class TestArrangementFormat:
    def test_round_trip(self, lu64):
        assert parse_arrangement(render_arrangement(lu64)) == lu64

    def test_round_trip_wenger(self, wenger64):
        assert parse_arrangement(render_arrangement(wenger64)) == wenger64

    def test_file_without_incidences_rejected(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points, wenger64_lines, ProjectionMap(((1, 0), (0, 1))), wenger64.edge_set
        )
        for parse, full in [
            (parse_arrangement, render_arrangement(wenger64)),
            (parse_planar, render_planar(planar)),
        ]:
            with pytest.raises(ParseError, match="end of file"):
                parse(full[: full.index("\nincidences ") + 1])

    def test_trailing_content_rejected_at_its_line(self):
        # blank lines still count toward the physical line number
        text = small_arrangement_text() + "\n\n0 0\n"
        with pytest.raises(ParseError, match="line 12: trailing content"):
            parse_arrangement(text)

    def test_header_shape(self, wenger64):
        lines = render_arrangement(wenger64).splitlines()
        assert lines[0] == "GIRTHFORGE-ARR 1"
        assert lines[1] == "dim 2"
        assert lines[2] == "family wenger"
        assert lines[3] == "n 64"
        assert lines[4] == "points 325"
        assert lines[5] == "lines 165"

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_arrangement("NOPE 1\n")

    def test_truncated_file(self, wenger64):
        text = render_arrangement(wenger64)
        with pytest.raises(ParseError):
            parse_arrangement(text[: len(text) // 2])

    def test_incidence_out_of_range(self):
        text = (
            "GIRTHFORGE-ARR 1\ndim 2\nfamily wenger\nn 1\n"
            "points 1\nlines 1\n0 0\n1 1\nincidences 1\n0 5\n"
        )
        with pytest.raises(ParseError):
            parse_arrangement(text)

    def test_duplicate_point_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_arrangement(small_arrangement_text(points=2))

    @pytest.mark.parametrize(
        "row", ["0 x", "0", "0 0 0", "1/2 0"], ids=["token", "short", "long", "rational"]
    )
    def test_bad_coordinate_row_rejected(self, row):
        with pytest.raises(ParseError, match="line 7: "):
            parse_arrangement(small_arrangement_text().replace("0 0\n", row + "\n", 1))

    def test_sniff(self, wenger64):
        assert sniff_format(render_arrangement(wenger64)) == "arrangement"
        with pytest.raises(ParseError):
            sniff_format("junk\n")

    def test_sniff_skips_leading_blank_lines(self):
        assert sniff_format("\n \t\r\n\n  GIRTHFORGE-ARR 1  \r\npoints") == "arrangement"

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\x0b\x0c\u2028 "])
    def test_sniff_of_whitespace_only_text(self, text):
        with pytest.raises(ParseError, match=r"^unrecognized header ''$"):
            sniff_format(text)

    def test_sniff_reads_the_header_and_nothing_after_it(self):
        assert sniff_format("GIRTHFORGE-PLANAR 1\n\x00 junk \u2029 1/0") == "planar"
        with pytest.raises(ParseError, match=r"^unrecognized header 'junk'$"):
            sniff_format("\n junk \nGIRTHFORGE-ARR 1\n")

    @pytest.mark.parametrize(
        "sep", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                "\x85", "\xa0", "\u2028", "\u2029", "\u3000", " "],
    )
    def test_sniff_ends_the_header_where_splitlines_does(self, sep):
        text = f"{sep} GIRTHFORGE-ARR 1{sep}x"
        # the whole-text reading of the header line, as an oracle
        head = text.lstrip().splitlines()[0].strip()
        expected = "arrangement" if head == "GIRTHFORGE-ARR 1" else f"unrecognized header {head!r}"
        try:
            assert sniff_format(text) == expected
        except ParseError as exc:
            assert str(exc) == expected


@st.composite
def small_arrangements(draw):
    """Valid headers with distinct points, any line parameters and any incidence pairs."""
    family, k = draw(st.sampled_from([("lu", 3), ("lu", 5), ("wenger", 2), ("wenger", 3)]))
    rows = st.tuples(*[st.integers(-(10**20), 10**20)] * k)
    points = tuple(draw(st.lists(rows, max_size=6, unique=True)))
    line_params = tuple(draw(st.lists(rows, max_size=6)))
    pairs = st.tuples(st.integers(0, len(points) - 1), st.integers(0, len(line_params) - 1))
    edges = draw(st.lists(pairs, unique=True)) if points and line_params else []
    n = draw(st.integers(1, 10**30))
    return TruncatedArrangement(family, k, n, points, line_params, tuple(sorted(edges)))


@given(small_arrangements())
def test_arrangement_round_trip(arr):
    assert parse_arrangement(render_arrangement(arr)) == arr


@st.composite
def small_planar_arrangements(draw):
    """Distinct rational points, distinct canonical lines and any incidence pairs."""
    rationals = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
    points = tuple(draw(st.lists(st.tuples(rationals, rationals), max_size=6, unique=True)))
    triples = st.tuples(*[st.integers(-(10**9), 10**9)] * 3).filter(lambda t: t[:2] != (0, 0))
    lines = tuple(dict.fromkeys(canonical_planar_line(*t) for t in draw(st.lists(triples, max_size=6))))
    pairs = st.tuples(st.integers(0, len(points) - 1), st.integers(0, len(lines) - 1))
    edges = draw(st.lists(pairs, unique=True)) if points and lines else []
    return PlanarArrangement(points, lines, frozenset(edges))


@given(small_planar_arrangements())
def test_planar_round_trip(planar):
    assert parse_planar(render_planar(planar)) == planar


def small_arrangement_text(dim=2, family="wenger", n=1, points=1, lines=1, incidences=0):
    """A header and all-zero rows; the defaults parse."""
    rows = f"{' '.join(['0'] * dim)}\n" * (max(points, 0) + max(lines, 0))
    return (
        f"GIRTHFORGE-ARR 1\ndim {dim}\nfamily {family}\nn {n}\n"
        f"points {points}\nlines {lines}\n{rows}incidences {incidences}\n"
    )


@pytest.mark.parametrize(
    "header",
    [
        {"family": "lu", "dim": 4},
        {"family": "lu", "dim": 1},
        {"family": "lu", "dim": MAX_DIM + 1},
        {"family": "wenger", "dim": 4},
        {"n": 0},
        {"points": -1},
        {"lines": -1},
        {"incidences": -1},
    ],
    ids=lambda h: "-".join(f"{key}{value}" for key, value in h.items()),
)
def test_header_outside_family_rules_rejected(tmp_path, header):
    assert parse_arrangement(small_arrangement_text()).k == 2
    text = small_arrangement_text(**header)
    with pytest.raises(ParseError):
        parse_arrangement(text)
    path = tmp_path / "bad.arr"
    path.write_text(text)
    assert run(["stats", "--in", str(path)]) == 2
    assert run(["verify", "--in", str(path), "--subgraph-prime", "minimal"]) == 2


def test_the_largest_layered_dim_below_the_ceiling_is_read(tmp_path):
    path = tmp_path / "a.arr"
    path.write_text(small_arrangement_text(dim=MAX_DIM - 1, family="lu", points=0, lines=0))
    assert parse_arrangement(path.read_text()).k == MAX_DIM - 1
    assert run(["stats", "--in", str(path)]) == 0
    assert run(["verify", "--in", str(path), "--subgraph-prime", "paper"]) == 0


@pytest.mark.parametrize(
    "dim, message",
    [
        (MAX_DIM, f"the lu family requires odd k >= 3, got k={MAX_DIM}"),
        (MAX_DIM + 1, f"dim {MAX_DIM + 1} is above the ceiling of {MAX_DIM}"),
    ],
)
def test_the_ceiling_refuses_only_a_dim_above_it(tmp_path, capsys, dim, message):
    # MAX_DIM itself passes the ceiling and meets the family's k rule
    text = small_arrangement_text(dim=dim, family="lu", points=0, lines=0)
    with pytest.raises(ParseError) as got:
        parse_arrangement(text)
    assert str(got.value) == message
    path = tmp_path / "a.arr"
    path.write_text(text)
    assert run(["stats", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# one point, one line and one incidence pair, filled in by format()
ONE_PAIR_FILES = {
    "arr": ("GIRTHFORGE-ARR 1\ndim 2\nfamily wenger\nn 1\npoints 1\nlines 1\n0 0\n1 1\nincidences 1\n{}\n",
            parse_arrangement),
    "planar": ("GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n1 0 0\nincidences 1\n{}\n", parse_planar),
}


@pytest.mark.parametrize("kind", ["arr", "planar"])
@pytest.mark.parametrize("pair", ["1 0", "0 1"], ids=["point-index-equals-points", "line-index-equals-lines"])
def test_an_incidence_index_equal_to_its_count_is_out_of_range(tmp_path, capsys, kind, pair):
    template, parse = ONE_PAIR_FILES[kind]
    parse(template.format("0 0"))  # the one in-range pair is read
    text = template.format(pair)
    with pytest.raises(ParseError, match=rf"^incidence \({pair.replace(' ', ', ')}\) out of range$"):
        parse(text)
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    export = ["export", "--in", str(path), "--out", str(tmp_path / "e"), "--format", "edges"]
    for argv in (["verify", "--in", str(path)], export):
        assert run(argv) == 2
        assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("kind", ["arr", "planar"])
@pytest.mark.parametrize("pair", ["1 0", "0 1", "-1 0", "0 -1"], ids=["point", "line", "negative-point", "negative-line"])
def test_the_out_of_range_pair_after_an_index_zero_pair_is_the_one_named(kind, pair):
    # the pair 0 0 lies in range on both sides, so only the later pair may be named
    template, parse = ONE_PAIR_FILES[kind]
    text = template.replace("incidences 1", "incidences 2").format(f"0 0\n{pair}")
    with pytest.raises(ParseError) as got:
        parse(text)
    assert str(got.value) == f"incidence ({pair.replace(' ', ', ')}) out of range"


def _with_line(text: str, at: int, row: str) -> str:
    lines = text.splitlines()
    lines[at] = row
    return "\n".join(lines) + "\n"


def noncanonical_spellings(value: int) -> list[str]:
    """Tokens int() reads as value that the writer never emits."""
    return [f"+{value}", f"0{value}", f"0_{value}", chr(0x660 + value)] + (["-0"] if value == 0 else [])


def assert_each_spelling_rejected(tmp_path, parse, text, at, row, value):
    path = tmp_path / "bad"
    for token in noncanonical_spellings(value):
        bad = _with_line(text, at, row.format(token))
        with pytest.raises(ParseError, match="bad (integer|field)"):
            parse(bad)
        path.write_text(bad)
        assert run(["stats", "--in", str(path)]) == 2


@pytest.mark.parametrize(
    "at, row, value",
    [
        (1, "dim {}", 2),
        (3, "n {}", 1),
        (4, "points {}", 1),
        (5, "lines {}", 1),
        (8, "incidences {}", 1),
        (6, "{} 0", 0),
        (7, "0 {}", 0),
        (9, "{} 0", 0),
        (9, "0 {}", 0),
    ],
    ids=[
        "dim", "n", "points", "lines", "incidences",
        "point-row", "line-row", "incidence-point", "incidence-line",
    ],
)
def test_noncanonical_arrangement_integer_rejected(tmp_path, at, row, value):
    text = small_arrangement_text(incidences=1) + "0 0\n"
    assert parse_arrangement(text).edges == ((0, 0),)
    assert _with_line(text, at, row.format(value)) == text
    assert_each_spelling_rejected(tmp_path, parse_arrangement, text, at, row, value)


@pytest.mark.parametrize(
    "at, row, value",
    [
        (1, "points {}", 1),
        (3, "lines {}", 1),
        (4, "{} 0 0", 1),
        (4, "1 0 {}", 0),
        (5, "incidences {}", 1),
        (6, "0 {}", 0),
    ],
    ids=["points", "lines", "line-a", "line-c", "incidences", "incidence-row"],
)
def test_noncanonical_planar_integer_rejected(tmp_path, at, row, value):
    text = "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n1 0 0\nincidences 1\n0 0\n"
    assert parse_planar(text).incidences == {(0, 0)}
    assert _with_line(text, at, row.format(value)) == text
    assert_each_spelling_rejected(tmp_path, parse_planar, text, at, row, value)


class TestPlanarFormat:
    def test_round_trip(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points,
            wenger64_lines,
            ProjectionMap(((1, 0), (0, 1))),
            incidence_set_kd(wenger64.points, wenger64_lines),
        )
        again = parse_planar(render_planar(planar))
        assert again == planar

    def test_rationals_render_reduced(self):
        from girthforge.geometry import PlanarArrangement

        pa = PlanarArrangement(
            ((Fraction(3, 2), 4),), ((1, 2, -3),), frozenset()
        )
        text = render_planar(pa)
        assert "3/2 4/1" in text
        assert parse_planar(text) == pa

    def test_sniff(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points,
            wenger64_lines,
            ProjectionMap(((1, 0), (0, 1))),
            incidence_set_kd(wenger64.points, wenger64_lines),
        )
        assert sniff_format(render_planar(planar)) == "planar"

    @pytest.mark.parametrize("line", ["2 4 6", "0 0 1", "-1 2 3", "0 -1 2"])
    def test_noncanonical_line_rejected(self, line):
        text = f"GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n{line}\n"
        with pytest.raises(ParseError, match="canonical"):
            parse_planar(text)

    def test_triple_rule_is_the_canonical_form(self):
        # Every small triple parses exactly when the general normalizer fixes it.
        for a, b, c in product(range(-4, 5), repeat=3):
            text = f"GIRTHFORGE-PLANAR 1\npoints 0\nlines 1\n{a} {b} {c}\nincidences 0\n"
            if (a, b) != (0, 0) and canonical_planar_line(a, b, c) == (a, b, c):
                assert parse_planar(text).lines == ((a, b, c),)
            else:
                with pytest.raises(ParseError, match="not in canonical form"):
                    parse_planar(text)

    @pytest.mark.parametrize("row", ["3 4", "3/1 4", "3 4/1"])
    def test_bare_integer_coordinate_rejected(self, tmp_path, row):
        # The writer emits every coordinate as num/den, 3 as 3/1.
        text = f"GIRTHFORGE-PLANAR 1\npoints 1\n{row}\nlines 1\n1 0 -3\nincidences 1\n0 0\n"
        written = _with_line(text, 2, "3/1 4/1")
        assert render_planar(parse_planar(written)) == written
        with pytest.raises(ParseError, match=r"^line 3: "):
            parse_planar(text)
        path = tmp_path / "bare.planar"
        path.write_text(text)
        assert run(["stats", "--in", str(path)]) == 2

    def test_duplicate_point_rejected(self):
        text = "GIRTHFORGE-PLANAR 1\npoints 2\n0/1 0/1\n0/1 0/1\nlines 0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_planar(text)

    def test_duplicate_incidence_rejected(self):
        text = (
            "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n1 0 0\n"
            "incidences 2\n0 0\n0 0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_planar(text)

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_planar("GIRTHFORGE-PLANAR 1\npoints -1\nlines 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "GIRTHFORGE-PLANAR 1\npoints 1\n1/0 1\nlines 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 x\nlines 0\n",
            # exponent notation is refused: '1e99999999999' would expand into a huge integer
            "GIRTHFORGE-PLANAR 1\npoints 1\n1e3 0/1\nlines 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 0\nlines 1\n1 0 x\n",
            "GIRTHFORGE-PLANAR 1\npoints 0\nlines 1\n1 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n1 0 0\nincidences 1\n0 z\n",
            # coordinates the writer never emits: each must equal its own canonical rendering
            "GIRTHFORGE-PLANAR 1\npoints 1\n2/4 0/1\nlines 0\nincidences 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n1/-2 0/1\nlines 0\nincidences 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n0/5 0/1\nlines 0\nincidences 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n1_0 0/1\nlines 0\nincidences 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n+3 0/1\nlines 0\nincidences 0\n",
            "GIRTHFORGE-PLANAR 1\npoints 1\n\u0663 0/1\nlines 0\nincidences 0\n",
        ],
        ids=[
            "zero-denominator", "point-token", "exponent-notation", "line-token", "line-short",
            "incidence-token", "unreduced", "negative-denominator", "unreduced-zero",
            "underscore", "plus-sign", "non-ascii-digit",
        ],
    )
    def test_bad_row_rejected(self, text):
        with pytest.raises(ParseError, match=r"line \d+: "):
            parse_planar(text)


def test_edge_list_format():
    assert render_edge_list([(2, 7), (0, 1)]) == "U0 V1\nU2 V7\n"


def triangle_arrangement():
    """Three planar lines pairwise crossing in integer points: a C6 incidence graph."""
    points = ((0, 0), (-1, 1), (-4, 2))
    lines = ((0, 1), (0, 2), (2, 3))  # x0 + v1*x1 - v0 = 0 each
    edges = ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))
    return TruncatedArrangement("wenger", 2, 1, points, lines, edges)


def forest_arrangement():
    """The triangle arrangement without its third line: a path U1-V0-U0-V1-U2."""
    tri = triangle_arrangement()
    edges = tuple((pi, lj) for pi, lj in tri.edges if lj < 2)
    return TruncatedArrangement("wenger", 2, 1, tri.points, tri.line_params[:2], edges)


BOUND_CAP_MESSAGE = "coefficient bound must have at most 4096 bits"

# Points (0, 0) and (5, 7), the line x = 0, and both points recorded on it.
SPURIOUS_PLANAR = "GIRTHFORGE-PLANAR 1\npoints 2\n0/1 0/1\n5/1 7/1\nlines 1\n1 0 0\nincidences 2\n0 0\n1 0\n"


def run_capture(argv, capsys):
    """The standard output of one successful command."""
    assert run(argv) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_construct_reference_instance(self, tmp_path, capsys):
        out = tmp_path / "a.arr"
        code = run(
            ["construct", "--family", "lu", "--k", "3", "--n", "64", "--out", str(out)]
        )
        assert code == 0
        assert "points=135" in capsys.readouterr().out
        arr = parse_arrangement(out.read_text())
        assert len(arr.points) == 135
        assert len(arr.line_params) == 2145
        assert len(arr.edges) == 675

    def test_construct_rejects_even_k(self, tmp_path, capsys):
        code = run(
            ["construct", "--family", "lu", "--k", "4", "--n", "64",
             "--out", str(tmp_path / "x.arr")]
        )
        assert code == 2
        assert "odd" in capsys.readouterr().err

    def test_construct_rejects_bad_wenger_k(self, tmp_path, capsys):
        code = run(
            ["construct", "--family", "wenger", "--k", "4", "--n", "64",
             "--out", str(tmp_path / "x.arr")]
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["construct", "--family", "lu", "--oops", "1"]) == 2

    def test_verify_passes_on_good_file(self, tmp_path, capsys):
        out = tmp_path / "a.arr"
        run(["construct", "--family", "lu", "--k", "3", "--n", "64", "--out", str(out)])
        code = run(
            ["verify", "--in", str(out), "--girth-at-least", "8",
             "--min-point-degree", "4", "--subgraph-prime", "minimal"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "girth" in text
        assert "mod 37" in text

    def test_verify_detects_corrupted_incidences(self, tmp_path, capsys):
        out = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(out)])
        text = out.read_text()
        lines = text.splitlines()
        # drop the final incidence row and fix the count
        count_at = next(i for i, l in enumerate(lines) if l.startswith("incidences"))
        n = int(lines[count_at].split()[1])
        lines[count_at] = f"incidences {n - 1}"
        out.write_text("\n".join(lines[:-1]) + "\n")
        code = run(["verify", "--in", str(out)])
        assert code == 1
        assert "disagree" in capsys.readouterr().err

    def test_verify_names_the_smallest_missing_and_spurious_pairs(self, tmp_path, capsys):
        out = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(out)])
        arr = parse_arrangement(out.read_text())
        rows = [f"{pi} {lj}" for pi, lj in arr.edges]
        dropped = arr.edges[-1]
        spurious = next((0, lj) for lj in range(len(arr.line_params)) if (0, lj) not in arr.edge_set)
        text = out.read_text()
        head = text[: text.index("\n".join(rows))]
        # the last row becomes a pair that is not an incidence; the count stays
        out.write_text(head + "\n".join(rows[:-1] + [f"{spurious[0]} {spurious[1]}"]) + "\n")
        code = run(["verify", "--in", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "disagree" in err
        assert "missing 1 and carries 1 spurious" in err
        assert f"smallest missing: {dropped}" in err
        assert f"smallest spurious: {spurious}" in err

    def test_verify_cycle_length_beyond_any_simple_cycle_is_immediate(self, tmp_path, capsys):
        out = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(out)])
        start = time.perf_counter()
        code = run(["verify", "--in", str(out), "--no-cycle-length", "1000000"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "ok: no cycle of length 1000000" in capsys.readouterr().out

    @pytest.mark.parametrize("closed", [False, True])
    def test_stats_on_a_long_path_or_cycle_is_immediate(self, tmp_path, capsys, closed):
        # U0-V0-U1-...-U5999, a path on which no point is on the 2-core, or closed
        # into one 12,000-cycle by V5999 through U5999 and U0, searched from U0 alone
        points = tuple((i, 0) for i in range(6000))
        lines = tuple((j, 0) for j in range(5999 + closed))
        edges = [(j, j) for j in range(5999)] + [(j + 1, j) for j in range(5999)]
        edges += [(0, 5999), (5999, 5999)] if closed else []
        path = tmp_path / "path.arr"
        arr = TruncatedArrangement("wenger", 2, 1, points, lines, tuple(sorted(edges)))
        path.write_text(render_arrangement(arr))
        start = time.perf_counter()
        out = run_capture(["stats", "--in", str(path)], capsys)
        assert time.perf_counter() - start < 2.0
        assert ("girth 12000\n" in out) if closed else ("girth inf\n" in out)
        assert ("note: the graph is a forest" in out) != closed

    def test_verify_prints_cycle_witness(self, tmp_path, capsys):
        out = tmp_path / "tri.arr"
        out.write_text(render_arrangement(triangle_arrangement()))
        code = run(["verify", "--in", str(out), "--no-cycle-length", "6"])
        assert code == 1
        err = capsys.readouterr().err
        assert "6-cycle" in err
        assert "U" in err and "V" in err

    def test_verify_girth_failure(self, tmp_path, capsys):
        out = tmp_path / "tri.arr"
        out.write_text(render_arrangement(triangle_arrangement()))
        code = run(["verify", "--in", str(out), "--girth-at-least", "8"])
        assert code == 1
        assert "witness" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "checks",
        [
            ["--girth-at-least", "12", "--no-cycle-length", "10"],
            ["--girth-at-least", "12"],
            ["--no-cycle-length", "4"],
        ],
    )
    def test_verify_says_a_check_on_a_forest_proves_nothing(self, tmp_path, capsys, checks):
        out = tmp_path / "forest.arr"
        out.write_text(render_arrangement(forest_arrangement()))
        assert run(["verify", "--in", str(out), *checks]) == 0
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert len(notes) == 1
        assert "forest" in notes[0] and "proves nothing" in notes[0]

    def test_verify_notes_nothing_without_a_cycle_check_or_on_a_cyclic_graph(
        self, tmp_path, capsys
    ):
        forest = tmp_path / "forest.arr"
        forest.write_text(render_arrangement(forest_arrangement()))
        assert run(["verify", "--in", str(forest), "--min-point-degree", "1"]) == 0
        tri = tmp_path / "tri.arr"
        tri.write_text(render_arrangement(triangle_arrangement()))
        assert run(["verify", "--in", str(tri), "--girth-at-least", "6",
                    "--no-cycle-length", "4"]) == 0
        assert "note:" not in capsys.readouterr().out

    @pytest.mark.parametrize("points, lines, side", [(1, 0, "line"), (0, 1, "point"), (0, 0, "line")])
    def test_a_degree_check_on_an_empty_side_is_vacuous(self, tmp_path, capsys, points, lines, side):
        path = tmp_path / "a.arr"
        path.write_text(small_arrangement_text(points=points, lines=lines))
        flag = f"--min-{side}-degree"
        assert run(["verify", "--in", str(path), flag, "1"]) == 0
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == [f"note: there are no {side}s, so {flag} proves nothing"]

    def test_verify_searches_no_length_below_the_girth(self, tmp_path, capsys, monkeypatch):
        tri = tmp_path / "tri.arr"
        tri.write_text(render_arrangement(triangle_arrangement()))
        searched, search = [], girthforge.cli.has_cycle_of_length
        monkeypatch.setattr(
            girthforge.cli, "has_cycle_of_length", lambda g, n: searched.append(n) or search(g, n)
        )
        assert run(["verify", "--in", str(tri), "--girth-at-least", "6", "--no-cycle-length", "4"]) == 0
        assert "ok: no cycle of length 4" in capsys.readouterr().out
        assert searched == []
        # at the girth the search runs; without a girth check the girth is still taken, so 4 is not searched
        assert run(["verify", "--in", str(tri), "--girth-at-least", "6", "--no-cycle-length", "6"]) == 1
        assert "6-cycle" in capsys.readouterr().err
        assert run(["verify", "--in", str(tri), "--no-cycle-length", "4"]) == 0
        assert searched == [6]

    def test_verify_wenger_no_c4(self, tmp_path):
        out = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(out)])
        assert run(
            ["verify", "--in", str(out), "--no-cycle-length", "4",
             "--min-line-degree", "2", "--subgraph-prime", "minimal"]
        ) == 0

    def test_verify_checks_a_planar_file_against_its_geometry(self, tmp_path, capsys):
        # x = 0 passes through (0, 0) but not through (5, 7)
        path = tmp_path / "bad.planar"
        path.write_text(SPURIOUS_PLANAR)
        assert run(["stats", "--in", str(path)]) == 0
        capsys.readouterr()
        assert run(["verify", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert "missing 0 and carries 1 spurious" in err
        assert "smallest spurious: (1, 0)" in err

    def test_verify_runs_the_graph_checks_on_a_projected_file(self, tmp_path, capsys):
        arr_path, planar_path = tmp_path / "w.arr", tmp_path / "w.planar"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        run(["project", "--in", str(arr_path), "--out", str(planar_path), "--seed", "1"])
        capsys.readouterr()
        checks = ["--girth-at-least", "6", "--no-cycle-length", "4", "--min-line-degree", "2"]
        assert run(["verify", "--in", str(planar_path), *checks]) == 0
        out = capsys.readouterr().out
        assert out == run_capture(["verify", "--in", str(arr_path), *checks], capsys).replace(
            "ok: 39 lines are pairwise distinct\n", ""
        )
        tri_arr, tri_planar = tmp_path / "tri.arr", tmp_path / "tri.planar"
        tri_arr.write_text(render_arrangement(triangle_arrangement()))
        run(["project", "--in", str(tri_arr), "--out", str(tri_planar), "--seed", "1"])
        capsys.readouterr()
        assert run(["verify", "--in", str(tri_planar), "--no-cycle-length", "6"]) == 1
        assert "6-cycle" in capsys.readouterr().err
        assert run(["verify", "--in", str(tri_planar), "--min-point-degree", "3"]) == 1
        assert "minimum point degree 2 < 3" in capsys.readouterr().err

    def test_verify_refuses_subgraph_prime_on_a_planar_file(self, tmp_path, capsys):
        path = tmp_path / "bad.planar"
        path.write_text(SPURIOUS_PLANAR)
        assert run(["verify", "--in", str(path), "--subgraph-prime", "minimal"]) == 2
        captured = capsys.readouterr()
        assert "--subgraph-prime" in captured.err and captured.out == ""

    def test_project_writes_planar_and_echoes_seed(self, tmp_path, capsys):
        arr_path = tmp_path / "w.arr"
        out_path = tmp_path / "w.planar"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        code = run(
            ["project", "--in", str(arr_path), "--out", str(out_path), "--seed", "7"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "seed 7" in text
        assert "rows" in text
        planar = parse_planar(out_path.read_text())
        arr = parse_arrangement(arr_path.read_text())
        assert planar.incidences == arr.edge_set

    def test_project_reproducible(self, tmp_path):
        arr_path = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        a, b = tmp_path / "a.planar", tmp_path / "b.planar"
        run(["project", "--in", str(arr_path), "--out", str(a), "--seed", "3"])
        run(["project", "--in", str(arr_path), "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_export_edges(self, tmp_path):
        arr_path = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "4", "--out", str(arr_path)])
        out = tmp_path / "edges.txt"
        assert run(["export", "--in", str(arr_path), "--out", str(out), "--format", "edges"]) == 0
        first = out.read_text().splitlines()[0].split()
        assert first[0].startswith("U") and first[1].startswith("V")

    def test_export_svg_requires_planar(self, tmp_path, capsys):
        arr_path = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "4", "--out", str(arr_path)])
        code = run(["export", "--in", str(arr_path), "--out", str(tmp_path / "x.svg"),
                    "--format", "svg"])
        assert code == 2
        assert "planar" in capsys.readouterr().err

    def test_export_svg_from_planar(self, tmp_path):
        arr_path = tmp_path / "w.arr"
        planar_path = tmp_path / "w.planar"
        svg_path = tmp_path / "w.svg"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        run(["project", "--in", str(arr_path), "--out", str(planar_path), "--seed", "1"])
        assert run(["export", "--in", str(planar_path), "--out", str(svg_path),
                    "--format", "svg"]) == 0
        body = svg_path.read_text()
        assert body.startswith("<?xml")
        assert "<circle" in body and "<line" in body

    def test_stats_reports_counts(self, tmp_path, capsys):
        arr_path = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        assert run(["stats", "--in", str(arr_path)]) == 0
        text = capsys.readouterr().out
        assert "points" in text and "girth" in text and "exponent" in text

    def test_stats_notes_a_forest(self, tmp_path, capsys):
        # lu k=5, n=64: 144 points, 17,424 lines, no line with three points
        forest, cyclic = tmp_path / "f.arr", tmp_path / "w.arr"
        run(["construct", "--family", "lu", "--k", "5", "--n", "64", "--out", str(forest)])
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(cyclic)])
        capsys.readouterr()
        assert run(["stats", "--in", str(forest)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("girth inf") + 1] == "note: the graph is a forest, so girth inf proves nothing"
        assert run(["stats", "--in", str(cyclic)]) == 0
        assert "note:" not in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["arr", "planar"])
    @pytest.mark.parametrize("points, lines", [(1, 0), (0, 1), (0, 0)])
    def test_stats_notes_a_side_with_no_vertices(self, tmp_path, capsys, kind, points, lines):
        # a side with no vertices has no degrees, not degrees min 0 max 0
        path = tmp_path / f"a.{kind}"
        if kind == "arr":
            path.write_text(small_arrangement_text(points=points, lines=lines))
        else:
            rows = ["GIRTHFORGE-PLANAR 1", f"points {points}", *["0/1 0/1"] * points,
                    f"lines {lines}", *["1 0 0"] * lines, "incidences 0"]
            path.write_text("\n".join(rows) + "\n")
        assert run(["stats", "--in", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        for side, count in (("point", points), ("line", lines)):
            degrees = [l for l in out if l.startswith(f"{side} degrees")]
            note = f"note: there are no {side}s, so there are no {side} degrees"
            assert degrees == ([f"{side} degrees min 0 max 0"] if count else [])
            assert (note in out) == (not count)

    def test_stats_on_planar_file(self, tmp_path, capsys):
        arr_path = tmp_path / "w.arr"
        planar_path = tmp_path / "w.planar"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr_path)])
        run(["project", "--in", str(arr_path), "--out", str(planar_path), "--seed", "1"])
        capsys.readouterr()
        assert run(["stats", "--in", str(planar_path)]) == 0
        text = capsys.readouterr().out
        assert "planar arrangement" in text and "girth" in text

    def test_construct_budget_flag(self, tmp_path, capsys):
        code = run(
            ["construct", "--family", "lu", "--k", "3", "--n", "64",
             "--out", str(tmp_path / "x.arr"), "--budget", "100"]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_construct_budget_below_one_is_a_usage_error(self, tmp_path, capsys, budget):
        out = tmp_path / "x.arr"
        code = run(
            ["construct", "--family", "lu", "--k", "3", "--n", "64",
             "--out", str(out), "--budget", budget]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: budget must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("present", [True, False], ids=["input-present", "input-missing"])
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--no-cycle-length", "3"], "cycle length must be even in a bipartite graph, got 3"),
            (["verify", "--no-cycle-length", "2"], "cycle length must be >= 4, got 2"),
            (["project", "--out", "{out}", "--M", "1"], "coefficient bound must be >= 2"),
            (["project", "--out", "{out}", "--M", "-5"], "coefficient bound must be >= 2"),
            (["project", "--out", "{out}", "--M", str(1 << 4096)], BOUND_CAP_MESSAGE),
            # would print line triples past Python's 4300-digit int-to-str limit
            (["project", "--out", "{out}", "--M", "9" * 4250], BOUND_CAP_MESSAGE),
        ],
        ids=[
            "verify-odd-cycle", "verify-short-cycle", "project-M1", "project-M-5",
            "project-M-4097-bits", "project-M-4250-digits",
        ],
    )
    def test_bad_flag_value_is_refused_before_the_file_is_read(
        self, tmp_path, capsys, argv, message, present
    ):
        arr, out = tmp_path / "w.arr", tmp_path / "out.planar"
        if present:
            run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr)])
        capsys.readouterr()
        code = run([argv[0], "--in", str(arr)] + [a.format(out=out) for a in argv[1:]])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_largest_bound_below_the_cap_projects(self, tmp_path, capsys):
        arr, out = tmp_path / "w.arr", tmp_path / "out.planar"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(arr)])
        bound = (1 << 4096) - 1
        assert run(["project", "--in", str(arr), "--out", str(out), "--M", str(bound)]) == 0
        assert f"bound {bound}\n" in capsys.readouterr().out
        parse_planar(out.read_text())

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["verify", "--in", str(tmp_path / "none.arr")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--in", "{bad}"],
            ["project", "--in", "{arr}", "--out", "{out}", "--M", "1"],
            ["project", "--in", "{arr}", "--out", "{out}", "--M", "-5"],
            ["project", "--in", "{arr}", "--out", "{out}", "--retries", "0"],
            ["stats", "--in", "{coordinate}"],
            ["verify", "--in", "{incidence}"],
            ["export", "--in", "{point}", "--out", "{out}", "--format", "edges"],
            ["stats", "--in", "{line}"],
            ["construct", "--family", "wenger", "--k", "2", "--n", "4",
             "--out", "{missing}/a.arr"],
            ["verify", "--in", "{duplicate}"],
            ["verify", "--in", "{huge}", "--subgraph-prime", "paper"],
            ["verify", "--in", "{huger}", "--subgraph-prime", "minimal"],
            ["stats", "--in", "{cut_arr}"],
            ["export", "--in", "{cut_arr}", "--out", "{out}", "--format", "edges"],
            ["stats", "--in", "{cut_planar}"],
            ["export", "--in", "{cut_planar}", "--out", "{out}", "--format", "svg"],
        ],
        ids=[
            "stats-bad-header", "project-M1", "project-M-5", "project-retries0",
            "arr-coordinate-token", "arr-incidence-token", "planar-zero-denominator",
            "planar-line-token", "construct-unwritable-out", "arr-duplicate-point",
            "paper-window-beyond-exact-primality", "minimal-prime-beyond-exact-primality",
            "stats-arr-without-incidences", "export-edges-arr-without-incidences",
            "stats-planar-without-incidences", "export-svg-planar-without-incidences",
        ],
    )
    def test_bad_input_or_flag_is_usage_error(self, tmp_path, capsys, argv):
        arr = tmp_path / "w.arr"
        planar = tmp_path / "full.planar"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "4", "--out", str(arr)])
        run(["project", "--in", str(arr), "--out", str(planar), "--seed", "1"])
        # each file cut right before its incidence section
        cut_arr, cut_planar = (
            text[: text.index("\nincidences ") + 1]
            for text in (arr.read_text(), planar.read_text())
        )
        bad_files = {
            "bad": "GIRTHFORGE-ARR 9\n",
            "coordinate": small_arrangement_text().replace("0 0\n", "0 x\n", 1),
            "incidence": small_arrangement_text(incidences=1) + "0 z\n",
            "point": "GIRTHFORGE-PLANAR 1\npoints 1\n1/0 1\nlines 0\n",
            "line": "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n1 0 x\n",
            "duplicate": small_arrangement_text(points=2),
            # the lu k=3 paper window starts near 4e32, beyond exact Miller-Rabin
            "huge": small_arrangement_text(dim=3, family="lu", n=10**12, points=0, lines=0),
            # ...and a coordinate at psi_12 puts the minimal prime past it too
            "huger": small_arrangement_text(dim=3, family="lu", points=1, lines=0).replace(
                "0 0 0\n", f"0 0 {_MR_LIMIT}\n"
            ),
            "cut_arr": cut_arr,
            "cut_planar": cut_planar,
        }
        paths = {"arr": arr, "out": tmp_path / "w.planar", "missing": tmp_path / "no" / "dir"}
        for name, text in bad_files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        capsys.readouterr()
        assert run([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_paper_window_across_the_primality_limit_is_answered(self, tmp_path, capsys):
        # lu k=3 at n = 324000000: the window (198082762990900653766538,
        # 396165525981801307533077) straddles the limit, its first prime below it
        path = tmp_path / "a.arr"
        path.write_text(small_arrangement_text(dim=3, family="lu", n=324_000_000, points=0, lines=0))
        assert run(["verify", "--in", str(path), "--subgraph-prime", "paper"]) == 0
        assert "mod 198082762990900653766603 (paper mode)" in capsys.readouterr().out

    def test_paper_window_past_the_primality_limit_is_refused(self, tmp_path, capsys):
        path = tmp_path / "a.arr"
        path.write_text(small_arrangement_text(dim=3, family="lu", n=10**9, points=0, lines=0))
        assert run(["verify", "--in", str(path), "--subgraph-prime", "paper"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at or above the exact primality limit {_MR_LIMIT}" in err

    @pytest.mark.parametrize("mode", ["paper", "minimal"])
    def test_a_huge_integer_is_named_by_its_digit_count(self, tmp_path, capsys, mode):
        # the fuzz's 4290-digit token as the header's n, or as a point coordinate
        huge = "9" * 4290
        if mode == "paper":
            text = small_arrangement_text(n=huge, incidences=1) + "0 0\n"
        else:
            text = _with_line(small_arrangement_text(), 6, f"{huge} 0")
        path = tmp_path / "a.arr"
        path.write_text(text)
        assert run(["verify", "--in", str(path), "--subgraph-prime", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "-digit number>" in err
        assert err.count("\n") == 1 and len(err) < 200

    def test_running_out_of_memory_is_an_input_error(self, tmp_path):
        # the address-space cap applies to the child alone
        cap = 256 << 20
        argv = ["construct", "--family", "lu", "--k", "3", "--n", "10000000",
                "--budget", "1000000000000", "--out", str(tmp_path / "a.arr")]
        proc = run_module(
            argv, timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_module_entry_point_keeps_the_exit_code(self, tmp_path):
        proc = run_module(["stats", "--in", str(tmp_path / "none.arr")], timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_huge_k_is_refused_before_any_range(self, tmp_path):
        # Each of the 2k ranges would take an n**(a/b) root with b = k*k + 6k - 3.
        argv = ["construct", "--family", "lu", "--k", "2001", "--n", "1",
                "--out", str(tmp_path / "a.arr")]
        proc = run_module(argv, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "budget" in proc.stderr

    def test_box_sizes_too_long_to_print_still_name_the_budget(self, tmp_path, capsys):
        out = tmp_path / "a.arr"
        argv = ["construct", "--family", "lu", "--k", "3", "--n", "9" * 4300, "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err
        assert not out.exists()

    def test_minimal_prime_of_a_huge_header_reads_no_range(self, tmp_path):
        # The layered box ranges at k=2001 each take a root of degree about 4e6;
        # the minimal prime reads the file's coordinates instead, and it has none.
        path = tmp_path / "a.arr"
        path.write_text(small_arrangement_text(dim=2001, family="lu", n=1, points=0, lines=0))
        proc = run_module(["verify", "--in", str(path), "--subgraph-prime", "minimal"], timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "mod 2 " in proc.stdout

    @pytest.mark.parametrize(
        "command",
        [["stats"], ["verify"], ["verify", "--subgraph-prime", "paper"], ["project"]],
        ids=" ".join,
    )
    def test_a_dim_above_the_ceiling_is_refused_before_any_coordinate_work(self, tmp_path, command):
        # The layered plan and box bounds grow linearly with k: at dim 2000001
        # each of these commands took seconds, and a ten-digit dim would not finish.
        path = tmp_path / "a.arr"
        path.write_text(small_arrangement_text(dim=2000001, family="lu", n=1, points=0, lines=0))
        argv = [command[0], "--in", str(path), *command[1:]]
        if command[0] == "project":
            argv += ["--out", str(tmp_path / "a.planar")]
        proc = run_module(argv, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "dim 2000001" in proc.stderr


def run_module(argv, timeout, preexec_fn=None):
    """``python -m girthforge.cli argv`` in a child process, with this checkout's sources."""
    src = str(Path(girthforge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "girthforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


@cache
def small_valid_files() -> tuple[str, str]:
    """The wenger k=2, n=4 arrangement file and its seed-1 planar projection."""
    arr = build_truncated(WengerTruncationSpec(2, 4))
    lines = [line_from_params("wenger", v, 2) for v in arr.line_params]
    planar, _ = project_generic(arr.points, lines, seed=1)
    return render_arrangement(arr), render_planar(planar)


# "9" * 4290 sits just below Python's 4300-digit limit on int-string conversion.
_TOKENS = st.sampled_from(
    ["0", "1", "-1", "2", "x", "1/0", "0/0", "3/2", "9" * 30, "9" * 4290,
     "points", "lu", "GIRTHFORGE-ARR"]
)


@st.composite
def mutated_files(draw, mutations=st.integers(1, 3)):
    """A small valid file after token or line mutations, as many as mutations draws (one to three)."""
    text = draw(st.sampled_from(small_valid_files()))
    rows = [line.split() for line in text.splitlines()]
    for _ in range(draw(mutations)):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["replace", "append", "drop", "delete"]))
        if op == "delete" and len(rows) > 1:
            del rows[i]
        elif op == "append":
            rows[i].insert(draw(st.integers(0, len(rows[i]))), draw(_TOKENS))
        elif op in ("replace", "drop") and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if op == "replace":
                rows[i][j] = draw(_TOKENS)
            else:
                del rows[i][j]
    return "\n".join(map(" ".join, rows)) + "\n"


@settings(max_examples=250, deadline=None)
@given(mutated_files())
def test_mutated_files_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "mutated.txt"), Path(tmp, "out.txt")
        path.write_text(text)
        for argv in (
            ["stats", "--in", str(path)],
            ["verify", "--in", str(path)],
            ["verify", "--in", str(path), "--girth-at-least", "6", "--no-cycle-length", "4"],
            ["verify", "--in", str(path), "--no-cycle-length", "6"],
            ["verify", "--in", str(path), "--subgraph-prime", "paper"],
            ["verify", "--in", str(path), "--min-point-degree", "1", "--min-line-degree", "1"],
            ["export", "--in", str(path), "--out", str(out), "--format", "edges"],
            ["export", "--in", str(path), "--out", str(out), "--format", "svg"],
            ["project", "--in", str(path), "--out", str(out), "--seed", "1"],
        ):
            assert run(argv) in (0, 1, 2)


@settings(max_examples=400, deadline=None)
@given(mutated_files(mutations=st.just(1)))
def test_the_block_reader_agrees_with_the_row_reader(text):
    # one fault at a time: several faults may be named in another order
    for parse, oracle in (
        (parse_arrangement, rowwise_parse_arrangement),
        (parse_planar, rowwise_parse_planar),
    ):
        try:
            expected = oracle(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse(text)
            assert str(got.value) == str(exc)
        else:
            assert parse(text) == expected


@st.composite
def svg_arrangements(draw):
    """1 to 6 points (ints and Fractions up to about 1e30/1e25, sometimes collinear)
    and integer lines that stress the clipping: random, axis-parallel, through a
    point or a viewport corner, touching one corner only, and far outside."""
    big = st.integers(-(10**30), 10**30)
    coord = st.one_of(
        st.integers(-20, 20),
        big,
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
        st.builds(Fraction, big, st.integers(1, 10**25)),
    )
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6, unique=True))
    else:
        # collinear: base + t * direction, with an axis-parallel direction allowed
        base = draw(st.tuples(coord, coord))
        direction = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        ts = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=6, unique=True))
        points = [(base[0] + t * direction[0], base[1] + t * direction[1]) for t in ts]
    (xlo, xhi), (ylo, yhi) = fraction_viewport(points)
    corners = [(xlo, ylo), (xlo, yhi), (xhi, ylo), (xhi, yhi)]
    far = (xhi + (xhi - xlo) * 7, yhi + (yhi - ylo) * 3)
    small = st.integers(-4, 4)
    normals = st.one_of(
        st.sampled_from([(1, 0), (0, 1)]),
        st.tuples(small, small),
        st.tuples(big, big),
    ).filter(any)

    def through(anchor, normal):
        a, b = normal
        return (a, b, -(a * anchor[0] + b * anchor[1]))

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "through", "corner", "touch", "far"]))
        if kind == "random":
            triple = draw(st.tuples(big, big, big).filter(lambda t: t[:2] != (0, 0)))
        elif kind == "through":
            triple = through(draw(st.sampled_from(points)), draw(normals))
        elif kind == "corner":
            triple = through(draw(st.sampled_from(corners)), draw(normals))
        elif kind == "touch":
            # normals of one sign touch the lower-left and upper-right corners
            # only, normals of opposite signs the other two
            corner = draw(st.sampled_from(range(4)))
            a, b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
            triple = through(corners[corner], (a, b) if corner in (0, 3) else (a, -b))
        else:
            triple = through(far, draw(normals))
        sign = draw(st.sampled_from([1, -1]))
        lines.append(tuple(sign * v for v in canonical_planar_line(*triple)))
    return PlanarArrangement(tuple(points), tuple(lines), frozenset())


class TestSVG:
    def test_reference_counts_and_determinism(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points,
            wenger64_lines,
            ProjectionMap(((1, 0), (0, 1))),
            incidence_set_kd(wenger64.points, wenger64_lines),
        )
        body = export_svg(planar)
        assert body.count("<circle") == 325
        assert body.count("<line") == 165
        assert "incidences=825" in body
        assert export_svg(planar) == body

    def test_single_incident_pair_clips_through_point(self):
        # vertical line x = 2 through the point (2, 5)
        pa = PlanarArrangement(((2, 5),), ((1, 0, -2),), frozenset({(0, 0)}))
        body = export_svg(pa)
        assert body.count("<circle") == 1
        assert body.count("<line") == 1
        # the viewport is [1, 3] x [4, 6]: the segment runs from the bottom to the top edge
        assert '<line x1="400.000" y1="560.000" x2="400.000" y2="40.000" ' in body
        # on the unit grid [0, 4] x [0, 10] the endpoints are over m = |A| = 1
        (u1, v1), (u2, v2), m = _clip_line(1, 0, -2, 0, 4, 0, 10)
        assert m == 1
        # both endpoints on the line, point between them
        assert u1 == u2 == 2
        assert v1 <= 5 <= v2

    def test_empty_arrangement_rejected(self):
        with pytest.raises(ValueError):
            export_svg(PlanarArrangement((), (), frozenset()))

    def test_far_line_is_skipped(self):
        assert _clip_line(1, 0, -100, 0, 4, 0, 4) is None
        # x = 100 misses the viewport [-1, 5] x [-1, 5] of these points
        pa = PlanarArrangement(((0, 0), (4, 4)), ((1, 0, -100),), frozenset())
        body = export_svg(pa)
        assert body.count("<line") == 0
        assert "lines=1" in body

    @settings(max_examples=300, deadline=None)
    @given(svg_arrangements())
    def test_matches_fraction_renderer(self, planar):
        assert export_svg(planar) == fraction_export_svg(planar)
