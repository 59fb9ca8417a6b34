from fractions import Fraction

import pytest

from girthforge.cli import run
from girthforge.files import (
    ParseError,
    parse_arrangement,
    parse_planar,
    render_arrangement,
    render_edge_list,
    render_planar,
    sniff_format,
)
from girthforge.geometry import ProjectionMap, project_with_map
from girthforge.svg import _clip_line, export_svg
from girthforge.truncation import TruncatedArrangement


class TestArrangementFormat:
    def test_round_trip(self, lu64):
        assert parse_arrangement(render_arrangement(lu64)) == lu64

    def test_round_trip_wenger(self, wenger64):
        assert parse_arrangement(render_arrangement(wenger64)) == wenger64

    def test_round_trip_without_incidences(self, wenger64):
        text = render_arrangement(wenger64, include_incidences=False)
        parsed = parse_arrangement(text)
        assert parsed.points == wenger64.points
        assert parsed.line_params == wenger64.line_params
        assert parsed.edges == ()

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

    def test_sniff(self, wenger64):
        assert sniff_format(render_arrangement(wenger64)) == "arrangement"
        with pytest.raises(ParseError):
            sniff_format("junk\n")


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


class TestPlanarFormat:
    def test_round_trip(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points, wenger64_lines, ProjectionMap(((1, 0), (0, 1)))
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
            wenger64.points, wenger64_lines, ProjectionMap(((1, 0), (0, 1)))
        )
        assert sniff_format(render_planar(planar)) == "planar"

    def test_noncanonical_line_rejected(self):
        text = "GIRTHFORGE-PLANAR 1\npoints 1\n0/1 0/1\nlines 1\n2 4 6\n"
        with pytest.raises(ParseError, match="canonical"):
            parse_planar(text)

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


def test_edge_list_format():
    assert render_edge_list([(2, 7), (0, 1)]) == "U0 V1\nU2 V7\n"


def triangle_arrangement():
    """Three planar lines pairwise crossing in integer points: a C6 incidence graph."""
    points = ((0, 0), (-1, 1), (-4, 2))
    lines = ((0, 1), (0, 2), (2, 3))  # x0 + v1*x1 - v0 = 0 each
    edges = ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))
    return TruncatedArrangement("wenger", 2, 1, points, lines, edges)


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

    def test_verify_wenger_no_c4(self, tmp_path):
        out = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "16", "--out", str(out)])
        assert run(
            ["verify", "--in", str(out), "--no-cycle-length", "4",
             "--min-line-degree", "2", "--subgraph-prime", "minimal"]
        ) == 0

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

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["verify", "--in", str(tmp_path / "none.arr")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--in", "{bad}"],
            ["project", "--in", "{arr}", "--out", "{out}", "--M", "1"],
            ["project", "--in", "{arr}", "--out", "{out}", "--M", "-5"],
            ["project", "--in", "{arr}", "--out", "{out}", "--retries", "0"],
        ],
        ids=["stats-bad-header", "project-M1", "project-M-5", "project-retries0"],
    )
    def test_bad_input_or_flag_is_usage_error(self, tmp_path, capsys, argv):
        arr = tmp_path / "w.arr"
        run(["construct", "--family", "wenger", "--k", "2", "--n", "4", "--out", str(arr)])
        bad = tmp_path / "bad.arr"
        bad.write_text("GIRTHFORGE-ARR 9\n")
        capsys.readouterr()
        paths = {"arr": arr, "bad": bad, "out": tmp_path / "w.planar"}
        assert run([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSVG:
    def test_reference_counts_and_determinism(self, wenger64, wenger64_lines):
        planar = project_with_map(
            wenger64.points, wenger64_lines, ProjectionMap(((1, 0), (0, 1)))
        )
        body = export_svg(planar)
        assert body.count("<circle") == 325
        assert body.count("<line") == 165
        assert "incidences=825" in body
        assert export_svg(planar) == body

    def test_single_incident_pair_clips_through_point(self):
        from girthforge.geometry import PlanarArrangement

        # vertical line x = 2 through the point (2, 5)
        pa = PlanarArrangement(((2, 5),), ((1, 0, -2),), frozenset({(0, 0)}))
        body = export_svg(pa)
        assert body.count("<circle") == 1
        assert body.count("<line") == 1
        (x1, y1), (x2, y2) = _clip_line(
            1, 0, -2, (Fraction(0), Fraction(4)), (Fraction(0), Fraction(10))
        )
        # both endpoints on the line, point between them
        assert x1 == x2 == 2
        assert y1 <= 5 <= y2

    def test_empty_arrangement_rejected(self):
        from girthforge.geometry import PlanarArrangement

        with pytest.raises(ValueError):
            export_svg(PlanarArrangement((), (), frozenset()))

    def test_far_line_is_skipped(self):
        assert _clip_line(1, 0, -100, (Fraction(0), Fraction(4)), (Fraction(0), Fraction(4))) is None
