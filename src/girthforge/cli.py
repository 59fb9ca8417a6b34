"""Command-line front end: construct, verify, project, export, stats.

Exit codes: 0 success, 1 a verification failed (witness or mismatch is
printed), 2 usage or input error: a bad flag, an unreadable or unwritable
path, or a malformed file.  Every random choice is seeded and the seed is
echoed, so any output can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .algebraic import BudgetExceededError
from .families import FAMILIES
from .files import (
    ParseError,
    parse_arrangement,
    parse_planar,
    render_arrangement,
    render_edge_list,
    render_planar,
    sniff_format,
)
from .geometry import (
    ProjectionError,
    _planar_incidences,
    certify_lines_distinct,
    incidence_set_kd,
    lines_from_params,
    project_generic,
)
from .graphs import (
    check_cycle_length,
    degree_stats,
    girth,
    has_cycle_of_length,
    st_ratio,
    theoretical_exponent,
)
from .svg import export_svg
from .truncation import DEFAULT_BOX_BUDGET, TruncationSpec, build_truncated
from .truncation import embedding_prime, verify_subgraph_embedding

__all__ = ["run", "main"]


# A wider projection bound could print planar line triples past Python's
# 4300-digit limit on int-to-str conversion.
MAX_BOUND_BITS = 4096


class UsageError(ValueError):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="girthforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a truncated arrangement file")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--budget", type=int, default=DEFAULT_BOX_BUDGET, help="box size budget per side")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-derive and check an arrangement or planar file")
    p.add_argument("--in", dest="infile", required=True, type=Path)
    p.add_argument("--girth-at-least", type=int, default=None)
    p.add_argument("--no-cycle-length", type=int, default=None)
    p.add_argument("--min-point-degree", type=int, default=None)
    p.add_argument("--min-line-degree", type=int, default=None)
    p.add_argument("--subgraph-prime", choices=["minimal", "paper"], default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("project", help="project an arrangement to the plane, verified")
    p.add_argument("--in", dest="infile", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--M", dest="bound", type=int, default=1 << 16,
                   help="projection coefficients are sampled below this bound "
                   f"(at most {MAX_BOUND_BITS} bits)")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("export", help="emit an SVG figure or a plain edge list")
    p.add_argument("--in", dest="infile", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", required=True, choices=["svg", "edges"])
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("stats", help="print counts, degrees, girth, and diagnostics")
    p.add_argument("--in", dest="infile", required=True, type=Path)
    p.set_defaults(func=_cmd_stats)

    return parser


def _load(path: Path):
    """The file's kind ('arrangement' or 'planar') and its parsed content."""
    text = path.read_text()
    try:
        kind = sniff_format(text)
        return kind, parse_arrangement(text) if kind == "arrangement" else parse_planar(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_arrangement(path: Path):
    kind, arr = _load(path)
    if kind != "arrangement":
        raise UsageError(f"{path}: expected an arrangement file, got a {kind} one")
    return arr


def _lines_of(arr):
    return lines_from_params(arr.family, arr.line_params, arr.k)


def _cmd_construct(args) -> int:
    arr = build_truncated(TruncationSpec(args.family, args.k, args.n), box_budget=args.budget)
    args.out.write_text(render_arrangement(arr))
    print(
        f"wrote {args.out}: family={arr.family} k={arr.k} n={arr.n} "
        f"points={len(arr.points)} lines={len(arr.line_params)} incidences={len(arr.edges)}"
    )
    return 0


def _cmd_verify(args) -> int:
    if args.no_cycle_length is not None:
        check_cycle_length(args.no_cycle_length)
    kind, arr = _load(args.infile)
    if kind == "arrangement":
        lines = _lines_of(arr)
        ok, pair = certify_lines_distinct(lines)
        if not ok:
            raise CheckFailure(f"line parameters {pair[0]} and {pair[1]} give the same line")
        print(f"ok: {len(lines)} lines are pairwise distinct")
        derived, recorded = incidence_set_kd(arr.points, lines), arr.edge_set
    else:  # the reader already refuses two equal planar lines
        if args.subgraph_prime is not None:
            raise UsageError("--subgraph-prime needs an arrangement file, not a planar one")
        derived, recorded = _planar_incidences(arr.points, arr.lines), arr.incidences
    if derived != recorded:
        missing = derived - recorded
        spurious = recorded - derived
        message = (
            f"recorded incidences disagree with geometry: file is missing {len(missing)} "
            f"and carries {len(spurious)} spurious pairs"
        )
        if missing:
            message += f"; smallest missing: {min(missing)}"
        if spurious:
            message += f"; smallest spurious: {min(spurious)}"
        raise CheckFailure(message)
    print(f"ok: {len(derived)} incidences re-derived from geometry match the file")

    graph = arr.to_bipartite_graph()
    report = None
    if args.girth_at_least is not None or args.no_cycle_length is not None:
        report = girth(graph)
    if args.girth_at_least is not None:
        if report.girth < args.girth_at_least:
            cyc = " ".join(graph.vertex_label(v) for v in report.witness)
            raise CheckFailure(f"girth {report.girth} < {args.girth_at_least}; witness: {cyc}")
        print(f"ok: girth {report.girth} >= {args.girth_at_least}")
    if args.no_cycle_length is not None:
        # no cycle is shorter than the girth; the length itself was checked above
        if args.no_cycle_length >= report.girth:
            witness = has_cycle_of_length(graph, args.no_cycle_length)
            if witness is not None:
                cyc = " ".join(graph.vertex_label(v) for v in witness)
                raise CheckFailure(f"found a {args.no_cycle_length}-cycle: {cyc}")
        print(f"ok: no cycle of length {args.no_cycle_length}")
    if report is not None and report.witness is None:
        print("note: the graph is a forest, so a girth or cycle check on it proves nothing")
    left, right = degree_stats(graph)
    for side, least, summary, holds in (
        ("point", args.min_point_degree, left, "every point lies on >= {} lines"),
        ("line", args.min_line_degree, right, "every line carries >= {} points"),
    ):
        if least is None:
            continue
        if not summary.histogram:  # no vertex on this side, so no degree falls short
            print(f"note: there are no {side}s, so --min-{side}-degree proves nothing")
        elif summary.minimum < least:
            raise CheckFailure(f"minimum {side} degree {summary.minimum} < {least}")
        else:
            print("ok: " + holds.format(least))
    if args.subgraph_prime is not None:
        q = embedding_prime(arr, args.subgraph_prime)
        if not verify_subgraph_embedding(arr, q):
            raise CheckFailure(f"arrangement does not embed mod the prime {q}")
        print(f"ok: embeds into the field graph mod {q} ({args.subgraph_prime} mode)")
    return 0


def _cmd_project(args) -> int:
    if args.bound < 2:
        raise UsageError("coefficient bound must be >= 2")
    if args.bound.bit_length() > MAX_BOUND_BITS:
        raise UsageError(f"coefficient bound must have at most {MAX_BOUND_BITS} bits")
    arr = _load_arrangement(args.infile)
    lines = _lines_of(arr)
    planar, pmap = project_generic(arr.points, lines, seed=args.seed, bound=args.bound)
    args.out.write_text(render_planar(planar))
    print(f"seed {pmap.seed} bound {pmap.bound}")
    print(f"rows {' '.join(map(str, pmap.rows[0]))} | {' '.join(map(str, pmap.rows[1]))}")
    print(
        f"wrote {args.out}: points={len(planar.points)} lines={len(planar.lines)} "
        f"incidences={len(planar.incidences)}"
    )
    return 0


def _cmd_export(args) -> int:
    kind, data = _load(args.infile)
    if args.format == "svg":
        if kind != "planar":
            raise UsageError("svg export needs a planar file; run 'project' first")
        args.out.write_text(export_svg(data))
        print(f"wrote {args.out}")
        return 0
    edges = data.edges if kind == "arrangement" else data.incidences
    args.out.write_text(render_edge_list(edges))
    print(f"wrote {args.out}: {len(edges)} edges")
    return 0


def _cmd_stats(args) -> int:
    kind, data = _load(args.infile)
    graph = data.to_bipartite_graph()
    if kind == "arrangement":
        print(f"family {data.family}  k {data.k}  n {data.n}")
        exponent = theoretical_exponent(data.family, data.k)
        print(f"incidence exponent {exponent} = {float(exponent):.6f}")
    else:
        print("planar arrangement")
    n_points, n_lines, n_inc = graph.left_count, graph.right_count, graph.edge_count
    print(f"points {n_points}  lines {n_lines}  incidences {n_inc}")
    for side, summary in zip(("point", "line"), degree_stats(graph)):
        if summary.histogram:
            print(f"{side} degrees min {summary.minimum} max {summary.maximum}")
        else:  # min 0 max 0 would read as vertices of degree 0
            print(f"note: there are no {side}s, so there are no {side} degrees")
    report = girth(graph)
    print(f"girth {report.girth}")
    if report.witness is None:
        print("note: the graph is a forest, so girth inf proves nothing")
    if n_inc:
        ratio = st_ratio(n_points, n_lines, n_inc)
        print(f"incidence-bound ratio {ratio} = {float(ratio):.6f}")
    return 0


# A run of more than 40 digits is named by its length in a printed message.
_LONG_INTEGER = re.compile(r"\d{41,}")


def _readable(exc: BaseException) -> str:
    """The exception's message with each over-long integer named by its digit count."""
    message = str(exc) or type(exc).__name__
    return _LONG_INTEGER.sub(lambda m: f"<a {len(m[0])}-digit number>", message)


def run(argv=None) -> int:
    """Run one command and return its exit code; this is the only place one is chosen.

    Running out of memory is an input error: the input asked for more than
    this machine holds.  Internal faults are raised as AssertionError and
    keep their traceback.
    """
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CheckFailure, ProjectionError) as exc:
        print(f"FAIL: {_readable(exc)}", file=sys.stderr)
        return 1
    except (ValueError, OSError, BudgetExceededError, MemoryError) as exc:
        print(f"error: {_readable(exc)}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
