"""Command-line front end: construct, verify, project, export, stats.

Exit codes: 0 success, 1 a verification failed (witness or mismatch is
printed), 2 usage or parameter error.  Every random choice is seeded and the
seed is echoed, so any output can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
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
    certify_lines_distinct,
    incidence_set_kd,
    line_from_params,
    project_generic,
)
from .graphs import degree_stats, girth, has_cycle_of_length, st_ratio, theoretical_exponent
from .svg import export_svg
from .truncation import TruncationSpec, build_truncated, embedding_prime, verify_subgraph_embedding

__all__ = ["run", "main"]


class UsageError(Exception):
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
    p.add_argument("--budget", type=int, default=None, help="box size budget per side")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-derive and check properties of an arrangement")
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
                   help="projection coefficients are sampled below this bound")
    p.add_argument("--retries", type=int, default=8)
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


def _spec_for(family: str, k: int, n: int) -> TruncationSpec:
    try:
        return TruncationSpec(family, k, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: Path):
    """The file's kind ('arrangement' or 'planar') and its parsed content.

    A malformed file of either kind is a usage error.
    """
    text = _read(path)
    try:
        kind = sniff_format(text)
        return kind, parse_arrangement(text) if kind == "arrangement" else parse_planar(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_arrangement(path: Path):
    kind, arr = _load(path)
    if kind != "arrangement":
        raise UsageError(f"{path}: expected an arrangement file, got a {kind} one")
    return arr


def _lines_of(arr):
    return [line_from_params(arr.family, v, arr.k) for v in arr.line_params]


def _cmd_construct(args) -> int:
    spec = _spec_for(args.family, args.k, args.n)
    kwargs = {}
    if args.budget is not None:
        kwargs["box_budget"] = args.budget
    try:
        arr = build_truncated(spec, **kwargs)
    except BudgetExceededError as exc:
        raise UsageError(str(exc)) from exc
    args.out.write_text(render_arrangement(arr))
    print(
        f"wrote {args.out}: family={arr.family} k={arr.k} n={arr.n} "
        f"points={len(arr.points)} lines={len(arr.line_params)} incidences={len(arr.edges)}"
    )
    return 0


def _cmd_verify(args) -> int:
    arr = _load_arrangement(args.infile)
    lines = _lines_of(arr)

    ok, pair = certify_lines_distinct(lines)
    if not ok:
        raise CheckFailure(f"line parameters {pair[0]} and {pair[1]} give the same line")
    print(f"ok: {len(lines)} lines are pairwise distinct")

    derived = incidence_set_kd(arr.points, lines)
    if derived != arr.edge_set:
        extra = len(derived - arr.edge_set)
        missing = len(arr.edge_set - derived)
        raise CheckFailure(
            f"recorded incidences disagree with geometry: file is missing {extra} "
            f"and carries {missing} spurious pairs"
        )
    print(f"ok: {len(derived)} incidences re-derived from geometry match the file")

    graph = arr.to_bipartite_graph()
    if args.girth_at_least is not None:
        report = girth(graph)
        if report.girth < args.girth_at_least:
            cyc = " ".join(graph.vertex_label(v) for v in report.witness)
            raise CheckFailure(
                f"girth {report.girth} < {args.girth_at_least}; witness: {cyc}"
            )
        print(f"ok: girth {report.girth} >= {args.girth_at_least}")
    if args.no_cycle_length is not None:
        try:
            witness = has_cycle_of_length(graph, args.no_cycle_length)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if witness is not None:
            cyc = " ".join(graph.vertex_label(v) for v in witness)
            raise CheckFailure(f"found a {args.no_cycle_length}-cycle: {cyc}")
        print(f"ok: no cycle of length {args.no_cycle_length}")
    left, right = degree_stats(graph)
    if args.min_point_degree is not None:
        if left.minimum < args.min_point_degree:
            raise CheckFailure(
                f"minimum point degree {left.minimum} < {args.min_point_degree}"
            )
        print(f"ok: every point lies on >= {args.min_point_degree} lines")
    if args.min_line_degree is not None:
        if right.minimum < args.min_line_degree:
            raise CheckFailure(
                f"minimum line degree {right.minimum} < {args.min_line_degree}"
            )
        print(f"ok: every line carries >= {args.min_line_degree} points")
    if args.subgraph_prime is not None:
        mode = "minimal" if args.subgraph_prime == "minimal" else "paper_window"
        q = embedding_prime(arr.spec, mode)
        if not verify_subgraph_embedding(arr, q):
            raise CheckFailure(f"arrangement does not embed mod the prime {q}")
        print(f"ok: embeds into the field graph mod {q} ({args.subgraph_prime} mode)")
    return 0


def _cmd_project(args) -> int:
    arr = _load_arrangement(args.infile)
    lines = _lines_of(arr)
    try:
        planar, pmap = project_generic(
            arr.points, lines, seed=args.seed, bound=args.bound, max_retries=args.retries
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
        try:
            args.out.write_text(export_svg(data))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(f"wrote {args.out}")
        return 0
    edges = data.edges if kind == "arrangement" else sorted(data.incidences)
    args.out.write_text(render_edge_list(edges))
    print(f"wrote {args.out}: {len(edges)} edges")
    return 0


def _cmd_stats(args) -> int:
    kind, data = _load(args.infile)
    graph = data.to_bipartite_graph()
    if kind == "arrangement":
        n_points, n_lines, n_inc = len(data.points), len(data.line_params), len(data.edges)
        print(f"family {data.family}  k {data.k}  n {data.n}")
        exponent = theoretical_exponent(data.family, data.k)
        print(f"incidence exponent {exponent} = {float(exponent):.6f}")
    else:
        n_points, n_lines, n_inc = len(data.points), len(data.lines), len(data.incidences)
        print("planar arrangement")
    print(f"points {n_points}  lines {n_lines}  incidences {n_inc}")
    left, right = degree_stats(graph)
    print(f"point degrees min {left.minimum} max {left.maximum}")
    print(f"line degrees min {right.minimum} max {right.maximum}")
    report = girth(graph)
    print(f"girth {report.girth}")
    if n_inc:
        ratio = st_ratio(n_points, n_lines, n_inc)
        print(f"incidence-bound ratio {ratio} = {float(ratio):.6f}")
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ProjectionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
