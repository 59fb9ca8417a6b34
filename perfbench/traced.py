"""In-memory span tracer and the probes that time the program's own calls.

``probes(tracer)`` replaces each probed girthforge function, in every
girthforge module namespace that binds it, by a wrapper that records a span
around the call, and puts the originals back when the block ends.  Inside
the block the benchmark calls ``cli.run`` with the same argv as the untraced
run, so the spans time the program's own path.  Span names are
``<layer>.<operation>``; top-level spans are ``cli.<command>`` (one CLI
invocation) and ``check.<graph>`` (one field-graph check).  Every span
records its start, end, parent and the run id of its iteration.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from girthforge import algebraic, cli, files, geometry, graphs, svg, truncation

# Top-level span -> the end-to-end metric whose time it covers; every
# ``check.<graph>`` span feeds check_s.
TOP_METRIC = {
    "cli.construct": "construct_s",
    "cli.verify": "verify_s",
    "cli.project": "project_s",
    "cli.export": "export_s",
    "cli.stats": "stats_s",
}
LAYERS = ("exactmath", "algebraic", "truncation", "geometry", "graphs", "files", "svg", "cli")


class Tracer:
    """Spans and counts kept in memory; written out once by ``write``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, dict[str, float]] = {}
        self.run_id = ""
        self._stack: list[int] = []

    def begin_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts[run_id] = {}

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[self.run_id][name] = value

    def add(self, name: str, value) -> None:
        counts = self.counts[self.run_id]
        counts[name] = counts.get(name, 0) + value

    def write(self, path: Path) -> None:
        """One JSON list; a span's ``parent`` is the ``id`` of the span that called it."""
        keys = ("name", "start", "end", "parent", "run")
        spans = [dict(zip(keys, s), id=i) for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(spans) + "\n")

    def run_spans(self, run_id: str):
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def self_times(self, run_id: str) -> dict[tuple[str, str], float]:
        """Self time summed per (end-to-end metric of the root span, layer)."""
        spans = self.run_spans(run_id)
        child_total: dict[int, float] = {}
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_total[parent] = child_total.get(parent, 0.0) + end - start
        out: dict[tuple[str, str], float] = {}
        for i, (name, start, end, parent, _) in spans:
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            metric = _top_metric(self.spans[root][0])
            if metric is None:
                continue
            key = (metric, name.split(".", 1)[0])
            out[key] = out.get(key, 0.0) + (end - start) - child_total.get(i, 0.0)
        return out

    def span_sums(self, run_id: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, (name, start, end, _, _) in self.run_spans(run_id):
            out[name] = out.get(name, 0.0) + end - start
        return out


def _top_metric(name: str) -> str | None:
    return "check_s" if name.startswith("check.") else TOP_METRIC.get(name)


def _count_box(tr, args, arr):
    tr.count("truncation.box_points", len(arr.points))
    tr.count("truncation.box_lines", len(arr.line_params))


def _count_incidences(tr, args, found):
    points, lines = args
    pairs = len(points) * len(lines)
    tr.count("geometry.incidence_pairs", pairs)
    tr.count("geometry.incidence_hit_ratio", len(found) / pairs)
    tr.count("geometry.directions", len({line.direction for line in lines}))


def _count_degrees(tr, args, stats):
    left, right = stats
    tr.count("graphs.empty_points", left.histogram.get(0, 0))
    tr.count("graphs.empty_lines", right.histogram.get(0, 0))


def _count_bytes(name):
    return lambda tr, args, text: tr.count(name, len(text.encode()))


def _count_edges(tr, args, graph):
    tr.add("algebraic.edges", graph.edge_count)


# (owner, attribute, span name, observer of (tracer, args, result) or None).
# cli._lines_of is probed in place of line_from_params_*, which it calls once
# per line: one span per list instead of one per line.
PROBES = (
    (truncation, "build_truncated", "truncation.build", _count_box),
    (truncation, "embedding_prime", "exactmath.prime", None),
    (truncation, "verify_subgraph_embedding", "truncation.embedding_check", None),
    (truncation.TruncatedArrangement, "to_bipartite_graph", "graphs.bipartite", None),
    (cli, "_lines_of", "geometry.lines", None),
    (geometry, "certify_lines_distinct", "geometry.distinct", None),
    (geometry, "incidence_set_kd", "geometry.incidence", _count_incidences),
    (geometry, "project_generic", "geometry.project_generic", None),
    (geometry, "sample_projection", "geometry.sample", lambda tr, args, pmap: tr.add("geometry.project_attempts", 1)),
    (geometry, "project_with_map", "geometry.project", None),
    (graphs, "girth", "graphs.girth", None),
    (graphs, "has_cycle_of_length", "graphs.cycle_search", None),
    (graphs, "degree_stats", "graphs.degree", _count_degrees),
    (graphs, "theoretical_exponent", "graphs.exponent", None),
    (graphs, "st_ratio", "graphs.st_ratio", None),
    (algebraic, "build_lu_graph", "algebraic.build", _count_edges),
    (algebraic, "build_wenger_graph", "algebraic.build", _count_edges),
    (files, "parse_arrangement", "files.parse_arr", None),
    (files, "render_arrangement", "files.render_arr", _count_bytes("files.arr_bytes")),
    (files, "parse_planar", "files.parse_planar", None),
    (files, "render_planar", "files.render_planar", _count_bytes("files.planar_bytes")),
    (files, "render_edge_list", "files.render_edges", None),
    (files, "sniff_format", "files.sniff", None),
    (svg, "export_svg", "svg.export", _count_bytes("svg.bytes")),
)


def _probe(tr: Tracer, fn, name: str, observe):
    def probed(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tr, args, result)
        return result

    return probed


@contextmanager
def probes(tr: Tracer):
    """Time every probed function, wherever a girthforge module binds it."""
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "girthforge"]
    saved = []
    try:
        for owner, attr, name, observe in PROBES:
            original = vars(owner)[attr]
            probed = _probe(tr, original, name, observe)
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        saved.append((site, key, value))
                        setattr(site, key, probed)
        yield
    finally:
        for site, key, value in reversed(saved):
            setattr(site, key, value)
