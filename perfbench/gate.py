"""Correctness checks applied to every operation the benchmark times.

Each check returns None when the output is right and a one-line reason when
it is not; the caller counts a reason as one failed operation.  The checks
read only files and the pinned values in spec.json, so they can be fed
tampered files directly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from girthforge.files import ParseError, parse_arrangement, parse_planar


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digest(path: Path, expected: str) -> str | None:
    try:
        got = sha256_of(path)
    except OSError as exc:
        return f"{path.name}: unreadable ({exc})"
    if got != expected:
        return f"{path.name}: sha256 {got} != pinned {expected}"
    return None


def check_stdout(what: str, out: str, expected_lines) -> str | None:
    if out.splitlines() != list(expected_lines):
        return f"{what}: output differs from the pinned lines: {out!r}"
    return None


def check_planar(planar_path: Path, arr_path: Path) -> str | None:
    """The planar file re-parses and carries exactly the arrangement's incidences."""
    try:
        arr = parse_arrangement(arr_path.read_text())
        planar = parse_planar(planar_path.read_text())
    except (OSError, ParseError) as exc:
        return f"{planar_path.name}: does not parse ({exc})"
    if len(planar.points) != len(arr.points) or len(planar.lines) != len(arr.line_params):
        return (
            f"{planar_path.name}: {len(planar.points)} points / {len(planar.lines)} lines, "
            f"arrangement has {len(arr.points)} / {len(arr.line_params)}"
        )
    if planar.incidences != arr.edge_set:
        return (
            f"{planar_path.name}: incidences differ from the arrangement "
            f"(+{len(planar.incidences - arr.edge_set)} / -{len(arr.edge_set - planar.incidences)})"
        )
    return None


def check_svg(svg_path: Path, points: int, lines: int, incidences: int) -> str | None:
    try:
        text = svg_path.read_text()
    except OSError as exc:
        return f"{svg_path.name}: unreadable ({exc})"
    caption = f"points={points} lines={lines} incidences={incidences}"
    if not text.startswith("<?xml") or caption not in text or text.count("<circle ") != points:
        return f"{svg_path.name}: not a drawing of {caption}"
    return None


def check_cycle(graph, cycle, length: int) -> str | None:
    """Independent re-check of a girth witness: a simple closed walk of this length."""
    if cycle is None or len(cycle) != length or len(set(cycle)) != length:
        return f"witness {cycle} is not a simple {length}-cycle"
    off = graph.left_count
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a < off:
            ok = b >= off and (b - off) in graph.left_adj[a]
        else:
            ok = b < off and b in graph.right_adj[a - off]
        if not ok:
            return f"witness step {a}->{b} is not an edge"
    return None
