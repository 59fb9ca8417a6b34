"""Flat text formats for arrangements: diffable, auditable, round-trip exact.

Two formats share the same shape: a versioned header, counted sections of
whitespace-separated rows, and an optional incidence section.  Rationals are
written as ``num/den`` in lowest terms with a positive denominator, so
``parse(render(x)) == x`` holds field for field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .geometry import PlanarArrangement, _as_exact
from .truncation import TruncatedArrangement, TruncationSpec

__all__ = [
    "ParseError",
    "ARRANGEMENT_HEADER",
    "PLANAR_HEADER",
    "render_arrangement",
    "parse_arrangement",
    "render_planar",
    "parse_planar",
    "render_edge_list",
    "sniff_format",
]

ARRANGEMENT_HEADER = "GIRTHFORGE-ARR 1"
PLANAR_HEADER = "GIRTHFORGE-PLANAR 1"


class ParseError(ValueError):
    pass


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.at = 0

    def next_line(self) -> str:
        while self.at < len(self.lines):
            line = self.lines[self.at].strip()
            self.at += 1
            if line:
                return line
        raise ParseError("unexpected end of file")

    def peek(self) -> str | None:
        at = self.at
        while at < len(self.lines):
            line = self.lines[at].strip()
            if line:
                return line
            at += 1
        return None

    def keyword(self, key: str) -> str:
        line = self.next_line()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ParseError(f"expected '{key} ...', got {line!r}")
        return rest.strip()

    def int_field(self, key: str) -> int:
        value = self.keyword(key)
        try:
            return int(value)
        except ValueError as exc:
            raise ParseError(f"bad integer for {key!r}: {value!r}") from exc

    def count_field(self, key: str) -> int:
        value = self.int_field(key)
        if value < 0:
            raise ParseError(f"negative count for {key!r}: {value}")
        return value


def render_arrangement(arr: TruncatedArrangement, include_incidences: bool = True) -> str:
    out = [
        ARRANGEMENT_HEADER,
        f"dim {arr.k}",
        f"family {arr.family}",
        f"n {arr.n}",
        f"points {len(arr.points)}",
        f"lines {len(arr.line_params)}",
    ]
    out.extend(" ".join(map(str, p)) for p in arr.points)
    out.extend(" ".join(map(str, v)) for v in arr.line_params)
    if include_incidences:
        out.append(f"incidences {len(arr.edges)}")
        out.extend(f"{pi} {lj}" for pi, lj in arr.edges)
    return "\n".join(out) + "\n"


def parse_arrangement(text: str) -> TruncatedArrangement:
    r = _Reader(text)
    if r.next_line() != ARRANGEMENT_HEADER:
        raise ParseError(f"missing header {ARRANGEMENT_HEADER!r}")
    k = r.int_field("dim")
    family = r.keyword("family")
    n = r.int_field("n")
    try:
        TruncationSpec(family, k, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    n_points = r.count_field("points")
    n_lines = r.count_field("lines")
    points = tuple(_int_row(r, k) for _ in range(n_points))
    line_params = tuple(_int_row(r, k) for _ in range(n_lines))
    edges = _parse_incidences(r, n_points, n_lines)
    return TruncatedArrangement(family, k, n, points, line_params, edges)


def _int_row(r: _Reader, k: int) -> tuple[int, ...]:
    parts = r.next_line().split()
    if len(parts) != k:
        raise ParseError(f"expected {k} coordinates, got {len(parts)}")
    return tuple(int(p) for p in parts)


def _parse_incidences(r: _Reader, n_points: int, n_lines: int) -> tuple:
    if r.peek() is None:
        return ()
    count = r.count_field("incidences")
    edges = []
    for _ in range(count):
        parts = r.next_line().split()
        if len(parts) != 2:
            raise ParseError("incidence rows have two indices")
        pi, lj = int(parts[0]), int(parts[1])
        if not (0 <= pi < n_points and 0 <= lj < n_lines):
            raise ParseError(f"incidence ({pi}, {lj}) out of range")
        edges.append((pi, lj))
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate incidence pair")
    if r.peek() is not None:
        raise ParseError(f"trailing content: {r.peek()!r}")
    return tuple(sorted(edges))


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def render_planar(pa: PlanarArrangement, include_incidences: bool = True) -> str:
    out = [PLANAR_HEADER, f"points {len(pa.points)}"]
    out.extend(f"{_frac_str(x)} {_frac_str(y)}" for x, y in pa.points)
    out.append(f"lines {len(pa.lines)}")
    out.extend(f"{a} {b} {c}" for a, b, c in pa.lines)
    if include_incidences:
        out.append(f"incidences {len(pa.incidences)}")
        out.extend(f"{pi} {lj}" for pi, lj in sorted(pa.incidences))
    return "\n".join(out) + "\n"


def parse_planar(text: str) -> PlanarArrangement:
    r = _Reader(text)
    if r.next_line() != PLANAR_HEADER:
        raise ParseError(f"missing header {PLANAR_HEADER!r}")
    n_points = r.count_field("points")
    points = []
    for _ in range(n_points):
        parts = r.next_line().split()
        if len(parts) != 2:
            raise ParseError("planar points have two coordinates")
        points.append(tuple(_as_exact(Fraction(p)) for p in parts))
    if len(set(points)) != len(points):
        raise ParseError("duplicate planar point")
    n_lines = r.count_field("lines")
    lines = []
    for _ in range(n_lines):
        parts = r.next_line().split()
        if len(parts) != 3:
            raise ParseError("planar lines have three coefficients")
        a, b, c = (int(p) for p in parts)
        if (a, b) == (0, 0) or gcd(a, gcd(b, c)) != 1 or (a if a else b) < 0:
            raise ParseError(f"line ({a}, {b}, {c}) is not in canonical form")
        lines.append((a, b, c))
    if len(set(lines)) != len(lines):
        raise ParseError("duplicate planar line")
    edges = _parse_incidences(r, n_points, n_lines)
    return PlanarArrangement(tuple(points), tuple(lines), frozenset(edges))


def render_edge_list(edges) -> str:
    """Side-prefixed edge list, one 'U<i> V<j>' row per incidence."""
    return "\n".join(f"U{pi} V{lj}" for pi, lj in sorted(edges)) + "\n"


def sniff_format(text: str) -> str:
    """'arrangement' or 'planar', judged from the header line."""
    head = text.lstrip().splitlines()[0].strip() if text.strip() else ""
    if head == ARRANGEMENT_HEADER:
        return "arrangement"
    if head == PLANAR_HEADER:
        return "planar"
    raise ParseError(f"unrecognized header {head!r}")
