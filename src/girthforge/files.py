"""Flat text formats for arrangements: diffable, auditable, round-trip exact.

Two formats share the same shape: a versioned header, counted sections of
whitespace-separated rows, and last a required incidence section, after which
nothing may follow.  Blank lines are skipped.  Rationals are
written as ``num/den`` in lowest terms with a positive denominator, so
``parse(render(x)) == x`` holds field for field.  Every number is read only
in the form the writer emits: an integer is ASCII digits with no leading
zero, no ``+``, no ``_`` and no ``-0``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, islice
from math import gcd
from operator import not_

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
    "MAX_DIM",
]

ARRANGEMENT_HEADER = "GIRTHFORGE-ARR 1"
PLANAR_HEADER = "GIRTHFORGE-PLANAR 1"

# The largest dim a file may declare.  A box of k coordinates holds at least
# 2**k tuples (algebraic.check_box_lower_bound), so no file construct can
# build comes near it, while the commands' per-coordinate work (the layered
# plan, the box bounds) grows with the declared dim, however few rows follow.
MAX_DIM = 4096


class ParseError(ValueError):
    pass


# A '0' that starts a token of two or more digits.  The first token of a
# text is never a number: it is the header.
_LEADING_ZERO = re.compile(r"\s0[0-9]")


class _Reader:
    def __init__(self, text: str):
        self.text = text
        # The non-blank lines, stripped; pos is the next one to read.
        self.lines = list(filter(None, map(str.strip, text.splitlines())))
        self.pos = 0
        # int() also reads '+1', '1_0', '-0', '01' and non-ASCII digits.  A text
        # with none of them can be read by int() alone; any other text has each
        # integer field compared with its canonical rendering.
        self.plain = text.isascii() and not (
            "+" in text or "_" in text or "-0" in text or _LEADING_ZERO.search(text)
        )

    def line_number(self, pos: int) -> int:
        """The physical line number of the non-blank line at pos; blank lines count too."""
        numbered = (at for at, line in enumerate(self.text.splitlines(), 1) if line.strip())
        return next(islice(numbered, pos, None))

    def next_line(self) -> str:
        if self.pos == len(self.lines):
            raise ParseError("unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def keyword(self, key: str) -> str:
        line = self.next_line()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ParseError(f"expected '{key} ...', got {line!r}")
        return rest.strip()

    def int_field(self, key: str) -> int:
        value = self.keyword(key)
        try:
            x = int(value)
        except ValueError as exc:
            raise ParseError(f"bad integer for {key!r}: {value!r}") from exc
        if str(x) != value:
            raise ParseError(f"bad integer for {key!r}: {value!r}")
        return x

    def count_field(self, key: str) -> int:
        value = self.int_field(key)
        if value < 0:
            raise ParseError(f"negative count for {key!r}: {value}")
        return value

    def rows(self, count: int, width: int, convert=None) -> list[tuple]:
        """The next count lines as rows of exactly width fields: canonical
        integers, or each passed through convert.

        The section is read as one block: each line's width is checked, the
        joined block is split once, every field converted by one map, and
        the rows formed by zip.  When any of that fails, the lines are read
        again one at a time by row(), which names the first bad one.
        """
        block = self.lines[self.pos : self.pos + count]
        if len(block) == count and set(map(len, map(str.split, block))) <= {width}:
            fields = " ".join(block).split()
            try:
                values = list(map(convert or int, fields))
                if convert is None and not self.plain and list(map(str, values)) != fields:
                    raise ValueError("not a canonical integer")
            except (ValueError, ZeroDivisionError):
                pass
            else:
                self.pos += count
                return list(zip(*[iter(values)] * width))
        for _ in range(count):
            self.row(width, convert)
        raise AssertionError("a section was refused but each of its rows reads")

    def row(self, width: int, convert=None) -> tuple:
        """The next line as exactly width fields, or the ParseError that names it."""
        line = self.next_line()
        at = self.pos - 1
        parts = line.split()
        if len(parts) != width:
            raise ParseError(f"line {self.line_number(at)}: expected {width} fields, got {len(parts)}")
        try:
            if convert is not None:
                return tuple(map(convert, parts))
            values = tuple(map(int, parts))
            if not self.plain and list(map(str, values)) != parts:
                raise ValueError("not a canonical integer")
            return values
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {self.line_number(at)}: bad field in {line!r}") from exc


def render_arrangement(arr: TruncatedArrangement) -> str:
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
    out.append(f"incidences {len(arr.edges)}")
    out.extend(f"{pi} {lj}" for pi, lj in arr.edges)
    return "\n".join(out) + "\n"


def parse_arrangement(text: str) -> TruncatedArrangement:
    r = _Reader(text)
    if r.next_line() != ARRANGEMENT_HEADER:
        raise ParseError(f"missing header {ARRANGEMENT_HEADER!r}")
    k = r.int_field("dim")
    if k > MAX_DIM:
        raise ParseError(f"dim {k} is above the ceiling of {MAX_DIM}")
    family = r.keyword("family")
    n = r.int_field("n")
    try:
        TruncationSpec(family, k, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    n_points = r.count_field("points")
    n_lines = r.count_field("lines")
    points = tuple(r.rows(n_points, k))
    if len(set(points)) != len(points):
        raise ParseError("duplicate point")
    line_params = tuple(r.rows(n_lines, k))
    edges = _parse_incidences(r, n_points, n_lines)
    return TruncatedArrangement(family, k, n, points, line_params, edges)


def _parse_incidences(r: _Reader, n_points: int, n_lines: int) -> tuple:
    edges = r.rows(r.count_field("incidences"), 2)
    if edges:
        pis, ljs = zip(*edges)
        if not (min(pis) >= 0 and max(pis) < n_points and min(ljs) >= 0 and max(ljs) < n_lines):
            pi, lj = next((pi, lj) for pi, lj in edges if not (0 <= pi < n_points and 0 <= lj < n_lines))
            raise ParseError(f"incidence ({pi}, {lj}) out of range")
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate incidence pair")
    if r.pos < len(r.lines):
        raise ParseError(f"line {r.line_number(r.pos)}: trailing content: {r.lines[r.pos]!r}")
    edges.sort()
    return tuple(edges)


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def render_planar(pa: PlanarArrangement) -> str:
    out = [PLANAR_HEADER, f"points {len(pa.points)}"]
    out.extend(f"{_frac_str(x)} {_frac_str(y)}" for x, y in pa.points)
    out.append(f"lines {len(pa.lines)}")
    out.extend(f"{a} {b} {c}" for a, b, c in pa.lines)
    out.append(f"incidences {len(pa.incidences)}")
    out.extend(f"{pi} {lj}" for pi, lj in sorted(pa.incidences))
    return "\n".join(out) + "\n"


def _rational(token: str):
    """A planar coordinate: ``num/den``, never a bare integer, decimal or exponent.

    The token must be its own canonical rendering: ASCII digits with no
    ``+`` or ``_``, and a pair in lowest terms with a positive denominator.
    """
    num, _, den = token.partition("/")
    x = Fraction(int(num), int(den))
    if token != f"{x.numerator}/{x.denominator}":
        raise ValueError(f"not a canonical rational: {token!r}")
    return _as_exact(x)


def parse_planar(text: str) -> PlanarArrangement:
    r = _Reader(text)
    if r.next_line() != PLANAR_HEADER:
        raise ParseError(f"missing header {PLANAR_HEADER!r}")
    n_points = r.count_field("points")
    points = tuple(r.rows(n_points, 2, _rational))
    if len(set(points)) != len(points):
        raise ParseError("duplicate planar point")
    n_lines = r.count_field("lines")
    lines = tuple(r.rows(n_lines, 3))
    # The canonical form itself: primitive, first nonzero of (a, b) positive.
    # Column-wise: every gcd is 1, every a >= 0, and b > 0 wherever a == 0.
    if lines:
        a, b, c = zip(*lines)
        if set(map(gcd, a, b, c)) != {1} or min(a) < 0 or min(compress(b, map(not_, a)), default=1) <= 0:
            a, b, c = next(t for t in lines if not (gcd(*t) == 1 and (t[0] or t[1]) > 0))
            raise ParseError(f"line ({a}, {b}, {c}) is not in canonical form")
    if len(set(lines)) != len(lines):
        raise ParseError("duplicate planar line")
    edges = _parse_incidences(r, n_points, n_lines)
    return PlanarArrangement(points, lines, frozenset(edges))


def render_edge_list(edges) -> str:
    """Side-prefixed edge list, one 'U<i> V<j>' row per incidence."""
    return "\n".join(f"U{pi} V{lj}" for pi, lj in sorted(edges)) + "\n"


def sniff_format(text: str) -> str:
    """'arrangement' or 'planar', judged from the first non-blank line alone."""
    # the leading whitespace, then the rest of that line up to a str.splitlines boundary
    head = re.match(r"\s*([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)", text)[1].rstrip()
    if head == ARRANGEMENT_HEADER:
        return "arrangement"
    if head == PLANAR_HEADER:
        return "planar"
    raise ParseError(f"unrecognized header {head!r}")
