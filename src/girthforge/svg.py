"""Static SVG rendering of planar arrangements.

Output is deterministic: fixed canvas, fixed decimal formatting, elements in
input order, so the same arrangement always produces identical bytes.

Lines are clipped with integer arithmetic only.  The viewport's x bounds are
put over one common denominator DX and its y bounds over DY, which gives an
integer grid u = x*DX, v = y*DY with bounds XL..XH and YL..YH.  There the
line a*x + b*y + c = 0 reads A*u + B*v + C = 0 with A = a*DY, B = b*DX and
C = c*DX*DY, and every candidate endpoint of one line is held over that
line's one positive denominator, so equal points are equal integer pairs.

Each pixel coordinate is one integer numerator over one positive integer
denominator, and the only float is their quotient, formatted with ``:.3f``.
Python's int/int true division is correctly rounded, and ``float(Fraction)``
is that same division, so the quotient is the float nearest the exact value
whether or not the pair is in lowest terms: the bytes are those of a renderer
that computes every coordinate as a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .geometry import PlanarArrangement

__all__ = ["export_svg"]

_CANVAS_W = 800
_CANVAS_H = 600
_MARGIN = 40


def _viewport_from_points(points):
    xs = [Fraction(p[0]) for p in points]
    ys = [Fraction(p[1]) for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    pad_x = max((xmax - xmin) / 20, Fraction(1))
    pad_y = max((ymax - ymin) / 20, Fraction(1))
    return (xmin - pad_x, xmax + pad_x), (ymin - pad_y, ymax + pad_y)


def _grid(lo: Fraction, hi: Fraction):
    """(D, lo*D, hi*D) for the least common denominator D of lo and hi."""
    d = lcm(lo.denominator, hi.denominator)
    return d, lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)


def _clip_line(A, B, C, XL, XH, YL, YH):
    """Endpoints of the integer line A*u + B*v + C = 0 inside the closed box
    [XL, XH] x [YL, YH], as ((U1, V1), (U2, V2), m) meaning the points
    (U1/m, V1/m) <= (U2/m, V2/m); None when the line meets the box in fewer
    than two points.

    m is |A*B|, or |A| or |B| for an axis-parallel line, so every candidate
    on a side of the box is an integer pair over m.  Multiplying by m // B
    (or m // A), which carries the divisor's sign, turns the range test into
    an integer comparison against the bounds times m > 0.
    """
    m = abs(A * B) or abs(A + B)
    ends = []
    if B:
        f, lo, hi = m // B, YL * m, YH * m
        for u in (XL, XH):
            v = -(C + A * u) * f
            if lo <= v <= hi:
                ends.append((u * m, v))
    if A:
        f, lo, hi = m // A, XL * m, XH * m
        for v in (YL, YH):
            u = -(C + B * v) * f
            if lo <= u <= hi:
                ends.append((u, v * m))
    ends = set(ends)
    if len(ends) < 2:
        return None
    return min(ends), max(ends), m


def export_svg(planar: PlanarArrangement) -> str:
    """Render points as circles and clipped lines as segments.

    The viewport is the bounding box of the points padded by five percent
    (at least one unit).  Lines (integer triples) are clipped on the
    viewport's integer grid, and each pixel coordinate is written as one
    int/int division formatted to three decimals, which gives the same
    bytes as exact Fraction arithmetic.  Raises ValueError for an empty
    arrangement.
    """
    if not planar.points:
        raise ValueError("cannot render an empty arrangement")
    xspan, yspan = _viewport_from_points(planar.points)
    dx, XL, XH = _grid(*xspan)
    dy, YL, YH = _grid(*yspan)
    wx, wy = XH - XL, YH - YL
    scale_x, scale_y = _CANVAS_W - 2 * _MARGIN, _CANVAS_H - 2 * _MARGIN
    bottom = _CANVAS_H - _MARGIN

    # A grid coordinate u/m lands at pixel _MARGIN + (u/m - XL) * scale_x / wx,
    # and v/m at bottom - (v/m - YL) * scale_y / wy: one numerator over m*w each.
    def px(u, m):
        return f"{(_MARGIN * m * wx + (u - XL * m) * scale_x) / (m * wx):.3f}"

    def py(v, m):
        return f"{(bottom * m * wy - (v - YL * m) * scale_y) / (m * wy):.3f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS_W}" height="{_CANVAS_H}" '
        f'viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
    ]
    for a, b, c in planar.lines:
        seg = _clip_line(a * dy, b * dx, c * dx * dy, XL, XH, YL, YH)
        if seg is None:
            continue
        (u1, v1), (u2, v2), m = seg
        out.append(
            f'<line x1="{px(u1, m)}" y1="{py(v1, m)}" x2="{px(u2, m)}" y2="{py(v2, m)}" '
            f'stroke="#3465a4" stroke-width="0.6"/>'
        )
    for x, y in planar.points:
        # x = p/q sits at grid u = p*dx over q; ints carry denominator 1.
        cx = px(x.numerator * dx, x.denominator)
        cy = py(y.numerator * dy, y.denominator)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="#cc0000"/>')
    caption = (
        f"points={len(planar.points)} lines={len(planar.lines)} "
        f"incidences={len(planar.incidences)}"
    )
    out.append(
        f'<text x="{_MARGIN}" y="{_CANVAS_H - 12}" '
        f'font-family="monospace" font-size="14">{caption}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
