"""Static SVG rendering of planar arrangements.

Output is deterministic: fixed canvas, fixed decimal formatting, elements in
input order, so the same arrangement always produces identical bytes.  Lines
are clipped to the viewport with exact rational arithmetic before anything
is converted for display.
"""

from __future__ import annotations

from fractions import Fraction

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


def _clip_line(a, b, c, xspan, yspan):
    """Endpoints of a*x + b*y + c = 0 inside the closed box, or None."""
    (xmin, xmax), (ymin, ymax) = xspan, yspan
    candidates = []
    if b != 0:
        for x in (xmin, xmax):
            y = Fraction(-(c + a * x), b)
            if ymin <= y <= ymax:
                candidates.append((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = Fraction(-(c + b * y), a)
            if xmin <= x <= xmax:
                candidates.append((x, y))
    distinct = sorted(set(candidates))
    if len(distinct) < 2:
        return None
    return distinct[0], distinct[-1]


def export_svg(planar: PlanarArrangement) -> str:
    """Render points as circles and clipped lines as segments.

    The viewport is the bounding box of the points padded by five percent
    (at least one unit).  Raises ValueError for an empty arrangement.
    """
    if not planar.points:
        raise ValueError("cannot render an empty arrangement")
    xspan, yspan = _viewport_from_points(planar.points)

    sx = Fraction(_CANVAS_W - 2 * _MARGIN, 1) / (xspan[1] - xspan[0])
    sy = Fraction(_CANVAS_H - 2 * _MARGIN, 1) / (yspan[1] - yspan[0])

    def to_px(pt):
        px = _MARGIN + (Fraction(pt[0]) - xspan[0]) * sx
        py = _CANVAS_H - _MARGIN - (Fraction(pt[1]) - yspan[0]) * sy
        return f"{float(px):.3f}", f"{float(py):.3f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS_W}" height="{_CANVAS_H}" '
        f'viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
    ]
    for a, b, c in planar.lines:
        seg = _clip_line(a, b, c, xspan, yspan)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        px1, py1 = to_px((x1, y1))
        px2, py2 = to_px((x2, y2))
        out.append(
            f'<line x1="{px1}" y1="{py1}" x2="{px2}" y2="{py2}" '
            f'stroke="#3465a4" stroke-width="0.6"/>'
        )
    for pt in planar.points:
        px, py = to_px(pt)
        out.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="#cc0000"/>')
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
