"""Exact lines in R^k, incidence tests, and verified projection to the plane.

Lines are stored in a canonical base-point + direction form so that equality
is hashing instead of geometry: the direction is primitive with a positive
leading entry, and the base point is slid along the line until its pivot
coordinate (the direction's first nonzero position) becomes zero.  All
arithmetic is integer or rational; there is no epsilon anywhere.

The projection to the plane is a random integer linear map that is checked,
not trusted: points must stay distinct, lines must stay distinct and
nondegenerate, and the planar incidence relation must match the
k-dimensional one pair for pair.  On failure the seed advances and the map
is resampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .families import family_named, substitute

__all__ = [
    "AffineLineKD",
    "ProjectionMap",
    "PlanarArrangement",
    "ProjectionError",
    "line_from_params",
    "point_on_line",
    "certify_lines_distinct",
    "canonical_planar_line",
    "incidence_set_kd",
    "sample_projection",
    "project_with_map",
    "project_generic",
]


class ProjectionError(RuntimeError):
    """A sampled projection failed verification, or retries ran out."""


def _as_exact(x):
    """Normalize to int when integral so mixed tuples hash and compare cleanly."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


@dataclass(frozen=True)
class AffineLineKD:
    """A line in R^k in canonical form.

    direction is a primitive integer vector (gcd 1) whose first nonzero
    entry is positive; base is the unique point of the line whose pivot
    coordinate is zero.  Two AffineLineKD values are equal exactly when they
    describe the same line.
    """

    dim: int
    base: tuple
    direction: tuple[int, ...]

    def __post_init__(self):
        if len(self.base) != self.dim or len(self.direction) != self.dim:
            raise ValueError("base and direction must have length dim")
        pivot = self.pivot
        if self.direction[pivot] < 0:
            raise ValueError("leading direction entry must be positive")
        if gcd(*self.direction) != 1:
            raise ValueError("direction must be primitive")
        if self.base[pivot] != 0:
            raise ValueError("base must have a zero pivot coordinate")

    @property
    def pivot(self) -> int:
        for idx, d in enumerate(self.direction):
            if d:
                return idx
        raise ValueError("direction must be nonzero")

    @classmethod
    def through(cls, point, direction) -> "AffineLineKD":
        """Canonicalize the line through an exact point with an integer direction."""
        if len(point) != len(direction):
            raise ValueError("point and direction must have equal length")
        if not any(direction):
            raise ValueError("direction must be nonzero")
        g = gcd(*direction)
        direction = tuple(d // g for d in direction)
        pivot = next(idx for idx, d in enumerate(direction) if d)
        if direction[pivot] < 0:
            direction = tuple(-d for d in direction)
        t = Fraction(point[pivot], direction[pivot])
        if t:
            point = tuple(_as_exact(x - t * d) for x, d in zip(point, direction))
        else:
            point = tuple(_as_exact(x) for x in point)
        return cls(len(direction), point, direction)

    def point_at(self, t):
        """The point base + t * direction."""
        return tuple(_as_exact(b + t * d) for b, d in zip(self.base, self.direction))


def point_on_line(point, line: AffineLineKD) -> bool:
    """Exact membership test, decided by cross-multiplication (no division)."""
    if len(point) != line.dim:
        raise ValueError(f"point has dimension {len(point)}, line has {line.dim}")
    base, direction = line.base, line.direction
    j = line.pivot
    dj = direction[j]
    tj = point[j] - base[j]
    for p, b, d in zip(point, base, direction):
        if (p - b) * dj != tj * d:
            return False
    return True


def line_from_params(family: str, v, k: int) -> AffineLineKD:
    """The solution line of a family's equations for line parameters v.

    Parametrized by the family's free coordinate: substitution from v makes
    every other coordinate affine in it, so base and direction entries are
    integers.
    """
    if len(v) != k:
        raise ValueError(f"parameter tuple has length {len(v)}, expected {k}")
    const, slope = substitute(family_named(family).plan(k), v, from_point=False)
    return AffineLineKD.through(tuple(const), tuple(slope))


def certify_lines_distinct(lines) -> tuple[bool, tuple[int, int] | None]:
    """All-distinct check over canonical forms; reports the first collision."""
    seen: dict[AffineLineKD, int] = {}
    for idx, line in enumerate(lines):
        if line in seen:
            return False, (seen[line], idx)
        seen[line] = idx
    return True, None


def incidence_set_kd(points, lines) -> set[tuple[int, int]]:
    """All (point index, line index) pairs with the point on the line.

    Plain O(|points| * |lines|) evaluation of the exact membership test;
    this is the straight-line definition the faster construction paths are
    checked against.
    """
    out = set()
    for lj, line in enumerate(lines):
        base, direction = line.base, line.direction
        dim = line.dim
        j = line.pivot
        dj = direction[j]
        bj = base[j]
        for pi, p in enumerate(points):
            if len(p) != dim:
                raise ValueError(f"point {pi} has dimension {len(p)}, line has {dim}")
            tj = p[j] - bj
            for x, b, d in zip(p, base, direction):
                if (x - b) * dj != tj * d:
                    break
            else:
                out.add((pi, lj))
    return out


@dataclass(frozen=True)
class ProjectionMap:
    """Two independent integer rows mapping R^k to the plane."""

    rows: tuple[tuple[int, ...], tuple[int, ...]]
    seed: int | None = None
    bound: int | None = None

    def __post_init__(self):
        r1, r2 = self.rows
        if len(r1) != len(r2):
            raise ValueError("projection rows must have equal length")
        if not _rows_independent(r1, r2):
            raise ValueError("projection rows must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def apply(self, vector) -> tuple:
        r1, r2 = self.rows
        x = sum(a * c for a, c in zip(r1, vector))
        y = sum(a * c for a, c in zip(r2, vector))
        return _as_exact(x), _as_exact(y)


def _rows_independent(r1, r2) -> bool:
    for a in range(len(r1)):
        for b in range(a + 1, len(r1)):
            if r1[a] * r2[b] != r1[b] * r2[a]:
                return True
    return False


def sample_projection(dim: int, seed: int, bound: int = 1 << 16) -> ProjectionMap:
    """Seeded uniform rows from {0..bound-1}^dim, resampled until independent."""
    if dim < 2:
        raise ValueError("projection needs dimension >= 2")
    if bound < 2:
        raise ValueError("coefficient bound must be >= 2")
    rng = random.Random(seed)
    while True:
        r1 = tuple(rng.randrange(bound) for _ in range(dim))
        r2 = tuple(rng.randrange(bound) for _ in range(dim))
        if _rows_independent(r1, r2):
            return ProjectionMap((r1, r2), seed=seed, bound=bound)


@dataclass(frozen=True)
class PlanarArrangement:
    """Exact planar points, canonical integer line triples, and incidences.

    Each line triple (a, b, c) means a*x + b*y + c = 0 with gcd(a, b, c) = 1,
    (a, b) != (0, 0), and the first nonzero of (a, b) positive.
    """

    points: tuple[tuple, ...]
    lines: tuple[tuple[int, int, int], ...]
    incidences: frozenset

    def to_bipartite_graph(self):
        from .graphs import BipartiteGraph

        return BipartiteGraph(len(self.points), len(self.lines), sorted(self.incidences))


def canonical_planar_line(a, b, c) -> tuple[int, int, int]:
    """Scale an exact (a, b, c) to the canonical integer representative."""
    if a == 0 and b == 0:
        raise ValueError("(a, b) must not both be zero")
    parts = [Fraction(x) for x in (a, b, c)]
    mult = 1
    for f in parts:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in parts]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = ints[0] if ints[0] else ints[1]
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _project_line(line: AffineLineKD, pmap: ProjectionMap) -> tuple[int, int, int] | None:
    """Planar canonical triple of a projected line, or None when it degenerates."""
    dx, dy = pmap.apply(line.direction)
    if dx == 0 and dy == 0:
        return None
    x0, y0 = pmap.apply(line.base)
    a, b = dy, -dx
    c = -(a * x0 + b * y0)
    return canonical_planar_line(a, b, c)


def project_with_map(points, lines, pmap: ProjectionMap, expected=None) -> PlanarArrangement:
    """Apply one projection map and verify it exactly.

    Checks, in order: projected points pairwise distinct, no line direction
    in the kernel, projected lines pairwise distinct, and the planar
    incidence set equal to the k-dimensional one (``expected`` may supply
    the latter to avoid recomputation; it must be the incidence set of the
    inputs).  Raises ProjectionError on the first violation.
    """
    flat_points = [pmap.apply(p) for p in points]
    if len(set(flat_points)) != len(flat_points):
        raise ProjectionError("projected points collide")
    flat_lines = []
    for idx, line in enumerate(lines):
        triple = _project_line(line, pmap)
        if triple is None:
            raise ProjectionError(f"line {idx} degenerates under the map")
        flat_lines.append(triple)
    if len(set(flat_lines)) != len(flat_lines):
        raise ProjectionError("projected lines collide")
    if expected is None:
        expected = incidence_set_kd(points, lines)
    planar = set()
    for lj, (a, b, c) in enumerate(flat_lines):
        for pi, (x, y) in enumerate(flat_points):
            if a * x + b * y + c == 0:
                planar.add((pi, lj))
    if planar != expected:
        gained = len(planar - expected)
        lost = len(expected - planar)
        raise ProjectionError(f"incidences changed: +{gained} / -{lost}")
    return PlanarArrangement(tuple(flat_points), tuple(flat_lines), frozenset(planar))


def project_generic(
    points,
    lines,
    seed: int = 1,
    bound: int = 1 << 16,
    max_retries: int = 8,
) -> tuple[PlanarArrangement, ProjectionMap]:
    """Project to the plane with seeded random maps until verification passes.

    Preconditions are enforced: the input points must be pairwise distinct
    and the lines pairwise distinct.  Each failed attempt advances the seed
    by one; when max_retries maps all fail, the coefficient bound is too
    small for the instance and a ProjectionError says so.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise ValueError("input points must be pairwise distinct")
    ok, pair = certify_lines_distinct(lines)
    if not ok:
        raise ValueError(f"input lines {pair[0]} and {pair[1]} coincide")
    if not points or not lines:
        raise ValueError("projection needs at least one point and one line")
    dim = lines[0].dim
    expected = incidence_set_kd(points, lines)
    last_error = "no attempt made"
    for attempt in range(max_retries):
        pmap = sample_projection(dim, seed + attempt, bound)
        try:
            return project_with_map(points, lines, pmap, expected), pmap
        except ProjectionError as exc:
            last_error = str(exc)
    raise ProjectionError(
        f"no verified projection in {max_retries} attempts from seed {seed} "
        f"(last failure: {last_error}); raise the coefficient bound"
    )
