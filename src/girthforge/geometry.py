"""Exact lines in R^k, incidence tests, and verified projection to the plane.

Lines are stored in a canonical direction + key form so that equality is
hashing instead of geometry: the direction is primitive with a positive
leading entry, and the key is the cross key of any point of the line against
that direction (see _cross_key), which is the same for every point of the
line.  The key decides identity, incidence and projection alike; for a line
through an integer point it is all integers.  All arithmetic is integer or
rational; there is no epsilon anywhere.  A batch of lines is one LineGroups
value, grouped by direction, so the distinctness check, the incidence walk
and the projection read whole key columns; single AffineLineKD values are
built only on demand.

The projection to the plane is a random integer linear map that is checked,
not trusted: points must stay distinct, lines must stay distinct and
nondegenerate, and the planar incidence relation must match the
k-dimensional one pair for pair.  On failure the seed advances and the map
is resampled.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd
from operator import add, floordiv, mul
from typing import NamedTuple

from .families import family_named, substitute
from .graphs import BipartiteGraph

__all__ = [
    "AffineLineKD",
    "LineGroups",
    "ProjectionMap",
    "PlanarArrangement",
    "ProjectionError",
    "lines_from_params",
    "certify_lines_distinct",
    "incidence_set_kd",
    "sample_projection",
    "project_with_map",
    "project_generic",
]

# Seeded maps project_generic tries before it asks for a larger coefficient bound.
_PROJECTION_RETRIES = 8


class ProjectionError(RuntimeError):
    """A sampled projection failed verification, or retries ran out."""


def _as_exact(x):
    """Normalize to int when integral so mixed tuples hash and compare cleanly."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


class AffineLineKD(NamedTuple("AffineLineKD", [("direction", tuple[int, ...]), ("key", tuple)])):
    """A line in R^k in canonical form.

    direction is a primitive integer vector (gcd 1) whose first nonzero
    entry, at the pivot j, is positive; key is _cross_key(x, direction, j)
    for any point x of the line, so key[j] == 0.  Two AffineLineKD values
    are equal exactly when they describe the same line, and a point lies on
    the line exactly when its cross key equals key.

    The value is the tuple (direction, key), so hashing and equality are
    the tuple's own.  The constructor, and so _make and _replace, checks the
    whole form; lines_from_params checks each direction once for a batch.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, direction, key):
        if len(key) != len(direction):
            raise ValueError("key and direction must have equal length")
        if key[_check_direction(direction)] != 0:
            raise ValueError("key must have a zero pivot coordinate")
        return tuple.__new__(cls, (direction, key))

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def pivot(self) -> int:
        return _pivot(self.direction)


def _pivot(direction) -> int:
    """The index of the first nonzero entry of a direction."""
    for idx, d in enumerate(direction):
        if d:
            return idx
    raise ValueError("direction must be nonzero")


def _check_direction(direction) -> int:
    """The pivot of a canonical direction; ValueError unless the direction
    is nonzero and primitive with a positive pivot entry."""
    pivot = _pivot(direction)
    if direction[pivot] < 0:
        raise ValueError("leading direction entry must be positive")
    if gcd(*direction) != 1:
        raise ValueError("direction must be primitive")
    return pivot


def _canonical_direction(direction) -> tuple[tuple[int, ...], int]:
    """The primitive multiple of a nonzero integer direction whose first
    nonzero entry is positive, and the index of that entry (the pivot)."""
    pivot = _pivot(direction)
    g = gcd(*direction)
    if direction[pivot] < 0:
        g = -g
    return tuple(d // g for d in direction), pivot


class LineGroups:
    """Lines grouped by direction: groups holds (direction, pivot, keys,
    indices) per direction in the order of its first line, with keys the k
    key columns and indices the increasing line indices.  len() counts the
    lines; iterating yields AffineLineKD values in line order, built on demand.
    """

    def __init__(self, groups, count):
        self.groups, self.count = groups, count

    @classmethod
    def of(cls, lines) -> LineGroups:
        """A LineGroups as it is; any other sequence of lines grouped one line at a time."""
        if isinstance(lines, cls):
            return lines
        by_direction = defaultdict(lambda: ([], []))
        for lj, (direction, key) in enumerate(lines):
            by_direction[direction][0].append(key)
            by_direction[direction][1].append(lj)
        groups = [(d, _pivot(d), list(zip(*keys)), ljs) for d, (keys, ljs) in by_direction.items()]
        return cls(groups, len(lines))

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        lines = [None] * self.count
        for direction, _, keys, indices in self.groups:
            for lj, key in zip(indices, zip(*keys)):
                lines[lj] = tuple.__new__(AffineLineKD, (direction, key))
        return iter(lines)


def lines_from_params(family: str, params, k: int) -> LineGroups:
    """The solution lines of a family's equations, one per parameter tuple.

    Parametrized by the family's free coordinate: substitution from v makes
    every other coordinate affine in it, so key and direction entries are
    integers.  The work runs over whole columns, one per coordinate:
    substitution gives const and slope as columns over all lines, the lines
    are grouped by slope, and each distinct slope is canonicalized and its
    direction checked once, since a box of line parameters yields few
    directions.  Each group's keys are formed column by column, and its
    pivot column is checked to be zero.  Every slope is 1 at the free
    coordinate, so the slope groups are the direction groups.

    When the pivot is the free coordinate f, the key is const itself:
    substitution leaves const[f] = 0 and slope[f] = 1, so the slope is
    already primitive with a positive pivot entry, d = slope, d_f = 1, and
    the cross key const_i * d_f - const_f * d_i is const_i.  Every lu line
    has its pivot at f = 0.
    """
    free, _ = plan = family_named(family).plan(k)
    params = tuple(params)
    if set(map(len, params)) - {k}:
        v = next(v for v in params if len(v) != k)
        raise ValueError(f"parameter tuple has length {len(v)}, expected {k}")
    if not params:
        return LineGroups([], 0)
    const, slope = substitute(plan, list(zip(*params)), from_point=False)
    by_slope = defaultdict(list)
    for lj, s in enumerate(zip(*slope)):
        by_slope[s].append(lj)
    groups = []
    for s, indices in by_slope.items():
        direction, _ = _canonical_direction(s)
        pivot = _check_direction(direction)
        keys = [[col[lj] for lj in indices] for col in const]
        if pivot != free:  # the cross key, column by column
            dj, xj = direction[pivot], keys[pivot]
            keys = [[x * dj - y * d for x, y in zip(col, xj)] for col, d in zip(keys, direction)]
        if any(keys[pivot]):
            raise ValueError("key must have a zero pivot coordinate")
        groups.append((direction, pivot, keys, indices))
    return LineGroups(groups, len(params))


def certify_lines_distinct(lines) -> tuple[bool, tuple[int, int] | None]:
    """All-distinct check, key by key within each direction group; reports
    the first collision (i, j), i < j, the one with the smallest j."""
    first = None
    for _, _, keys, indices in LineGroups.of(lines).groups:
        if len(set(zip(*keys))) < len(indices):
            seen, rows = {}, zip(indices, zip(*keys))
            pair = next((seen[key], lj) for lj, key in rows if seen.setdefault(key, lj) != lj)
            if first is None or pair[1] < first[1]:
                first = pair
    return first is None, first


def _cross_key(x, direction, pivot) -> tuple:
    """(x_i * d_pivot - x_pivot * d_i)_i: equal for two points exactly when
    they differ by a multiple of the direction d."""
    xj, dj = x[pivot], direction[pivot]
    return tuple(xi * dj - xj * di for xi, di in zip(x, direction))


def incidence_set_kd(points, lines) -> set[tuple[int, int]]:
    """All (point index, line index) pairs with the point on the line.

    Output-sensitive and exact.  Each direction group d (see LineGroups)
    takes the cheaper of two exact methods (see _incidence_plan):

    - probe: a point lies on a line of direction d exactly when its cross
      key (see _cross_key) equals the line's key, so one hash lookup per
      point finds every line of the group through it;
    - walk: when d_i = +-1 for some i and every point and key is integer,
      each line is walked over the points' extent [lo_i, hi_i] in
      coordinate i, one lookup of a candidate point per step.

    The walk is exact.  Take any integer point x on the line.  Then
    b = x - x_i * d_i * d is the line's integer point with b_i = 0.  It is
    b_m = (key_m + b_j * d_m) / d_j with b_j = -key_i * d_i, where j is the
    pivot, so when one of these divisions is not exact the line has no
    integer point.  Every integer point of the line is b + t * d_i * d with
    t = x_i, so walking t over [lo_i, hi_i] finds each of them exactly once.
    Points are looked up by value, and a point or line that occurs twice
    keeps both indices.
    """
    out = set()
    at = None
    for (direction, pivot, keys, indices), walk in _incidence_plan(points, LineGroups.of(lines)):
        if walk is None:
            by_key: dict[tuple, list[int]] = {}
            for lj, key in zip(indices, zip(*keys)):
                by_key.setdefault(key, []).append(lj)
            for pi, p in enumerate(points):
                for lj in by_key.get(_cross_key(p, direction, pivot), ()):
                    out.add((pi, lj))
            continue
        if at is None:
            at = {}
            for pi, p in enumerate(points):
                at.setdefault(tuple(p), []).append(pi)
        axis, lo, hi = walk
        di = direction[axis]
        bases, on_lines = _integer_bases(keys, indices, direction, axis, pivot)
        for t in range(lo, hi + 1):
            # b + t * d_i * d has coordinate axis equal to t, since b_axis = 0.
            shifted = [map(add, col, repeat(t * di * d)) if d else col for col, d in zip(bases, direction)]
            hits = list(map(at.get, zip(*shifted)))
            for hit, lj in compress(zip(hits, on_lines), hits):
                out.update(zip(hit, repeat(lj)))
    return out


def _incidence_plan(points, lines: LineGroups):
    """Yield (group, walk) per direction group of the lines.

    walk is (i, lo_i, hi_i) when the group's lines are cheaper to walk along
    coordinate i over the points' extent [lo_i, hi_i] than to probe with
    every point, and None when the points are probed.  Walking costs
    |lines| * (hi_i - lo_i + 1) lookups over the best i with d_i = +-1, and
    probing costs one lookup per point; the costs are compared as integers,
    so a huge extent only makes the walk expensive.  A point or key with a
    coordinate that is not an int rules the walk out.  Raises ValueError
    for a point whose dimension differs from a line's.
    """
    dims = {len(p) for p in points}
    integral = bool(points) and {int}.issuperset(map(type, chain.from_iterable(points)))
    spans = [(min(col), max(col)) for col in zip(*points)] if integral else None
    for direction, pivot, keys, indices in lines.groups:
        dim = len(direction)
        if dims - {dim}:
            pi = next(pi for pi, p in enumerate(points) if len(p) != dim)
            raise ValueError(f"point {pi} has dimension {len(points[pi])}, line has {dim}")
        walk = None
        if spans is not None:
            unit = [i for i, d in enumerate(direction) if d in (1, -1)]
            extent, axis = min(((spans[i][1] - spans[i][0] + 1, i) for i in unit), default=(0, None))
            if (
                axis is not None
                and len(indices) * extent < len(points)
                and {int}.issuperset(map(type, chain.from_iterable(keys)))
            ):
                walk = (axis, *spans[axis])
        yield (direction, pivot, keys, indices), walk


def _integer_bases(keys, indices, direction, axis, pivot):
    """The walk's start points as k columns, and the line index of each.

    keys and indices are one direction group's key columns and line indices.
    Each start is the integer point b with b_axis = 0 on the line (direction,
    key); a line with no integer point is left out.  direction[axis] is +-1.
    """
    if axis == pivot:  # On the pivot axis d_j = 1 and b_j = -key_j = 0, so b is the key.
        return keys, indices
    dj = direction[pivot]
    bj = [-c * direction[axis] for c in keys[axis]]
    columns = [[c + y * d for c, y in zip(col, bj)] if d else col for col, d in zip(keys, direction)]
    if dj != 1:
        keep = [not any(row) for row in zip(*[[c % dj for c in col] for col in columns])]
        columns = [[c // dj for c in compress(col, keep)] for col in columns]
        indices = list(compress(indices, keep))
    return columns, indices


class ProjectionMap(
    NamedTuple("ProjectionMap", [("rows", tuple), ("seed", int | None), ("bound", int | None)])
):
    """Two independent integer rows mapping R^k to the plane."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, rows, seed=None, bound=None):
        r1, r2 = rows
        if len(r1) != len(r2):
            raise ValueError("projection rows must have equal length")
        if not _rows_independent(r1, r2):
            raise ValueError("projection rows must be linearly independent")
        return tuple.__new__(cls, (rows, seed, bound))

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def apply(self, vector) -> tuple:
        r1, r2 = self.rows
        return sum(map(mul, r1, vector)), sum(map(mul, r2, vector))


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


class PlanarArrangement(NamedTuple):
    """Exact planar points, canonical integer line triples, and incidences.

    Each line triple (a, b, c) means a*x + b*y + c = 0 with gcd(a, b, c) = 1,
    (a, b) != (0, 0), and the first nonzero of (a, b) positive.
    """

    points: tuple[tuple, ...]
    lines: tuple[tuple[int, int, int], ...]
    incidences: frozenset

    def to_bipartite_graph(self):
        return BipartiteGraph(len(self.points), len(self.lines), sorted(self.incidences))


def _planar_incidences(points, lines) -> set[tuple[int, int]]:
    """Planar (point, line) incidences, found per exact (a, b) class.

    An int or rational point (x, y) lies on (a, b, c) exactly when
    a*x + b*y == -c.  Distinct canonical triples with equal (a, b) differ
    in c, so within a class each value names one line.  One evaluation per
    (class, point) pair costs O(D * |points| + |lines|) for D classes.
    """
    # Kept apart from incidence_set_kd on purpose.  Rebuilding the planar
    # lines as 2-D AffineLineKD values to share its lookup made `project`
    # slower (CLI wall time, shared 2-vCPU host, Python 3.11.7): lu k=3 n=400
    # from 0.43-0.64 s to 0.62-0.78 s, lu k=5 n=200 from 1.7 s to 2.5-2.9 s.
    # Calling the public incidence_set_kd here would also make every traced
    # `project` report a second k-dimensional incidence pass.
    classes: dict[tuple[int, int], dict[int, int]] = {}
    for lj, (a, b, c) in enumerate(lines):
        classes.setdefault((a, b), {})[-c] = lj
    out = set()
    for (a, b), by_value in classes.items():
        get = by_value.get
        for pi, (x, y) in enumerate(points):
            lj = get(a * x + b * y)
            if lj is not None:
                out.add((pi, lj))
    return out


def project_with_map(points, lines, pmap: ProjectionMap, expected) -> PlanarArrangement:
    """Apply one projection map and verify it exactly.

    Checks, in order: projected points pairwise distinct, no line direction
    in the kernel, projected lines pairwise distinct, and the planar
    incidence set equal to ``expected``, the k-dimensional incidence set of
    the inputs.  Raises ProjectionError on the first violation, and
    ValueError before projecting anything when a point or line has a
    dimension other than the map's.

    A line through key / d_j with direction d maps to the planar line
    a*x + b*y + c = 0 with (a, b) = (dy * d_j, -dx * d_j), where (dx, dy) is
    the image of d, and c = dx * y - dy * x for the image (x, y) of the key;
    the scale d_j > 0 makes an integer key give an integer triple.  (a, b),
    its sign and g0 = gcd(a, b) depend only on d and are computed once per
    direction group, and so is the covector w = dx * r2 - dy * r1 of the
    map's rows r1, r2, taken after the sign turn: c = w . key is formed over
    the group's key columns, for int and Fraction keys alike.  With c = n / m
    in lowest terms the canonical triple is (a * m, b * m, n) / gcd(g0 * m, n),
    and gcd(g0 * m, n) = gcd(g0, n) because m and n are coprime.
    """
    lines = LineGroups.of(lines)
    other = ({len(p) for p in points} | {len(group[0]) for group in lines.groups}) - {pmap.dim}
    if other:
        raise ValueError(
            f"the map has dimension {pmap.dim}, the arrangement has dimension {min(other)}"
        )
    flat_points = [pmap.apply(p) for p in points]
    if len(set(flat_points)) != len(flat_points):
        raise ProjectionError("projected points collide")
    r1, r2 = pmap.rows
    flat_lines = [None] * len(lines)
    for direction, pivot, keys, indices in lines.groups:
        dx, dy = pmap.apply(direction)
        if dx == 0 and dy == 0:
            raise ProjectionError(f"line {indices[0]} degenerates under the map")
        # Canonical sign: the first nonzero of (a, b) = (dy, -dx) * d_j > 0.
        if (dy or -dx) < 0:
            dx, dy = -dx, -dy
        dj = direction[pivot]
        a, b = dy * dj, -dx * dj
        c = [0] * len(indices)
        for i, (p, q, col) in enumerate(zip(r1, r2, keys)):
            w = dx * q - dy * p
            if w and i != pivot:  # the key is zero at the pivot
                c = [x + w * y for x, y in zip(c, col)]
        if {int}.issuperset(map(type, c)):
            a_col, b_col = repeat(a), repeat(b)
        else:  # c = n / m: scale a and b by m
            m = [x.denominator for x in c]
            c = [x.numerator for x in c]
            a_col, b_col = map(mul, repeat(a), m), map(mul, repeat(b), m)
        g = list(map(gcd, repeat(gcd(a, b)), c))
        triples = zip(map(floordiv, a_col, g), map(floordiv, b_col, g), map(floordiv, c, g))
        for lj, triple in zip(indices, triples):
            flat_lines[lj] = triple
    if len(set(flat_lines)) != len(flat_lines):
        raise ProjectionError("projected lines collide")
    planar = _planar_incidences(flat_points, flat_lines)
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
) -> tuple[PlanarArrangement, ProjectionMap]:
    """Project to the plane with seeded random maps until verification passes.

    Preconditions are enforced: the input points must be pairwise distinct
    and the lines pairwise distinct.  Each failed attempt advances the seed
    by one; when _PROJECTION_RETRIES maps all fail, the coefficient bound is
    too small for the instance and a ProjectionError says so.
    """
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise ValueError("input points must be pairwise distinct")
    lines = LineGroups.of(lines)
    ok, pair = certify_lines_distinct(lines)
    if not ok:
        raise ValueError(f"input lines {pair[0]} and {pair[1]} coincide")
    if not points or not lines:
        raise ValueError("projection needs at least one point and one line")
    dim = len(lines.groups[0][0])
    expected = incidence_set_kd(points, lines)
    last_error = "no attempt made"
    for attempt in range(_PROJECTION_RETRIES):
        pmap = sample_projection(dim, seed + attempt, bound)
        try:
            return project_with_map(points, lines, pmap, expected), pmap
        except ProjectionError as exc:
            last_error = str(exc)
    raise ProjectionError(
        f"no verified projection in {_PROJECTION_RETRIES} attempts from seed {seed} "
        f"(last failure: {last_error}); raise the coefficient bound"
    )
