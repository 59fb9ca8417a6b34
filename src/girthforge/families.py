"""The two graph families as data: one table entry per family.

A family is fixed by its rule for the dimension k, the scales of its
integer coordinate boxes, the window its paper-scale prime is taken from,
and its defining equations.  The equations are a plan: one free coordinate
and an ordered tuple of steps ``(t, a, b)``, each meaning
``v[t] - u[t] = v[a] * u[b]`` for a point u and a line vertex v.  In plan
order every step reads only the free coordinate or a coordinate solved by an
earlier step, from whichever side is held fixed, so :func:`substitute` gives
the whole other side as an affine function of the free coordinate, column by
column for a whole batch; it is the package's one forward substitution.

The plan also fixes the box exponents.  Weight 1 at the free coordinate and
w[t] = w[a] + w[b] at each step make every equation homogeneous; coordinate
t then has exponent w[t] * step with step = 1 / sum(w), so the point box
holds about n points, each on about n**step lines, and the incidence count
grows as n**(1 + step).  Every box end and window end is ``s * n**e``,
floored (ceiled at a lower end), so a family states only scales and
:class:`Family` evaluates them by one rule.

The layered family ``D(k, q)`` has its plan read off a block-structured
coordinate labeling (:func:`lu_labels`); the positional
family ``H_k(p)`` has the relations ``v_j = u_j + u_{j+1} * v_{k-1}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .exactmath import ceil_pow, floor_pow

__all__ = [
    "CoordLabel",
    "Family",
    "FAMILIES",
    "family_named",
    "lu_labels",
    "substitute",
    "plan_holds_mod",
    "box_rank",
]


class CoordLabel(NamedTuple):
    """Label of one coordinate position in a layered vertex tuple.

    kind is 'first' for the leading coordinate, 'pair' for a doubly indexed
    coordinate (indices differ by at most one), or 'primed' for the primed
    diagonal coordinates that exist from layer 2 on.  The primed coordinate
    of layer 1 is identified with the (1, 1) pair and never stored.
    """

    kind: str
    i: int = 0
    j: int = 0


def lu_labels(k: int) -> tuple[CoordLabel, ...]:
    """The first k coordinate labels in storage order, block by block.

    The first coordinate, then the pairs (1,1), (1,2), (2,1), (2,2), then
    one block of four for each layer i >= 2: primed(i), (i,i+1), (i+1,i),
    (i+1,i+1).
    """
    labels = [CoordLabel("first")]
    labels += (CoordLabel("pair", i, j) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    i = 2
    while len(labels) < k:
        labels += [CoordLabel("primed", i, i), CoordLabel("pair", i, i + 1),
                   CoordLabel("pair", i + 1, i), CoordLabel("pair", i + 1, i + 1)]
        i += 1
    return tuple(labels[:k])


# (free position, steps (t, a, b) meaning v[t] - u[t] = v[a] * u[b])
Plan = tuple[int, tuple[tuple[int, int, int], ...]]


@lru_cache(maxsize=None)
def _lu_plan(k: int) -> Plan:
    """The layered equations read off the coordinate labels.

    In the paper's notation, with l for the line vertex v and p for the
    point u, the coordinate at each label other than the first satisfies one
    of four kinds of equation; p_{0,1} stands for p_1 and p'_11 for p_11.
    """
    labels = lu_labels(k)
    pos = {(lab.kind, lab.i, lab.j): t for t, lab in enumerate(labels)}
    pos["pair", 0, 1] = pos["first", 0, 0]
    pos["primed", 1, 1] = pos["pair", 1, 1]
    steps = []
    for t, lab in enumerate(labels[1:], start=1):
        i, j = lab.i, lab.j
        if lab.kind == "primed" and i == j:  # l'_ii - p'_ii = l_{i,i-1} * p_1
            a, b = pos["pair", i, i - 1], 0
        elif lab.kind == "pair" and j == i + 1:  # l_{i,i+1} - p_{i,i+1} = l_ii * p_1
            a, b = pos["pair", i, i], 0
        elif lab.kind == "pair" and i == j + 1:  # l_{j+1,j} - p_{j+1,j} = l_1 * p'_jj
            a, b = 0, pos["primed", j, j]
        elif lab.kind == "pair" and i == j:  # l_ii - p_ii = l_1 * p_{i-1,i}
            a, b = 0, pos["pair", i - 1, i]
        else:
            raise AssertionError(f"no equation for the label {lab}")
        if a >= t or b >= t:
            raise AssertionError("equation must only read earlier positions")
        steps.append((t, a, b))
    return 0, tuple(steps)


@lru_cache(maxsize=None)
def _wenger_plan(k: int) -> Plan:
    return k - 1, tuple((j, k - 1, j + 1) for j in range(k - 2, -1, -1))


# One coordinate's scales: (point, line low, line high).
Scales = tuple[int, int, int]


def _lu_box(k: int) -> tuple[Scales, ...]:
    """Points in [0, n**e], lines in [0, s n**e]: s = 2 at the free coordinate, 1 + s[a] at each step.

    For an in-box point u and a free line coordinate in [0, 2 n**e],
    forward substitution gives v[t] = u[t] + v[a] * u[b] at most
    (1 + s[a]) n**e[t], by induction over the steps, so every partner of an
    in-box point lands in the line box.
    """
    free, steps = _lu_plan(k)
    scales = [0] * k
    scales[free] = 2
    for t, a, _ in steps:
        scales[t] = 1 + scales[a]
    return tuple((1, 0, s) for s in scales)


def _wenger_box(k: int) -> tuple[Scales, ...]:
    """Coordinate i (0-based), of weight k - i, has scale s = 4**(k-i-1).

    Points lie in [0, s n**e], lines in [s/2 n**e, s n**e]; the last line
    coordinate, the free one, instead lies in [n**e, 2 n**e].
    """
    scales = [4 ** (k - i - 1) for i in range(k - 1)]
    return tuple((s, s // 2, s) for s in scales) + ((1, 1, 2),)


class Family(NamedTuple):
    """Everything that tells one family from another; FAMILIES holds one per family."""

    name: str
    k_rule: str
    k_ok: Callable[[int], bool]
    # k -> one Scales per coordinate position, evaluated by ranges().
    box: Callable[[int], tuple[Scales, ...]]
    # k -> (e, s): the paper takes its prime from the open window (s n**e, 2 s n**e).
    window: Callable[[int], tuple[Fraction, int]]
    # k -> the equations as a Plan, cached per k.
    plan: Callable[[int], Plan]

    def check_k(self, k: int) -> None:
        """ValueError unless k satisfies the family's rule."""
        if not self.k_ok(k):
            raise ValueError(f"the {self.name} family requires {self.k_rule}, got k={k}")

    def weights(self, k: int) -> list[int]:
        """Box exponents in units of the step: 1 at the free coordinate, w[a] + w[b] at each step."""
        free, steps = self.plan(k)
        weights = [0] * k
        weights[free] = 1
        for t, a, b in steps:
            weights[t] = weights[a] + weights[b]
        return weights

    def exponent_step(self, k: int) -> Fraction:
        """The unit of the box exponents, 1 / sum(weights): the point box then holds about n points."""
        return Fraction(1, sum(self.weights(k)))

    def exponent(self, k: int) -> Fraction:
        """Incidence-count exponent 1 + step achieved at parameter k."""
        self.check_k(k)
        return 1 + self.exponent_step(k)

    def ranges(self, k: int, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Closed [lo, hi] ranges of every point coordinate and every line coordinate.

        With e = weight * step, a point coordinate lies in [0, point * n**e]
        and a line coordinate in [low * n**e, high * n**e] (0 below when low
        is 0), upper ends floored and lower ends ceiled.
        """
        step = self.exponent_step(k)
        points, lines = [], []
        for weight, (point, low, high) in zip(self.weights(k), self.box(k)):
            e = weight * step
            points.append((0, floor_pow(n, e, point)))
            lines.append((ceil_pow(n, e, low) if low else 0, floor_pow(n, e, high)))
        return points, lines

    def prime_window(self, k: int, n: int) -> tuple[int, int]:
        """Exact ends of the open window (s n**e, 2 s n**e) the paper takes its prime from."""
        e, s = self.window(k)
        return floor_pow(n, e, s), ceil_pow(n, e, 2 * s)


FAMILIES = {
    fam.name: fam
    for fam in (
        Family(
            name="lu",
            k_rule="odd k >= 3",
            k_ok=lambda k: k >= 3 and k % 2 == 1,
            box=_lu_box,
            window=lambda k: (Fraction(8, k), 4),
            plan=_lu_plan,
        ),
        Family(
            name="wenger",
            k_rule="k in {2, 3, 5}",
            k_ok=lambda k: k in (2, 3, 5),
            box=_wenger_box,
            window=lambda k: (Fraction(2, k), 4**k),
            plan=_wenger_plan,
        ),
    )
}


def family_named(name: str) -> Family:
    """The table entry of a family; ValueError for an unknown name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def substitute(plan: Plan, columns, from_point: bool) -> tuple[list, list]:
    """Solve the equations for the partners of a batch of fixed vertices, over the integers.

    columns holds the fixed side, points u when from_point else line
    vertices v, as k coordinate columns with one entry per vertex.  Returns
    ``(const, slope)``, k columns each: the partners of vertex r are exactly
    the tuples ``const[i][r] + slope[i][r] * x``, x the partner's free
    coordinate.  Returned columns may be given ones; mutate neither.
    """
    free, steps = plan
    size = len(columns[free])
    const, slope = [None] * len(columns), [None] * len(columns)
    const[free], slope[free] = [0] * size, [1] * size
    if from_point:  # v[t] = u[t] + v[a] * u[b]
        factors = [(a, columns[b]) for _, a, b in steps]
    else:  # u[t] = v[t] + u[b] * -v[a]
        negated = {a: [-y for y in columns[a]] for _, a, _ in steps}
        factors = [(b, negated[a]) for _, a, b in steps]
    for (t, _, _), (s, y) in zip(steps, factors):  # partner[t] = fixed[t] + partner[s] * y
        if s == free:  # const 0 and slope 1 there
            const[t], slope[t] = columns[t], y
        else:
            const[t] = [x + c * z for x, c, z in zip(columns[t], const[s], y)]
            slope[t] = [m * z for m, z in zip(slope[s], y)]
    return const, slope


def plan_holds_mod(plan: Plan, u, v, q: int) -> bool:
    """Whether every equation of the plan holds mod q for point u and line vertex v."""
    return all((v[t] - u[t] - v[a] * u[b]) % q == 0 for t, a, b in plan[1])


def box_rank(vertex, ranges) -> int | None:
    """Index of vertex in the box of closed ranges [(lo, hi), ...], or None outside it.

    The box is enumerated lexicographically, the order of itertools.product,
    so the index is the mixed-radix number with digit c - lo in base
    hi - lo + 1 at each coordinate.
    """
    rank = 0
    for c, (lo, hi) in zip(vertex, ranges):
        if not lo <= c <= hi:
            return None
        rank = rank * (hi - lo + 1) + c - lo
    return rank
