"""The two graph families as data: one table entry per family.

A family is fixed by its rule for the dimension k, its integer coordinate
boxes, its exponent step, the window its paper-scale prime is taken from,
and its defining equations.  The equations are a plan: one free coordinate
and an ordered tuple of steps ``(t, a, b)``, each meaning
``v[t] - u[t] = v[a] * u[b]`` for a point u and a line vertex v.  In plan
order every step reads only the free coordinate or a coordinate solved by an
earlier step, from whichever side is held fixed, so :func:`substitute` gives
the whole other side as an affine function of the free coordinate.

The layered family ``D(q, k)`` uses a block-structured coordinate labeling
(:func:`lu_label`) and its plan is derived from the labels; the positional
family ``H_k(p)`` has the relations ``v_j = u_j + u_{j+1} * v_{k-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .exactmath import ceil_pow, floor_pow

__all__ = [
    "CoordLabel",
    "Family",
    "FAMILIES",
    "family_named",
    "lu_label",
    "lu_labels",
    "lu_equation_plan",
    "lu_point_range",
    "lu_line_range",
    "wenger_point_range",
    "wenger_line_range",
    "substitute",
    "plan_holds_mod",
]


@dataclass(frozen=True)
class CoordLabel:
    """Label of one coordinate position in a layered vertex tuple.

    kind is 'first' for the leading coordinate, 'pair' for a doubly indexed
    coordinate (indices differ by at most one), or 'primed' for the primed
    diagonal coordinates that exist from layer 2 on.  The primed coordinate
    of layer 1 is identified with the (1, 1) pair and never stored.
    """

    kind: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind == "first":
            if self.i or self.j:
                raise ValueError("'first' carries no indices")
        elif self.kind == "pair":
            if self.i < 1 or self.j < 1 or abs(self.i - self.j) > 1:
                raise ValueError(f"invalid pair indices ({self.i}, {self.j})")
        elif self.kind == "primed":
            if self.i < 2:
                raise ValueError("primed coordinates start at layer 2")
            if self.j != self.i:
                raise ValueError("primed coordinates are diagonal")
        else:
            raise ValueError(f"unknown coordinate kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "first":
            return "c1"
        if self.kind == "pair":
            return f"c{self.i},{self.j}"
        return f"c'{self.i},{self.i}"


_FIRST = CoordLabel("first")


def lu_label(pos: int, k: int) -> CoordLabel:
    """Coordinate label at 1-based position pos of a length-k layered tuple.

    Position 1 is the first coordinate; positions 2..5 are the pairs
    (1,1), (1,2), (2,1), (2,2); afterwards blocks of four repeat for each
    layer i >= 2: primed(i), (i,i+1), (i+1,i), (i+1,i+1).
    """
    if not 1 <= pos <= k:
        raise ValueError(f"position {pos} out of range 1..{k}")
    if pos == 1:
        return _FIRST
    if pos <= 5:
        i, j = ((1, 1), (1, 2), (2, 1), (2, 2))[pos - 2]
        return CoordLabel("pair", i, j)
    block, step = divmod(pos - 6, 4)
    layer = block + 2
    if step == 0:
        return CoordLabel("primed", layer, layer)
    if step == 1:
        return CoordLabel("pair", layer, layer + 1)
    if step == 2:
        return CoordLabel("pair", layer + 1, layer)
    return CoordLabel("pair", layer + 1, layer + 1)


@lru_cache(maxsize=None)
def lu_labels(k: int) -> tuple[CoordLabel, ...]:
    """All k coordinate labels in storage order."""
    return tuple(lu_label(pos, k) for pos in range(1, k + 1))


@lru_cache(maxsize=None)
def lu_equation_plan(k: int) -> tuple[tuple[bool, int], ...]:
    """Right-hand-side recipe of the k-1 defining equations, one per position.

    Entry t-2 describes the equation constraining position t (t = 2..k):
    the constrained coordinate of v minus the same coordinate of u equals
    either ``v[0] * u[src]`` (flag True) or ``u[0] * v[src]`` (flag False),
    where src is an earlier 0-based position.  Derived entirely from
    :func:`lu_label`, so no position is ever hard-coded.
    """
    labels = lu_labels(k)
    pos_of = {label: idx for idx, label in enumerate(labels)}
    plan = []
    for t in range(1, k):
        label = labels[t]
        if label.kind == "pair":
            a, b = label.i, label.j
            if a == b:
                src = 0 if a == 1 else pos_of[CoordLabel("pair", a - 1, a)]
                plan.append((True, src))
            elif b == a + 1:
                plan.append((False, pos_of[CoordLabel("pair", a, a)]))
            else:  # a == b + 1, reads the primed diagonal of layer b
                key = CoordLabel("pair", 1, 1) if b == 1 else CoordLabel("primed", b, b)
                plan.append((True, pos_of[key]))
        else:  # primed layer i reads v at pair (i, i-1)
            plan.append((False, pos_of[CoordLabel("pair", label.i, label.i - 1)]))
    for t, (_, src) in enumerate(plan, start=1):
        if src >= t:
            raise AssertionError("equation must only read earlier positions")
    return tuple(plan)


def _lu_step(k: int) -> Fraction:
    return Fraction(4, k * k + 6 * k - 3)


def _wenger_step(k: int) -> Fraction:
    return Fraction(2, k * (k + 1))


def lu_point_range(label: CoordLabel, k: int, n: int) -> tuple[int, int]:
    """Closed coordinate range [0, hi] of a layered point coordinate.

    The first coordinate is bounded by n**step; a pair or primed coordinate
    with indices (i, j) by n**((i+j) * step).
    """
    step = _lu_step(k)
    if label.kind == "first":
        return 0, floor_pow(n, step, 1)
    return 0, floor_pow(n, (label.i + label.j) * step, 1)


def lu_line_range(label: CoordLabel, k: int, n: int) -> tuple[int, int]:
    """Closed coordinate range [0, hi] of a layered line-parameter coordinate.

    Scales are chosen so that forward substitution from any in-box point
    lands inside the box for every choice of the free first coordinate:
    2 for the first coordinate, 3 for pairs (i,i) and (i+1,i), 4 for pairs
    (i,i+1) and for primed coordinates.
    """
    step = _lu_step(k)
    if label.kind == "first":
        return 0, floor_pow(n, step, 2)
    if label.kind == "primed":
        return 0, floor_pow(n, 2 * label.i * step, 4)
    a, b = label.i, label.j
    scale = 4 if b == a + 1 else 3
    return 0, floor_pow(n, (a + b) * step, scale)


def wenger_point_range(i: int, k: int, n: int) -> tuple[int, int]:
    """Closed range [0, hi] of positional point coordinate i (0-based).

    hi = 2**(2(k-i-1)) * n**((k-i) * step), which degenerates to n**step for
    the last coordinate.
    """
    if not 0 <= i <= k - 1:
        raise ValueError(f"coordinate index {i} out of range 0..{k - 1}")
    return 0, floor_pow(n, (k - i) * _wenger_step(k), 2 ** (2 * (k - i - 1)))


def wenger_line_range(i: int, k: int, n: int) -> tuple[int, int]:
    """Closed range [lo, hi] of positional line-parameter coordinate i (0-based).

    The lower end is the exact ceiling of half the upper bound (of n**step
    for the last coordinate); the upper end matches the point box except for
    the last coordinate, where it doubles.
    """
    if not 0 <= i <= k - 1:
        raise ValueError(f"coordinate index {i} out of range 0..{k - 1}")
    step = _wenger_step(k)
    if i == k - 1:
        return ceil_pow(n, step, 1), floor_pow(n, step, 2)
    exponent = (k - i) * step
    return (
        ceil_pow(n, exponent, 2 ** (2 * (k - i - 1) - 1)),
        floor_pow(n, exponent, 2 ** (2 * (k - i - 1))),
    )


# (free position, steps (t, a, b) meaning v[t] - u[t] = v[a] * u[b])
Plan = tuple[int, tuple[tuple[int, int, int], ...]]


@lru_cache(maxsize=None)
def _lu_plan(k: int) -> Plan:
    steps = lu_equation_plan(k)
    return 0, tuple(
        (t, 0, src) if uses_v1 else (t, src, 0) for t, (uses_v1, src) in enumerate(steps, start=1)
    )


@lru_cache(maxsize=None)
def _wenger_plan(k: int) -> Plan:
    return k - 1, tuple((j, k - 1, j + 1) for j in range(k - 2, -1, -1))


@dataclass(frozen=True)
class Family:
    """Everything that tells one family from another; FAMILIES holds one per family."""

    name: str
    k_rule: str
    k_ok: Callable[[int], bool]
    # Coordinate box exponents are multiples of this unit.
    exponent_step: Callable[[int], Fraction]
    # (k, n) -> closed [lo, hi] range of each coordinate position.
    point_ranges: Callable[[int, int], list[tuple[int, int]]]
    line_ranges: Callable[[int, int], list[tuple[int, int]]]
    # (k, n) -> exact ends of the open window the paper takes its prime from.
    prime_window: Callable[[int, int], tuple[int, int]]
    # k -> the equations as a Plan, cached per k.
    plan: Callable[[int], Plan]

    def check_k(self, k: int) -> None:
        """ValueError unless k satisfies the family's rule."""
        if not self.k_ok(k):
            raise ValueError(f"the {self.name} family requires {self.k_rule}, got k={k}")

    def exponent(self, k: int) -> Fraction:
        """Incidence-count exponent 1 + step achieved at parameter k."""
        self.check_k(k)
        return 1 + self.exponent_step(k)


FAMILIES = {
    fam.name: fam
    for fam in (
        Family(
            name="lu",
            k_rule="odd k >= 3",
            k_ok=lambda k: k >= 3 and k % 2 == 1,
            exponent_step=_lu_step,
            point_ranges=lambda k, n: [lu_point_range(lab, k, n) for lab in lu_labels(k)],
            line_ranges=lambda k, n: [lu_line_range(lab, k, n) for lab in lu_labels(k)],
            prime_window=lambda k, n: (
                floor_pow(n, Fraction(8, k), 4),
                ceil_pow(n, Fraction(8, k), 8),
            ),
            plan=_lu_plan,
        ),
        Family(
            name="wenger",
            k_rule="k in {2, 3, 5}",
            k_ok=lambda k: k in (2, 3, 5),
            exponent_step=_wenger_step,
            point_ranges=lambda k, n: [wenger_point_range(i, k, n) for i in range(k)],
            line_ranges=lambda k, n: [wenger_line_range(i, k, n) for i in range(k)],
            prime_window=lambda k, n: (
                floor_pow(n, Fraction(2, k), 2 ** (2 * k)),
                ceil_pow(n, Fraction(2, k), 2 ** (2 * k + 1)),
            ),
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


def substitute(plan: Plan, fixed, from_point: bool) -> tuple[list[int], list[int]]:
    """Solve the equations for the partner of a fixed vertex, over the integers.

    Returns ``(const, slope)``: the partners of ``fixed`` (a point u when
    from_point, else a line vertex v) are exactly the tuples
    ``const[i] + slope[i] * x``, where x is the partner's free coordinate.
    """
    free, steps = plan
    const = [0] * len(fixed)
    slope = [0] * len(fixed)
    slope[free] = 1
    if from_point:  # v[t] = u[t] + v[a] * u[b]
        for t, a, b in steps:
            const[t] = fixed[t] + const[a] * fixed[b]
            slope[t] = slope[a] * fixed[b]
    else:  # u[t] = v[t] - v[a] * u[b]
        for t, a, b in steps:
            const[t] = fixed[t] - fixed[a] * const[b]
            slope[t] = -fixed[a] * slope[b]
    return const, slope


def plan_holds_mod(plan: Plan, u, v, q: int) -> bool:
    """Whether every equation of the plan holds mod q for point u and line vertex v."""
    return all((v[t] - u[t] - v[a] * u[b]) % q == 0 for t, a, b in plan[1])
