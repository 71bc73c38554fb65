"""Trusted reference filters derived from a feasibility checker.

The four consistency levels form a 2x2 table. Supports come from the
actual domains or from the bound intervals, and filtering removes every
unsupported value or only unsupported bounds:

* arc (GAC): domain supports, every value.
* bound-D: domain supports, bounds only (holes respected).
* bound-Z: interval supports, bounds only; interior values are kept.
* range: interval supports, every value.

All four work by explicit enumeration guarded by a tuple cap, so a "pass"
can never hide an unexhausted search. Each value gets its own early-exit
support search, and a search over more than `cap` tuples raises
EnumerationCapExceeded. They are oracles for small instances, not
production propagators.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from typing import Optional, Sequence

from .checkers import Checker
from .domains import (
    INCONSISTENT,
    Assignment,
    ContractViolationError,
    Domain,
    Filter,
    Filtered,
    FilterOutcome,
    Instance,
)

DEFAULT_CAP = 1_000_000


class EnumerationCapExceeded(Exception):
    """A single enumeration would visit more tuples than the configured cap."""


class ConsistencyLevel(enum.Enum):
    ARC = "arc"
    BOUND_Z = "boundz"
    BOUND_D = "boundd"
    RANGE = "range"


def _check_arity(checker: Checker, inst: Instance) -> None:
    if checker.arity != inst.arity:
        raise ContractViolationError(
            f"checker arity {checker.arity} != instance arity {inst.arity}"
        )


def solutions(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> list[Assignment]:
    """All accepted members of the Cartesian product, in lexicographic order."""
    _check_arity(checker, inst)
    if inst.search_space_size() > cap:
        raise EnumerationCapExceeded(
            f"search space {inst.search_space_size()} exceeds cap {cap}"
        )
    pred = checker.predicate
    return [a for a in itertools.product(*(d.values for d in inst.domains)) if pred(a)]


# Each level as (supports range over bound intervals, only bounds are filtered).
_LEVEL_FLAGS = {
    ConsistencyLevel.ARC: (False, False),
    ConsistencyLevel.BOUND_D: (False, True),
    ConsistencyLevel.BOUND_Z: (True, True),
    ConsistencyLevel.RANGE: (True, False),
}


Witnesses = dict[tuple[int, int], Assignment]


def _starting_at(vs: Sequence[int], x: int) -> Sequence[int]:
    """`vs` rotated to start at `x`; as it is when `x` is absent or first."""
    if x not in vs or vs[0] == x:
        return vs
    k = vs.index(x)
    return [*vs[k:], *vs[:k]]


def _filter(
    checker: Checker,
    inst: Instance,
    level: ConsistencyLevel,
    cap: int,
    witness: Optional[Witnesses] = None,
) -> FilterOutcome:
    """The fixpoint shared by all four levels.

    Each value gets an early-exit support search over the current value
    lists: the kept domain values, or their hulls for interval supports.
    Each list is rotated to start at its value in the last support found
    in this call (phase saving). A support found is recorded in `witness`
    as the witness of each of its components, and a later check reuses it
    while every component is still inside the lists (residual supports,
    Lecoutre & Hemery 2007). A value without support leaves its list at
    once. With domain supports one pass suffices: every support found is a
    solution, and a solution loses none of its values. Interval supports
    can leave the hull when a bound moves, so the interval levels repeat
    the pass until it removes nothing.

    `witness` may hold the supports of earlier calls. It is used only when
    the product of the hulls fits `cap`, so that no search can pass the cap
    and whether a call raises never depends on earlier calls. Neither the
    order nor the witnesses change an outcome: each fixpoint is unique.
    """
    _check_arity(checker, inst)
    intervals, bounds_only = _LEVEL_FLAGS[level]
    kept = [list(d.values) for d in inst.domains]
    if not all(kept):
        return INCONSISTENT
    hull = lambda vs: range(vs[0], vs[-1] + 1)
    # The domain levels search the kept lists themselves, so a removal
    # shows in every later search.
    lists: list[Sequence[int]] = [hull(vs) for vs in kept] if intervals else kept
    pred = checker.predicate
    if witness is None or math.prod(vs[-1] - vs[0] + 1 for vs in kept) > cap:
        witness = {}
    last: Optional[Assignment] = None

    def supported(i: int, v: int) -> bool:
        nonlocal last
        t = witness.get((i, v))
        if t is not None and all(map(operator.contains, lists, t)):
            return True
        space = [*lists[:i], (v,), *lists[i + 1 :]]
        if math.prod(map(len, space)) > cap:
            raise EnumerationCapExceeded(
                f"support search for variable {i} needs more than {cap} tuples"
            )
        if last is not None:
            space = list(map(_starting_at, space, last))
        t = next(filter(pred, itertools.product(*space)), None)
        if t is None:
            return False
        last = t
        for k, x in enumerate(t):
            witness[k, x] = t
        return True

    while True:
        removed = False
        for i, vs in enumerate(kept):
            for reverse in (False, True) if bounds_only else (False,):
                for v in sorted(vs, reverse=reverse):
                    if supported(i, v):
                        if bounds_only:
                            break
                    else:
                        vs.remove(v)
                        if not vs:
                            return INCONSISTENT
                        if intervals:
                            lists[i] = hull(vs)
                        removed = True
        if not (removed and intervals):
            return Filtered(Instance([Domain._from_sorted(vs) for vs in kept]))


def arc_filter(checker: Checker, inst: Instance, cap: int = DEFAULT_CAP) -> FilterOutcome:
    """The unique GAC closure: every value that appears in some solution."""
    return _filter(checker, inst, ConsistencyLevel.ARC, cap)


def bound_z_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Tighten bounds to the extreme values holding an interval support."""
    return _filter(checker, inst, ConsistencyLevel.BOUND_Z, cap)


def bound_d_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Tighten bounds to the extreme values holding a domain support."""
    return _filter(checker, inst, ConsistencyLevel.BOUND_D, cap)


def range_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Drop every value (bounds and interior) lacking an interval support."""
    return _filter(checker, inst, ConsistencyLevel.RANGE, cap)


def make_reference(level: ConsistencyLevel, checker: Checker, cap: int = DEFAULT_CAP):
    """A Filter applying the reference algorithm for `level` to `checker`.

    The filter keeps its witnesses across calls, at most one per (variable,
    value), so a support found on one instance answers for a later one
    wherever it is still valid. Outcomes equal the level function's.
    """
    witness: Witnesses = {}
    return Filter(
        arity=checker.arity,
        apply=lambda inst: _filter(checker, inst, level, cap, witness),
        name=f"{level.value}:{checker.name}",
    )
