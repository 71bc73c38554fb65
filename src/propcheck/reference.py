"""Trusted reference filters derived from a feasibility checker.

The four consistency levels form a 2x2 table. Supports come from the
actual domains or from the bound intervals, and filtering removes every
unsupported value or only unsupported bounds:

* arc (GAC): domain supports, every value.
* bound-D: domain supports, bounds only (holes respected).
* bound-Z: interval supports, bounds only; interior values are kept.
* range: interval supports, every value.

All four work by explicit enumeration guarded by a tuple cap, so a "pass"
can never hide an unexhausted search. No single enumeration visits more
than `cap` tuples: a full marking pass over the product runs when the
product fits, otherwise each value gets its own support search, and a
search over more than `cap` tuples raises EnumerationCapExceeded. They are
oracles for small instances, not production propagators.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable, Sequence

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


def _mark_supports(
    checker: Checker, value_lists: Sequence[Sequence[int]]
) -> list[set[int]]:
    """One pass over the full product; marks every (var, value) with a support."""
    supported: list[set[int]] = [set() for _ in value_lists]
    for a in filter(checker.predicate, itertools.product(*value_lists)):
        for marks, v in zip(supported, a):
            marks.add(v)
    return supported


def _has_support(
    checker: Checker,
    value_lists: Sequence[Sequence[int]],
    i: int,
    v: int,
    cap: int,
) -> bool:
    """Early-exit support search for variable i taking value v."""
    others = [vs for j, vs in enumerate(value_lists) if j != i]
    if math.prod(map(len, others)) > cap:
        raise EnumerationCapExceeded(
            f"support search for variable {i} needs more than {cap} tuples"
        )
    pred = checker.predicate
    for rest in itertools.product(*others):
        if pred(rest[:i] + (v,) + rest[i:]):
            return True
    return False


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


def _kept_values(
    d: Domain, supported: Callable[[int], bool], bounds_only: bool
) -> list[int]:
    """The values of `d` a filter keeps; bounds_only scans in from both ends."""
    if not bounds_only:
        return [v for v in d if supported(v)]
    lo = next((v for v in d if supported(v)), None)
    if lo is None:
        return []
    hi = next(v for v in reversed(d.values) if supported(v))
    return [v for v in d if lo <= v <= hi]


def _filter(
    checker: Checker, inst: Instance, level: ConsistencyLevel, cap: int
) -> FilterOutcome:
    """The fixpoint shared by all four levels.

    Each pass marks supports in one sweep of the product when it fits the
    cap, and otherwise searches a support for each value with early exit.
    With domain supports one pass suffices: every support found is a
    solution whose values all stay, so a second pass finds it again.
    Interval supports can vanish when a bound moves, so the interval levels
    iterate until nothing changes.
    """
    _check_arity(checker, inst)
    intervals, bounds_only = _LEVEL_FLAGS[level]
    domains = list(inst.domains)
    if any(d.is_empty() for d in domains):
        return INCONSISTENT
    while True:
        if intervals:
            value_lists: list[Sequence[int]] = [
                range(d.min(), d.max() + 1) for d in domains
            ]
        else:
            value_lists = [d.values for d in domains]
        if math.prod(map(len, value_lists)) <= cap:
            marks = _mark_supports(checker, value_lists)
            supported = lambda i, v: v in marks[i]
        else:
            supported = lambda i, v: _has_support(checker, value_lists, i, v, cap)
        changed = False
        for i, d in enumerate(domains):
            kept = _kept_values(d, lambda v: supported(i, v), bounds_only)
            if not kept:
                return INCONSISTENT
            if len(kept) != len(d):
                domains[i] = Domain(kept)
                changed = True
        if not (changed and intervals):
            return Filtered(Instance(domains))


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
    """A Filter applying the reference algorithm for `level` to `checker`."""
    return Filter(
        arity=checker.arity,
        apply=lambda inst: _filter(checker, inst, level, cap),
        name=f"{level.value}:{checker.name}",
    )
