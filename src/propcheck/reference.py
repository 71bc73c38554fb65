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
production propagators. The filters from `make_reference` over one
checker share its witnesses and may also answer from a table of its
solutions over a box their searches have paid for (see `_Memo`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import weakref
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


class _Memo:
    """What the `make_reference` filters over one checker keep across calls.

    Nothing here depends on the level: a witness is a solution of the
    checker, and each call checks it against its own level's lists, while
    the box and the table cover hulls. So every filter over one `Checker`
    object, at any level and cap, shares one memo (`_memos`).

    Besides the witnesses, it keeps the hull box of the instances filtered
    (only those whose hull product fits the call's cap) and the number of
    tuples the failed support searches have rejected since the last build.
    Once that number reaches the size of the box, and the box fits the
    cap, one pass over the box builds a table of the checker's solutions:
    `bits[k][v]` is an int whose bit `n` is set when the n-th solution has
    value `v` at position `k` (the bitsets of Compact-Table, Demeulenaere
    et al. 2016). For an instance whose hull lies inside the table's box,
    `_filter` then answers each support check from the bitsets inside its
    own pass loop, with no predicate call. The build thus costs no more
    predicate calls than the failed searches before it, and a checker
    whose searches rarely fail seldom pays it.
    """

    __slots__ = ("witness", "start", "stop", "size", "wasted", "table")

    def __init__(self) -> None:
        self.witness: Witnesses = {}
        # The box, as the ranges `range(start[k], stop[k])`.
        self.start: list[int] = []
        self.stop: list[int] = []
        self.size = 0
        self.wasted = 0
        self.table: Optional[tuple[list[int], list[int], list[dict[int, int]]]] = None

    def lookup(self, start: list[int], stop: list[int], pred, cap: int):
        """The bitsets of a table whose box holds the given hull, or None.

        A hull outside the box grows it, and a table is built over the box
        once the failed searches have paid for it.
        """
        t = self.table
        if t is not None and _inside(start, stop, t[0], t[1]):
            return t[2]
        if not self.start:
            self.start, self.stop = start, stop
        elif _inside(start, stop, self.start, self.stop):
            if self.wasted < self.size:
                return None
        else:
            self.start = list(map(min, self.start, start))
            self.stop = list(map(max, self.stop, stop))
        self.size = math.prod(map(operator.sub, self.stop, self.start))
        if self.wasted < self.size or self.size > cap:
            return None
        box = list(map(range, self.start, self.stop))
        sols = list(filter(pred, itertools.product(*box)))
        masks = [{v: bytearray((len(sols) + 7) // 8) for v in r} for r in box]
        for n, sol in enumerate(sols):
            byte, bit = n >> 3, 1 << (n & 7)
            for m, v in zip(masks, sol):
                m[v][byte] |= bit
        bits = [{v: int.from_bytes(b, "little") for v, b in m.items()} for m in masks]
        self.table = (self.start, self.stop, bits)
        self.wasted = 0
        return bits


# The memo of each checker, keyed by identity (`Checker` compares by
# identity) and weakly, so a memo lives exactly as long as its checker.
_memos: weakref.WeakKeyDictionary[Checker, _Memo] = weakref.WeakKeyDictionary()


def _inside(start: list[int], stop: list[int], box_start: list[int], box_stop: list[int]) -> bool:
    """Whether the ranges `range(start[k], stop[k])` lie inside the box's."""
    return all(map(operator.le, box_start, start)) and all(map(operator.le, stop, box_stop))


def _filter(
    checker: Checker,
    inst: Instance,
    level: ConsistencyLevel,
    cap: int,
    memo: Optional[_Memo] = None,
) -> FilterOutcome:
    """The fixpoint shared by all four levels.

    Each value gets an early-exit support search over the current value
    lists: the kept domain values, or their hulls for interval supports.
    Each list is rotated to start at its value in the last support found
    in this call (phase saving). A support found is recorded in the
    witnesses as the witness of each of its components, and a later check
    reuses it while every component is still inside the lists (residual
    supports, Lecoutre & Hemery 2007). A pass checks the variables in
    order: a full level checks every value, and a bounds-only level scans
    inward from each end until a value is supported. A variable's
    unsupported values leave its list when its scan ends, which changes
    no check: each check of a variable fixes it to the value checked.
    With domain supports one pass suffices: every support found is a
    solution, and a solution loses none of its values. Interval supports
    can leave the hull when a bound moves, so the interval levels repeat
    the pass until no bound moves.

    `memo` may hold the witnesses, the box and the table of earlier calls,
    made at any level and under any cap. It is used only when the product
    of the hulls fits this call's `cap`, so that no search can pass the
    cap and whether a call raises never depends on earlier calls. When
    `memo` has a table over the hulls, each pass starts by computing
    `valid`, the solutions inside the current lists, and a value is
    supported iff some valid solution holds it: that one-line check
    replaces the search, and no witness is used. A removal within the pass
    leaves `valid` stale but safe: on the domain levels the value removed
    was in no valid solution, and on the interval levels `valid` goes
    stale only when a bound moves, which repeats the pass. Neither the
    order, the witnesses nor the table change an outcome: each fixpoint is
    unique.
    """
    _check_arity(checker, inst)
    intervals, bounds_only = _LEVEL_FLAGS[level]
    kept = list(map(list, inst))
    if not all(kept):
        return INCONSISTENT
    pred = checker.predicate
    start = [vs[0] for vs in kept]
    stop = [vs[-1] + 1 for vs in kept]
    if memo is None or math.prod(map(operator.sub, stop, start)) > cap:
        memo = _Memo()
        bits = None
    else:
        bits = memo.lookup(start, stop, pred, cap)
    witness = memo.witness
    # The domain levels search the kept lists themselves, so a removal
    # shows in every later search.
    lists: list[Sequence[int]] = list(map(range, start, stop)) if intervals else kept
    last: Optional[Assignment] = None
    valid = 0

    def searched(i: int, v: int) -> bool:
        nonlocal last
        t = witness.get((i, v))
        if t is not None and all(map(operator.contains, lists, t)):
            return True
        space = lists.copy()
        space[i] = (v,)
        size = math.prod(map(len, space))
        if size > cap:
            raise EnumerationCapExceeded(
                f"support search for variable {i} needs more than {cap} tuples"
            )
        if last is not None:
            space = list(map(_starting_at, space, last))
        t = next(filter(pred, itertools.product(*space)), None)
        if t is None:
            memo.wasted += size
            return False
        last = t
        witness.update(dict.fromkeys(enumerate(t), t))
        return True

    supported = searched if bits is None else lambda i, v: bits[i][v] & valid

    while True:
        if bits is not None:
            valid = -1
            for b, lst in zip(bits, lists):
                valid &= functools.reduce(operator.or_, map(b.__getitem__, lst))
        moved = False
        for i, vs in enumerate(kept):
            n = len(vs)
            if bounds_only:
                # Scan inward from each end. The scan from above stops at
                # the supported low bound, which it need not check again.
                lo, hi = 0, n - 1
                while not supported(i, vs[lo]):
                    lo += 1
                    if lo > hi:
                        return INCONSISTENT
                while hi > lo and not supported(i, vs[hi]):
                    hi -= 1
                del vs[hi + 1 :]
                del vs[:lo]
            else:
                vs[:] = [v for v in vs if supported(i, v)]
                if not vs:
                    return INCONSISTENT
            if intervals and len(vs) < n and lists[i] != (h := range(vs[0], vs[-1] + 1)):
                lists[i] = h
                moved = True
        if not moved:
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

    Every filter made over the same `checker` object, at any level and cap,
    shares one memo (`_Memo`) for as long as the checker lives: witnesses,
    at most one per (variable, value), so a support found on one instance
    answers for a later one wherever it is still valid at the caller's
    level; and, once failed searches have rejected as many tuples as the
    box of the instances holds, a table of the checker's solutions that
    answers instances inside that box. Outcomes equal the level function's.
    """
    memo = _memos.setdefault(checker, _Memo())
    return Filter(
        arity=checker.arity,
        apply=functools.partial(_filter, checker, level=level, cap=cap, memo=memo),
        name=f"{level.value}:{checker.name}",
    )
