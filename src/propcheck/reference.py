"""Trusted reference filters derived from a feasibility checker.

The four consistency levels form a 2x2 table. Supports come from the
actual domains or from the bound intervals, and filtering removes every
unsupported value or only unsupported bounds:

* arc (GAC): domain supports, every value.
* bound-D: domain supports, bounds only (holes respected).
* bound-Z: interval supports, bounds only; interior values are kept.
* range: interval supports, every value.

Each level is one fixpoint scan whose support test is an early-exit
search over explicit tuples: a search over more than `cap` tuples raises
EnumerationCapExceeded, so a "pass" can never hide an unexhausted search.
They are oracles for small instances, not production propagators. The
filters from `make_reference` over one checker share its witnesses and a
table of its solutions, which grows to cover each instance they filter
while it fits the cap and then replaces the search (see `_Memo`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import threading
import weakref
from typing import Callable, Optional, Sequence

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


# How many list sums a memo keeps per position (`_Memo.sums`).
SHARED_SUMS = 256


class _Memo:
    """What the `make_reference` filters over one checker keep across calls.

    Nothing here depends on the level: a witness is a solution of the
    checker, and each call checks it against its own level's lists, while
    the table covers whatever lists it has seen. So every filter over one
    `Checker` object, at any level and cap, shares one memo (`_memos`), and
    the memo of a bundled checker lasts the process.

    Besides the witnesses, it keeps a table of the checker's solutions
    over a region: `bits[k][v]` is an int whose bit `n` is set when the
    n-th solution found has value `v` at position `k` (the bitsets of
    Compact-Table, Demeulenaere et al. 2016), and the region is the
    product of the keys of `bits[k]`. The dicts of `bits` are the table's
    columns, which `_scan` reads with one subscript per value tested.
    `lookup` grows the region to cover each call's lists, enumerating only
    the tuples it adds, so over the memo's life the checker is called once
    per tuple of the region.

    `sums[k]` maps a list at position `k` (a `Domain`, or a hull `range`)
    to the sum of its values' bitsets, for the first `SHARED_SUMS` lists
    combined there since the region last grew, so a warm call combines one
    stored int per position (`valid`). A growth gives some lists solutions
    that their sums lack, so it clears the dicts. Per checker the sums hold
    at most `SHARED_SUMS` times the arity bitsets as long as the table.

    Threads may share a memo. A call that answers from the table holds
    `lock` from its `lookup` until its scan ends, so no table or sum changes
    under a scan. A search reads and adds witnesses without the lock: each
    is a solution, checked against the call's own lists before it is used.
    """

    __slots__ = ("witness", "bits", "sums", "count", "lock")

    def __init__(self, arity: int) -> None:
        self.witness: Witnesses = {}
        self.bits: list[dict[int, int]] = [{} for _ in range(arity)]
        self.sums: list[dict[Sequence[int], int]] = [{} for _ in range(arity)]
        self.count = 0  # the number of solutions in the table
        self.lock = threading.Lock()

    def lookup(self, lists: Sequence[Sequence[int]], pred, cap: int) -> Optional[int]:
        """The solutions of the table inside `lists` as a bitset, or None.

        Lists outside the region grow it to the product of `old[k] + added[k]`
        by enumerating one slab per position `k` that gains values: positions
        before `k` over their old values, `k` over its added values, and
        positions after `k` over their new values. The slabs are disjoint
        and together hold exactly the tuples the region gains. None when
        the grown region would pass `cap`; the region then stays as it is.
        """
        bits = self.bits
        try:
            return self.valid(lists)
        except KeyError:  # a value outside the region
            pass
        added = [[v for v in lst if v not in b] for b, lst in zip(bits, lists)]
        old = list(map(list, bits))
        new = list(map(operator.add, old, added))
        if math.prod(map(len, new)) > cap:
            return None
        sols: list[Assignment] = []
        for k, vs in enumerate(added):
            if vs:
                sols += filter(pred, itertools.product(*old[:k], vs, *new[k + 1 :]))
        for b, vs in zip(bits, added):
            b.update(dict.fromkeys(vs, 0))
        _pack(sols, bits, self.count)
        self.count += len(sols)
        for s in self.sums:
            s.clear()
        return self.valid(lists)

    def valid(self, lists: Sequence[Sequence[int]]) -> int:
        """The bitset of the table's solutions inside `lists`.

        A solution holds one value per position, so the bitsets of one
        position are disjoint and their sum is their union. Each sum comes
        from `sums` or is stored there while it has room; a list with a value
        outside the region raises KeyError.
        """
        valid = -1
        for b, s, lst in zip(self.bits, self.sums, lists):
            t = s.get(lst)
            if t is None:
                t = sum(map(b.__getitem__, lst))
                if len(s) < SHARED_SUMS:
                    s[lst] = t
            valid &= t
        return valid


# A translation table that maps every byte to b"0"; `_pack` sets one byte to b"1".
_ZEROS = b"0" * 256


def _pack(sols: list[Assignment], bits: list[dict[int, int]], offset: int) -> None:
    """Set bit `offset + n` of `bits[k][v]` for the n-th solution's value `v` at `k`.

    Per position, each value gets a one-byte code, at most 255 values per
    round, and 255 stands for the values of other rounds. The codes of the
    column, last solution first, translate to the binary digits of the
    value's bitset, which `int` reads in one call.
    """
    for b, col in zip(bits, zip(*sols)):
        col = col[::-1]
        vals = list(set(col))
        for s in range(0, len(vals), 255):
            round_ = vals[s : s + 255]
            codes = bytes(map(dict(zip(round_, range(255))).get, col, itertools.repeat(255)))
            for c, v in enumerate(round_):
                b[v] |= int(codes.translate(_ZEROS[:c] + b"1" + _ZEROS[c + 1 :]), 2) << offset


# The memo of each checker, keyed by identity (`Checker` compares by
# identity) and weakly, so a memo lives exactly as long as its checker.
_memos: weakref.WeakKeyDictionary[Checker, _Memo] = weakref.WeakKeyDictionary()


class _Search:
    """What the search columns of one `_filter` call share: the lists, the
    witnesses, the predicate, the cap and the last support found."""

    __slots__ = ("lists", "witness", "pred", "cap", "last")

    def __init__(
        self,
        lists: list[Sequence[int]],
        witness: Witnesses,
        pred: Callable[[Assignment], bool],
        cap: int,
    ) -> None:
        self.lists = lists
        self.witness = witness
        self.pred = pred
        self.cap = cap
        self.last: Optional[Assignment] = None


class _Column:
    """Position `i`'s search column: `col[v]` is true iff `v` has a support
    at `i`, found by the search that `_filter` describes."""

    __slots__ = ("search", "i")

    def __init__(self, search: _Search, i: int) -> None:
        self.search = search
        self.i = i

    def __getitem__(self, v: int) -> bool:
        s, i = self.search, self.i
        lists = s.lists
        t = s.witness.get((i, v))
        if t is not None and all(map(operator.contains, lists, t)):
            return True
        space = lists.copy()
        space[i] = (v,)
        if math.prod(map(len, space)) > s.cap:
            raise EnumerationCapExceeded(
                f"support search for variable {i} needs more than {s.cap} tuples"
            )
        if s.last is not None:
            space = list(map(_starting_at, space, s.last))
        t = next(filter(s.pred, itertools.product(*space)), None)
        if t is None:
            return False
        s.last = t
        s.witness.update(dict.fromkeys(enumerate(t), t))
        return True


def _filter(
    checker: Checker,
    level: ConsistencyLevel,
    cap: int,
    memo: Optional[_Memo],
    inst: Instance,
) -> FilterOutcome:
    """The fixpoint of all four levels: `_scan` over the table's columns or
    over search columns.

    Supports range over the current value lists: the domains being
    scanned, or their hulls for interval supports. The search columns
    (`_Column`) give each value an early-exit support search over the
    lists, each rotated to start at its value in the last support found in
    this call (phase saving). A support found is the witness of each of
    its components, and a later test reuses it while every component is
    still inside the lists (residual supports, Lecoutre & Hemery 2007).

    `memo` may hold the witnesses and the table of earlier calls, made at
    any level and under any cap. It is used only when the product of the
    hulls fits this call's `cap`, so that no search can pass the cap and
    whether a call raises never depends on earlier calls. The table's
    region then grows to cover this call's lists unless it would pass the
    cap (`_Memo.lookup`), and while it covers them the table replaces the
    search: its columns are the memo's dicts `bits`, and a value is
    supported iff some solution of the table inside the lists holds it,
    `bits[i][v] & valid`. Neither the test, the order nor the witnesses
    change an outcome: each fixpoint is unique.
    """
    _check_arity(checker, inst)
    if not all(inst):
        return INCONSISTENT
    intervals, bounds_only = _LEVEL_FLAGS[level]
    pred = checker.predicate
    doms = list(inst)
    hulls = [range(d[0], d[-1] + 1) for d in inst] if intervals else None
    # The domain levels search the scanned domains themselves, so a removal
    # shows in every later search.
    lists: list[Sequence[int]] = doms if hulls is None else hulls
    witness: Witnesses = {}
    if memo is not None and math.prod([d[-1] - d[0] + 1 for d in inst]) <= cap:
        with memo.lock:
            valid = memo.lookup(lists, pred, cap)
            if valid is not None:
                return _scan(inst, doms, hulls, bounds_only, memo.bits, valid, memo)
        witness = memo.witness
    search = _Search(lists, witness, pred, cap)
    columns = [_Column(search, i) for i in range(len(doms))]
    return _scan(inst, doms, hulls, bounds_only, columns, -1, None)


def _scan(
    inst: Instance,
    doms: list[Domain],
    hulls: Optional[list[range]],
    bounds_only: bool,
    columns: Sequence,
    valid: int,
    table: Optional[_Memo],
) -> FilterOutcome:
    """Filter `doms`, a copy of `inst`'s domains, to the level's fixpoint.

    A value `v` of position `i` is supported iff `columns[i][v] & valid`:
    the table's columns and the bitset of its solutions inside the lists,
    or search columns and -1. A `valid` of 0 means the lists hold no
    solution, so the outcome is INCONSISTENT with no value tested.

    A pass tests the variables in order: a full level tests every value,
    and a bounds-only level scans inward from each end until a value is
    supported. A domain that loses a value is replaced when its scan
    ends, which changes no test: each test of a variable fixes it to the
    value tested. With domain supports (`hulls` is None) one pass
    suffices: every support is a solution, and a solution loses none of
    its values. A removal leaves the table's `valid` stale but safe: on
    the domain levels the value removed was in no valid solution. When a
    bound moves, the interval levels update `hulls`, recompute `valid`
    from `table` if they answer from it, and repeat the pass. A domain
    that loses no value is kept as it is.
    """
    changed, moved = False, True
    while moved:
        if not valid:
            return INCONSISTENT
        moved = False
        for i, d in enumerate(doms):
            col = columns[i]
            n = len(d)
            if bounds_only:
                # The scan from above stops at the supported low bound, which
                # it need not test again.
                lo = 0
                while lo < n and not col[d[lo]] & valid:
                    lo += 1
                hi = n - 1
                while hi > lo and not col[d[hi]] & valid:
                    hi -= 1
                vs = d[lo : hi + 1]
            else:
                # A loop, not a comprehension: CPython 3.11 calls a
                # comprehension as a function, once per variable.
                vs = []
                for v in d:
                    if col[v] & valid:
                        vs.append(v)
            if len(vs) == n:
                continue
            if not vs:
                return INCONSISTENT
            doms[i] = Domain._from_sorted(vs)
            changed = True
            if hulls is not None and hulls[i] != (h := range(vs[0], vs[-1] + 1)):
                hulls[i] = h
                moved = True
        if moved and table is not None:
            valid = table.valid(hulls)
    return Filtered(Instance._from_domains(doms)) if changed else Filtered(inst)


def arc_filter(checker: Checker, inst: Instance, cap: int = DEFAULT_CAP) -> FilterOutcome:
    """The unique GAC closure: every value that appears in some solution."""
    return _filter(checker, ConsistencyLevel.ARC, cap, None, inst)


def bound_z_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Tighten bounds to the extreme values holding an interval support."""
    return _filter(checker, ConsistencyLevel.BOUND_Z, cap, None, inst)


def bound_d_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Tighten bounds to the extreme values holding a domain support."""
    return _filter(checker, ConsistencyLevel.BOUND_D, cap, None, inst)


def range_filter(
    checker: Checker, inst: Instance, cap: int = DEFAULT_CAP
) -> FilterOutcome:
    """Drop every value (bounds and interior) lacking an interval support."""
    return _filter(checker, ConsistencyLevel.RANGE, cap, None, inst)


def make_reference(level: ConsistencyLevel, checker: Checker, cap: int = DEFAULT_CAP):
    """A Filter applying the reference algorithm for `level` to `checker`.

    Every filter made over the same `checker` object, at any level and cap,
    shares one memo (`_Memo`) for as long as the checker lives. Outcomes
    equal the level function's. The first call pays for a table over its
    lists, so for one instance the level function is cheaper. The bundled
    factories share one checker per argument tuple, so later commands and
    calls over a bundled constraint answer from the table that earlier ones
    grew; after wide lists it stays wide, and narrow calls combine longer
    bitsets.
    """
    # Build a memo only for a checker with none; setdefault keeps one if two threads race.
    memo = _memos.get(checker) or _memos.setdefault(checker, _Memo(checker.arity))
    return Filter(
        arity=checker.arity,
        apply=functools.partial(_filter, checker, level, cap, memo),
        name=f"{level.value}:{checker.name}",
    )
