"""A copying CP micro-solver used to dogfood the testing harness.

It provides realistic stateful propagators (bounds-consistent sum,
forward-checking and matching-based alldifferent) plus a small corpus of
seeded bugs reachable only through an explicit `with_bug` selector.

A solver is an instance's domains plus one propagator over all of its
variables, since the harness tests one constraint at a time. A variable
is a position in the solver's list of immutable `Domain`s. The solver
keeps no frames: `SolverBackedStateful` saves the outcome, which holds
the very `Domain`s of that list, at a push and puts them back at a pop,
with no undo log and no cache. Building a solver runs nothing;
`fixpoint` runs the propagator to its own fixpoint: again after each
run that removed a value, until a run removes nothing. A restriction
that removes a value starts that loop. After a pop,
`SolverBackedStateful` starts it once more (the pop re-check): a correct
propagator removes nothing there, and a BUG_TRAIL_NO_RESTORE cache shows.
Every run, static or at setup, a restriction or a pop, gives its outcome by
one rule (`_settled`): inconsistent when a domain empties, the starting
outcome itself when every domain is still one of its own objects, and
otherwise a new `Filtered`.
`AllDifferentAC` returns at once on the very domains its last completed
run left, where a run would remove nothing. When a pop puts back other
domain objects, the pop re-check runs it in full, and its stale cache
grows as under full runs. The re-run loop and the pop re-check decide at
which operation the seeded TRAIL bugs show.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import is_
from typing import NamedTuple, Optional, Sequence

from .domains import (
    INCONSISTENT,
    ContractViolationError,
    Domain,
    Filter,
    Filtered,
    FilterOutcome,
    Instance,
)
from .stateful import SnapshotStack


class Inconsistency(Exception):
    """Raised inside the solver when a domain empties."""


class BugId(enum.Enum):
    NONE = "NONE"
    BUG_SUM_REVERSED_BOUND = "BUG_SUM_REVERSED_BOUND"
    BUG_ALLDIFF_FC_SKIP_LAST = "BUG_ALLDIFF_FC_SKIP_LAST"
    BUG_TRAIL_NO_RESTORE = "BUG_TRAIL_NO_RESTORE"


class Propagator:
    """Contracting filtering procedure over every variable of its solver,
    reading and writing the positions of `solver.doms`.

    With BUG_TRAIL_NO_RESTORE, a propagator remembers every fixed
    (position, value) pair it has seen in a cache that a pop does not
    restore, so the cache goes stale after a pop.
    """

    def __init__(self, bug: BugId = BugId.NONE) -> None:
        self.bug = bug
        self._seen_fixed: dict[int, int] = {}  # deliberately not restored on pop

    def propagate(self, solver: "Solver") -> None:
        """One sweep of the filtering rule over `solver.doms`, removing
        values through the solver.

        It need not reach its own fixpoint: `Solver.fixpoint` runs it again
        until a run of its own removes nothing.
        """
        raise NotImplementedError

    def _stale_fixed(self, doms: list[Domain]) -> dict[int, int]:
        """Add the variables fixed now to the unrestored cache and return it."""
        for i, d in enumerate(doms):
            if i not in self._seen_fixed and len(d) == 1:
                self._seen_fixed[i] = d[0]
        return self._seen_fixed

    def _prune_fixed(
        self, solver: "Solver", pairs: list[tuple[int, int]], skip: Optional[int] = None
    ) -> None:
        """Remove each fixed pair's value from the other variables except `skip`."""
        for i, value in pairs:
            for j in range(len(solver.doms)):
                if j != i and j != skip:
                    solver.remove_value(j, value)


class Solver:
    """Single-owner micro-solver: the current domain of each variable in
    `doms`, a variable being its position there, and one propagator over
    all of them. Building one runs nothing; `fixpoint` runs the propagator
    until a run of its own removes nothing. It keeps no frames: its owner
    saves `doms` and puts them back."""

    def __init__(self, domains: Sequence[Domain], propagator: Propagator) -> None:
        if not all(domains):
            raise Inconsistency("a solver variable needs a non-empty domain")
        self.doms = list(domains)
        self.propagator = propagator
        self._removed = False  # set by every removal

    def keep(self, x: int, kept: Sequence[int]) -> bool:
        """Narrow D(x) to `kept`, a sorted sub-sequence of it; True iff a
        value was removed. An emptying removal raises `Inconsistency` and
        leaves D(x) as it was."""
        if len(kept) == len(self.doms[x]):
            return False
        if not kept:
            raise Inconsistency(f"domain of x{x} emptied")
        self.doms[x] = Domain._from_sorted(kept)
        self._removed = True
        return True

    def remove_value(self, x: int, v: int) -> bool:
        dom = self.doms[x]
        return v in dom and self.keep(x, dom.remove(v))

    def remove_below(self, x: int, bound: int) -> bool:
        dom = self.doms[x]
        return bound > dom[0] and self.keep(x, dom[bisect_left(dom, bound) :])

    def remove_above(self, x: int, bound: int) -> bool:
        dom = self.doms[x]
        return bound < dom[-1] and self.keep(x, dom[: bisect_right(dom, bound)])

    def fixpoint(self) -> None:
        """Run the propagator, and again while its last run removed a value."""
        self._removed = True
        while self._removed:
            self._removed = False
            self.propagator.propagate(self)


class SumEqualsBC(Propagator):
    """Bounds-consistent sum-equals-constant propagator.

    With BUG_TRAIL_NO_RESTORE, a variable once seen fixed keeps its value in
    the bounds sums, also after a pop.
    """

    def __init__(self, total: int, bug: BugId = BugId.NONE) -> None:
        super().__init__(bug)
        self.total = total

    def propagate(self, solver: Solver) -> None:
        reverse = self.bug is BugId.BUG_SUM_REVERSED_BOUND
        mins = [d[0] for d in solver.doms]
        maxs = [d[-1] for d in solver.doms]
        if self.bug is BugId.BUG_TRAIL_NO_RESTORE:
            for i, v in self._stale_fixed(solver.doms).items():
                mins[i] = maxs[i] = v
        total_min, total_max = sum(mins), sum(maxs)
        for x, (own_min, own_max) in enumerate(zip(mins, maxs)):
            others_min = total_min - own_min
            others_max = total_max - own_max
            lo = self.total - others_max
            hi = self.total - others_min
            if reverse:
                lo, hi = self.total - others_min, self.total - others_max
            solver.remove_below(x, lo)
            solver.remove_above(x, hi)


class AllDifferentFC(Propagator):
    """Forward checking: the value of every fixed variable is pruned from
    the other domains.

    BUG_ALLDIFF_FC_SKIP_LAST never prunes the highest-index variable.
    BUG_TRAIL_NO_RESTORE keeps pruning the cached fixed pairs after a pop.
    """

    def _fixed_pairs(self, doms: list[Domain]) -> list[tuple[int, int]]:
        if self.bug is BugId.BUG_TRAIL_NO_RESTORE:
            return sorted(self._stale_fixed(doms).items())
        return [(i, d[0]) for i, d in enumerate(doms) if len(d) == 1]

    def propagate(self, solver: Solver) -> None:
        skip = len(solver.doms) - 1 if self.bug is BugId.BUG_ALLDIFF_FC_SKIP_LAST else None
        self._prune_fixed(solver, self._fixed_pairs(solver.doms), skip)


class AllDifferentAC(Propagator):
    """Matching-based (Regin-style) arc-consistent alldifferent.

    The maximum matching is kept across calls and only repaired where the
    domains invalidated it, which makes the propagator genuinely stateful.
    Regin's rule keeps an unmatched edge (i, v) iff it lies on an
    alternating cycle or on an even alternating path from a free value;
    both are read from a reachability closure over the variables alone,
    where i reaches j when D(j) holds the value matched to i.
    The rule is idempotent and never removes a matched value, so a run on
    the very domains that the last completed run left would remove nothing
    and keep the matching; such a run returns at once.
    With BUG_TRAIL_NO_RESTORE, the cached fixed pairs are pre-pruned from
    the other domains, which is sound during a descent but wrong after a pop.
    """

    def __init__(self, bug: BugId = BugId.NONE) -> None:
        super().__init__(bug)
        self._match: dict[int, int] = {}  # position -> matched value
        self._left: Optional[list[Domain]] = None  # the domains the last completed run left

    def _repair_matching(self, doms: list[Domain]) -> dict[int, int]:
        """Repair the kept matching so it covers every domain of `doms`;
        return its inverse, the position of each matched value."""
        match = self._match
        for i in list(match):
            if match[i] not in doms[i]:
                del match[i]
        owner = {v: i for i, v in match.items()}
        if len(match) == len(doms):
            return owner

        def augment(i: int, visited: set[int]) -> bool:
            for v in doms[i]:
                if v in visited:
                    continue
                visited.add(v)
                holder = owner.get(v)
                if holder is None or augment(holder, visited):
                    match[i] = v
                    owner[v] = i
                    return True
            return False

        for i in range(len(doms)):
            if i not in match and not augment(i, set()):
                raise Inconsistency("alldifferent: no saturating matching")
        return owner

    def propagate(self, solver: Solver) -> None:
        stale = self.bug is BugId.BUG_TRAIL_NO_RESTORE
        doms = solver.doms
        if self._left is not None and all(map(is_, doms, self._left)):
            if stale:
                # The cached pairs were pruned when that run started, and
                # GAC has since removed every fixed value from the others.
                self._stale_fixed(solver.doms)
            return
        self._left = None
        if stale:
            self._prune_fixed(solver, sorted(self._stale_fixed(doms).items()))
        owner = self._repair_matching(doms)

        # reach[i] is the bitmask of the variables that variable i reaches,
        # i included, where i -> j when D(j) holds match[i]; node n stands
        # for every free value, so reach[n] is what the free values reach.
        # held[j] is the bitmask of the owners of D(j)'s values.
        n = len(doms)
        reach = [1 << i for i in range(n + 1)]
        held = []
        for j, vs in enumerate(doms):
            bit, mask = 1 << j, 0
            for k in map(owner.get, vs, repeat(n)):
                reach[k] |= bit
                mask |= 1 << k
            held.append(mask)
        for k in range(n):  # Warshall closure
            bit, via = 1 << k, reach[k]
            for i in range(n + 1):
                if reach[i] & bit:
                    reach[i] |= via

        # v stays in D(i) iff it is free or matched (owner k) with k on an
        # alternating cycle through i (k in reach[i]) or on an even
        # alternating path from a free value (k in reach[n]).
        for x, (vs, reached, owners) in enumerate(zip(doms, reach, held)):
            kept = reached | reach[n]
            if owners & ~kept:
                solver.keep(x, [v for v in vs if kept >> owner.get(v, n) & 1])
        self._left = doms.copy()


class RecipeKind(NamedTuple):
    """A propagator, the checker it filters by (`sum` or `alldiff`), and its
    bugs besides NONE. A sum propagator takes the checker's total first."""

    propagator: type
    checker: str
    bugs: tuple[BugId, ...]


_TRAIL = BugId.BUG_TRAIL_NO_RESTORE
RECIPES = {
    "sum-bc": RecipeKind(SumEqualsBC, "sum", (BugId.BUG_SUM_REVERSED_BOUND, _TRAIL)),
    "alldiff-fc": RecipeKind(AllDifferentFC, "alldiff", (BugId.BUG_ALLDIFF_FC_SKIP_LAST, _TRAIL)),
    "alldiff-ac": RecipeKind(AllDifferentAC, "alldiff", (_TRAIL,)),
}


class Recipe(NamedTuple):
    """A propagator construction named in RECIPES, optionally with an injected bug."""

    kind: str
    total: Optional[int] = None  # the total of a sum recipe's checker
    bug: BugId = BugId.NONE

    @property
    def name(self) -> str:
        return self.kind if self.total is None else f"{self.kind}:{self.total}"

    def display_name(self) -> str:
        if self.bug is BugId.NONE:
            return self.name
        return f"{self.name}+bug:{self.bug.value}"

    def propagator(self) -> Propagator:
        totals = () if self.total is None else (self.total,)
        return RECIPES[self.kind].propagator(*totals, self.bug)


def sum_equals_bc(total: int) -> Recipe:
    return Recipe("sum-bc", total)


def all_different_fc() -> Recipe:
    return Recipe("alldiff-fc")


def all_different_ac() -> Recipe:
    return Recipe("alldiff-ac")


def with_bug(bug: BugId, recipe: Recipe) -> Recipe:
    accepted = RECIPES[recipe.kind].bugs
    if bug is not BugId.NONE and bug not in accepted:
        raise ContractViolationError(
            f"bug {bug.value} does not apply to recipe {recipe.name!r}; "
            f"it accepts {', '.join(b.value for b in accepted)}"
        )
    return recipe._replace(bug=bug)


def _first_run(
    recipe: Recipe, arity: int, inst: Instance
) -> tuple[Optional[Solver], FilterOutcome]:
    """A fresh solver over `inst` and `recipe`'s propagator, run to its
    fixpoint, and its outcome (`_settled`); no solver and INCONSISTENT
    when a domain is empty."""
    if inst.arity != arity:
        raise ContractViolationError(f"instance arity {inst.arity} != filter arity {arity}")
    if not all(inst):
        return None, INCONSISTENT
    solver = Solver(inst, recipe.propagator())
    return solver, _settled(solver, Filtered(inst))


def _settled(solver: Solver, before: Filtered) -> FilterOutcome:
    """The outcome of running `solver`, which starts from `before`'s domains
    or narrower ones, to its fixpoint: INCONSISTENT when a domain empties,
    `before` itself when every domain is still one of its own objects, and
    otherwise a new `Filtered`."""
    try:
        solver.fixpoint()
    except Inconsistency:
        return INCONSISTENT
    if all(map(is_, solver.doms, before.instance)):
        return before
    return Filtered(Instance._from_domains(solver.doms))


def as_filter(recipe: Recipe, arity: int) -> Filter:
    """A static Filter running a fresh solver per application, whose
    outcome `_settled` gives."""

    def apply(inst: Instance) -> FilterOutcome:
        return _first_run(recipe, arity, inst)[1]

    return Filter(arity=arity, apply=apply, name=recipe.display_name())


class SolverBackedStateful(SnapshotStack):
    """FilterWithState over a fresh solver, with the frame rules and the
    restriction rule of `SnapshotStack`. While the outcome is consistent,
    `solver.doms` holds exactly its `Domain` objects. The propagator runs
    to its fixpoint at setup, on the domains that a restriction narrowed,
    and after a pop puts back the very domains saved at the push (the pop
    re-check). Each of these gives its outcome by `_settled`."""

    def __init__(self, recipe: Recipe, arity: int) -> None:
        super().__init__()
        self._recipe = recipe
        self._arity = arity
        self._solver: Optional[Solver] = None

    def _root(self, root: Instance) -> FilterOutcome:
        self._solver, outcome = _first_run(self._recipe, self._arity, root)
        return outcome

    def _narrowed(self, current: Filtered, narrowed: Instance) -> FilterOutcome:
        self._solver.doms = list(narrowed)
        return _settled(self._solver, current)

    def _restored(self, saved: Filtered) -> FilterOutcome:
        # The pop re-check: the saved domains are installed and run to the
        # fixpoint again, a no-op for well-behaved propagators; stale
        # internal state surfaces here.
        return self._narrowed(saved, saved.instance)


def as_filter_with_state(recipe: Recipe, arity: int) -> SolverBackedStateful:
    """A fresh stateful subject; single use (setup exactly once)."""
    return SolverBackedStateful(recipe, arity)
