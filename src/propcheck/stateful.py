"""Stateful differential testing: branching operations and random dives.

A dive interleaves a push of the state with a random domain restriction
until a leaf (inconsistent or all variables fixed), then pops a random
number of frames and starts again. Dives and replay drive one pair of
subjects: both are set up on the root and receive the identical operation
sequence, and their outcomes are compared after setup and after every
single operation, so state divergence surfaces at the earliest observable
point.
"""

from __future__ import annotations

import abc
import functools
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .domains import (
    INCONSISTENT,
    ContractViolationError,
    Domain,
    Filter,
    Filtered,
    FilterOutcome,
    Instance,
    _Validated,
    is_leaf,
    pointwise_equal,
)
from .comparator import Failure, Property, TestReport, run_campaign
from .generator import GenConfig, SplitMix64
from .generator import shrink  # noqa: F401  (bench/tracing.py patches it by name)
from .reference import EnumerationCapExceeded


class _Marker:
    """A branching operation without fields: equal to every instance of its class."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Push(_Marker):
    __slots__ = ()


class Pop(_Marker):
    __slots__ = ()


RELATIONS = ("=", "!=", "<", ">")


class _RestrictDomain(NamedTuple):
    index: int
    relation: str
    constant: int


class RestrictDomain(_Validated, _RestrictDomain):
    __slots__ = ()

    def _check(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


BranchOp = Union[Push, Pop, RestrictDomain]

PUSH = Push()
POP = Pop()


def restricted(domains: Sequence[Domain], r: RestrictDomain) -> Domain:
    """The domain at `r.index` cut to the values that satisfy `r`."""
    index, relation, c = r
    if not 0 <= index < len(domains):
        raise ContractViolationError(f"restriction index {index} out of range")
    d = domains[index]
    if relation == "!=":
        return d.remove(c)
    if relation == "=":
        return Domain._from_sorted((c,) if c in d else ())
    if relation == "<":
        return Domain._from_sorted(d[: bisect_left(d, c)])
    return Domain._from_sorted(d[bisect_right(d, c) :])


def apply_restriction(inst: Instance, r: RestrictDomain) -> FilterOutcome:
    """Restrict one domain; Inconsistent iff it empties."""
    kept = restricted(inst.domains, r)
    if not kept:
        return INCONSISTENT
    doms = list(inst.domains)
    doms[r.index] = kept
    return Filtered(Instance._from_domains(doms))


def random_restriction(rng: SplitMix64, inst: Instance) -> RestrictDomain:
    """Uniform restriction on an unfixed variable, constant from its domain."""
    unfixed = [i for i, size in enumerate(map(len, inst)) if size > 1]
    if not unfixed:
        raise ContractViolationError("random_restriction needs an unfixed domain")
    index = unfixed[rng.next_below(len(unfixed))]
    relation = RELATIONS[rng.next_below(4)]
    values = inst.domains[index].values
    constant = values[rng.next_below(len(values))]
    return RestrictDomain(index, relation, constant)


class FilterWithState(abc.ABC):
    """A stateful filtering subject driven by setup + branching operations."""

    @abc.abstractmethod
    def setup(self, root: Instance) -> FilterOutcome:
        """Install the root instance and reach the first fixpoint."""

    @abc.abstractmethod
    def branch_and_filter(self, op: BranchOp) -> FilterOutcome:
        """Apply one branching operation and return the resulting outcome."""


class SnapshotStack(FilterWithState):
    """The frame rules of a stateful subject and its one restriction rule:
    setup runs once, before any operation; a push saves the current outcome
    and a pop puts the last saved one back; a restriction leaves an
    inconsistent outcome as it is, gives INCONSISTENT when it empties the
    domain (`restricted`), and keeps the very current outcome, filtering
    nothing, when it removes no value. Subclasses filter in `_root`, in
    `_narrowed` on the instance that a restriction narrowed, and in
    `_restored` on a consistent saved outcome that a pop puts back."""

    def __init__(self) -> None:
        self._stack: list[FilterOutcome] = []
        self._current: Optional[FilterOutcome] = None

    def setup(self, root: Instance) -> FilterOutcome:
        if self._current is not None:
            raise ContractViolationError("setup called twice")
        self._current = self._root(root)
        return self._current

    def branch_and_filter(self, op: BranchOp) -> FilterOutcome:
        current = self._current
        if current is None:
            raise ContractViolationError("branch_and_filter before setup")
        if isinstance(op, Push):
            self._stack.append(current)
        elif isinstance(op, Pop):
            if not self._stack:
                raise ContractViolationError("pop with no open frame")
            saved = self._stack.pop()
            self._current = saved if saved is INCONSISTENT else self._restored(saved)
        elif current is not INCONSISTENT:
            doms = list(current.instance)
            kept = restricted(doms, op)
            if not kept:
                self._current = INCONSISTENT
            elif len(kept) < len(doms[op.index]):
                doms[op.index] = kept
                self._current = self._narrowed(current, Instance._from_domains(doms))
        return self._current

    @abc.abstractmethod
    def _root(self, root: Instance) -> FilterOutcome:
        """The outcome of filtering `root`."""

    @abc.abstractmethod
    def _narrowed(self, current: Filtered, narrowed: Instance) -> FilterOutcome:
        """The outcome of filtering `narrowed`, which is `current`'s instance
        with one domain cut by a restriction."""

    def _restored(self, saved: Filtered) -> FilterOutcome:
        return saved


class IncrementalFiltering(SnapshotStack):
    """Turns any static Filter into a stateful one via a snapshot stack.

    It calls `base.apply` on the root and after each restriction that
    removes a value and leaves every domain non-empty; the subjects that
    `incremental_factory` makes share a memo of those calls."""

    def __init__(self, base: Filter) -> None:
        super().__init__()
        self._base = base

    def _root(self, root: Instance) -> FilterOutcome:
        return self._base.apply(root)

    def _narrowed(self, current: Filtered, narrowed: Instance) -> FilterOutcome:
        return self._base.apply(narrowed)


# How many outcomes the subjects of one `incremental_factory` share.
SHARED_OUTCOMES = 1024


def incremental_factory(base: Filter) -> Callable[[], IncrementalFiltering]:
    """A factory of fresh `IncrementalFiltering` subjects over `base` that
    share one memo of its outcomes, keyed by instance, which keeps the
    `SHARED_OUTCOMES` most recently used. A `Filter` is deterministic, so
    the memo changes no outcome, only how often `base` runs: a dive
    campaign and its shrinker filter each distinct instance once while it
    is kept. A call that raises is not kept, so an exceeded cap raises
    again. The memo is built with the factory."""
    shared = base._replace(apply=functools.lru_cache(SHARED_OUTCOMES)(base.apply))
    return functools.partial(IncrementalFiltering, shared)


class _DiveConfig(NamedTuple):
    nb_dives: int = 20
    max_depth: int = 64
    seed: int = 0  # used by dives() without an rng; dive_campaign draws its own


class DiveConfig(_Validated, _DiveConfig):
    __slots__ = ()

    def _check(self) -> None:
        if self.nb_dives < 1:
            raise ValueError("nb_dives must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def _tested_outcome(
    call: Callable[..., FilterOutcome], arg: Union[Instance, BranchOp]
) -> FilterOutcome:
    """`call(arg)`, where a raising subject is recorded as claiming
    inconsistency; a broken contract or an exceeded cap is not the
    subject's answer and propagates."""
    try:
        return call(arg)
    except (ContractViolationError, EnumerationCapExceeded):
        raise
    except Exception:
        return INCONSISTENT


_AFTER = {Push: "push", Pop: "pop", RestrictDomain: "restriction"}


class _Lockstep:
    """Both subjects set up on `root` and then driven by the same operations,
    their outcomes compared after setup and after every operation. `failure`
    is the first disagreement, whose transcript ends with the operation it
    appeared at; `trusted_out` is the trusted side's latest outcome. Dives
    compare by plain equality, not through `ComparisonMode.reason`, because
    their reasons name the operation the outcomes differ after."""

    def __init__(self, root: Instance, trusted: FilterWithState, tested: FilterWithState) -> None:
        self._root = root
        self._trusted_step, self._tested_step = trusted.branch_and_filter, tested.branch_and_filter
        self.transcript: list[BranchOp] = []
        self.failure: Optional[Failure] = None
        self._compare(trusted.setup(root), _tested_outcome(tested.setup, root), "setup")

    def step(self, op: BranchOp) -> bool:
        """Apply `op` to both subjects; whether their outcomes still agree."""
        self.transcript.append(op)
        return self._compare(
            self._trusted_step(op), _tested_outcome(self._tested_step, op), _AFTER[type(op)]
        )

    def _compare(self, trusted_out: FilterOutcome, tested_out: FilterOutcome, after: str) -> bool:
        self.trusted_out = trusted_out
        if pointwise_equal(trusted_out, tested_out):
            return True
        self.failure = Failure(
            original=self._root,
            shrunk=self._root,
            trusted_outcome=trusted_out,
            tested_outcome=tested_out,
            reason=f"outcomes differ after {after}",
            transcript=tuple(self.transcript),
        )
        return False


def replay(
    root: Instance,
    transcript: Sequence[BranchOp],
    trusted: FilterWithState,
    tested: FilterWithState,
) -> Optional[Failure]:
    """The first disagreement of fresh subjects driven from `root` through `transcript`."""
    pair = _Lockstep(root, trusted, tested)
    for op in transcript:
        if pair.failure is not None or not pair.step(op):
            break
    return pair.failure


def dives(
    root: Instance,
    trusted: FilterWithState,
    tested: FilterWithState,
    cfg: DiveConfig,
    rng: Optional[SplitMix64] = None,
) -> TestReport:
    """Drive both subjects through cfg.nb_dives random dives, comparing
    outcomes after setup and after every branching operation.

    Restrictions are drawn from the trusted side's current domains so a
    buggy subject cannot steer generation away from its own defect. On a
    mismatch, the failure carries the full replayable transcript. The
    report's seed is the state `rng` started from, so dives run without an
    rng under `DiveConfig(seed=report.seed)` repeat these ones.
    """
    rng = SplitMix64(cfg.seed) if rng is None else rng
    seed = rng.state
    pair = _Lockstep(root, trusted, tested)
    dives_done = open_frames = 0
    while pair.failure is None and dives_done < cfg.nb_dives:
        current, depth = pair.trusted_out, 0
        while not is_leaf(current) and depth < cfg.max_depth:
            open_frames += 1
            # The restriction is drawn only after a push that agreed.
            if not (pair.step(PUSH) and pair.step(random_restriction(rng, current.instance))):
                break
            current, depth = pair.trusted_out, depth + 1
        if pair.failure is not None:
            break
        if not is_leaf(current):
            import logging  # only here, so that importing propcheck skips it

            logging.getLogger(__name__).warning(
                "dive reached max_depth=%d without a leaf; treating as one",
                cfg.max_depth,
            )
        dives_done += 1
        if open_frames == 0:
            break  # the root itself is a leaf; nothing to pop or restrict
        n_pops = 1 if open_frames == 1 else 1 + rng.next_below(open_frames - 1)
        open_frames -= n_pops
        for _ in range(n_pops):
            if not pair.step(POP):
                break
    return TestReport(tests_run=dives_done, seed=seed, failure=pair.failure)


def dive_campaign(
    trusted_factory: Callable[[], FilterWithState],
    tested_factory: Callable[[], FilterWithState],
    gen_cfg: GenConfig,
    dive_cfg: DiveConfig,
) -> TestReport:
    """Draw a root instance, run the dives on it, shrink the root on failure.

    The dives run under a seed drawn right after the root, so the same
    operation sequence decisions replay while the root is being shrunk.
    """

    def dives_after(rng: SplitMix64) -> Property:
        dive_seed = rng.next_u64()

        def run(root: Instance) -> tuple[int, Optional[Failure]]:
            report = dives(
                root, trusted_factory(), tested_factory(), dive_cfg, SplitMix64(dive_seed)
            )
            return report.tests_run, report.failure

        return run

    return run_campaign(gen_cfg, 1, dives_after)
