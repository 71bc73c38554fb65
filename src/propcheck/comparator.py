"""Differential campaigns between a trusted and a tested filter.

A campaign generates seeded random instances, tests a property on each,
and fails on the first failure; the failing instance is shrunk to a
1-minimal counterexample before reporting. A static campaign's property
applies both filters once; a dive campaign (`stateful.dive_campaign`) runs
the same loop with dives as its property. Campaign outcomes are pure
functions of (trusted, tested, config).
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

from .domains import (
    INCONSISTENT,
    ContractViolationError,
    Filter,
    FilterOutcome,
    Instance,
    _Validated,
    pointwise_equal,
    pointwise_subset,
)
from .generator import (
    DEFAULT_SHRINK_BUDGET,
    GenConfig,
    SplitMix64,
    generate_instance,
    shrink,
)
from .reference import EnumerationCapExceeded

MAX_REDRAWS = 1000


class ComparisonMode(enum.Enum):
    EQUALITY = "check"
    TESTED_SUBSET_OF_TRUSTED = "stronger"


class Failure(NamedTuple):
    original: Instance
    shrunk: Instance
    trusted_outcome: FilterOutcome
    tested_outcome: FilterOutcome
    reason: str
    shrunk_minimal: bool = True
    transcript: Optional[tuple] = None  # BranchOps, dives campaigns only


class _TestReport(NamedTuple):
    passed: bool
    tests_run: int
    seed: int
    failure: Optional[Failure] = None
    redraws: int = 0


class TestReport(_Validated, _TestReport):
    __slots__ = ()

    def _check(self) -> None:
        if self.passed != (self.failure is None):
            raise ValueError("a report passes exactly when it carries no failure")


def _contracting(inp: Instance, out: FilterOutcome) -> bool:
    if out is INCONSISTENT:
        return True
    if out.instance.arity != inp.arity:
        return False
    return out.instance.pointwise_subset_of(inp)


def disagreement(
    trusted: Filter, tested: Filter, inst: Instance, mode: ComparisonMode
) -> Optional[Failure]:
    """None when the pair agrees on `inst`, else the failure found on it."""
    trusted_out = trusted.apply(inst)
    tested_out = tested.apply(inst)
    if not _contracting(inst, trusted_out):
        reason = "trusted filter returned a non-contracting result"
    elif not _contracting(inst, tested_out):
        reason = "tested filter returned a non-contracting result"
    elif mode is ComparisonMode.EQUALITY:
        if pointwise_equal(trusted_out, tested_out):
            return None
        if (tested_out is INCONSISTENT) != (trusted_out is INCONSISTENT):
            side = "tested" if tested_out is INCONSISTENT else "trusted"
            reason = f"outcomes differ: only the {side} filter claimed inconsistency"
        else:
            reason = "outcomes differ under equality comparison"
    elif pointwise_subset(tested_out, trusted_out):
        return None
    else:
        reason = "tested outcome is not pointwise included in the trusted outcome"
    return Failure(
        original=inst,
        shrunk=inst,
        trusted_outcome=trusted_out,
        tested_outcome=tested_out,
        reason=reason,
    )


# The number of tests a property ran on an instance, and the failure it found.
Property = Callable[[Instance], tuple[int, Optional[Failure]]]


def run_campaign(
    cfg: GenConfig, n_draws: int, property_after: Callable[[SplitMix64], Property]
) -> TestReport:
    """Test `n_draws` instances drawn from cfg.seed; shrink the first failing one.

    `property_after(rng)` gives the property for the instance just drawn and
    may draw from `rng` itself. A draw on which a reference exceeds its cap is
    skipped and counted in `redraws`; MAX_REDRAWS skips in a row end the
    campaign. The shrunk instance is tested once more for the report.
    """
    rng = SplitMix64(cfg.seed)
    tests_run = redraws = 0
    for _ in range(n_draws):
        skipped = 0
        while True:
            inst = generate_instance(rng, cfg)
            prop = property_after(rng)
            try:
                run, failure = prop(inst)
                break
            except EnumerationCapExceeded as exc:
                skipped += 1
                if skipped == MAX_REDRAWS:
                    raise EnumerationCapExceeded(
                        f"a reference exceeded its cap on {MAX_REDRAWS} draws in a row: {exc}"
                    ) from exc
        redraws += skipped
        if failure is None:
            tests_run += run
            continue

        def still_fails(candidate: Instance) -> bool:
            try:
                return prop(candidate)[1] is not None
            except EnumerationCapExceeded:
                return False  # undecided, so not kept

        result = shrink(inst, still_fails, budget=DEFAULT_SHRINK_BUDGET)
        run, final = prop(result.instance)
        if final is None:
            raise ContractViolationError(
                "the shrunk instance no longer fails: a subject is not deterministic"
            )
        return TestReport(
            passed=False,
            tests_run=tests_run + run,
            seed=cfg.seed,
            redraws=redraws,
            failure=final._replace(
                original=inst, shrunk=result.instance, shrunk_minimal=result.minimal
            ),
        )
    return TestReport(passed=True, tests_run=tests_run, seed=cfg.seed, redraws=redraws)


def _static_campaign(
    trusted: Filter, tested: Filter, cfg: GenConfig, mode: ComparisonMode
) -> TestReport:
    if trusted.arity != tested.arity:
        raise ContractViolationError(
            f"filter arity mismatch: trusted={trusted.arity} tested={tested.arity}"
        )
    if trusted.arity != cfg.n_vars:
        raise ContractViolationError(
            f"filter arity {trusted.arity} != configured n_vars {cfg.n_vars}"
        )

    def compare(inst: Instance) -> tuple[int, Optional[Failure]]:
        return 1, disagreement(trusted, tested, inst, mode)

    return run_campaign(cfg, cfg.n_tests, lambda rng: compare)


def check(trusted: Filter, tested: Filter, cfg: GenConfig = GenConfig()) -> TestReport:
    """Fail on the first instance where the two outcomes are not identical."""
    return _static_campaign(trusted, tested, cfg, ComparisonMode.EQUALITY)


def stronger(trusted: Filter, tested: Filter, cfg: GenConfig = GenConfig()) -> TestReport:
    """Fail where the tested outcome is not pointwise included in the trusted one.

    Inclusion alone does not prove soundness: an over-filtering subject that
    removes solutions still passes against a weak trusted filter. Combine
    with `check` against an exact reference for full validation.
    """
    return _static_campaign(trusted, tested, cfg, ComparisonMode.TESTED_SUBSET_OF_TRUSTED)


class FilterAssertionError(AssertionError):
    """Raised by the assertion builder; carries the failing TestReport."""

    def __init__(self, clause: str, report: TestReport) -> None:
        self.report = report
        failure = report.failure
        msg = (
            f"{clause} failed after {report.tests_run} tests (seed {report.seed}): "
            f"{failure.reason}\n"
            f"  shrunk counterexample: {failure.shrunk!r}\n"
            f"  trusted outcome: {failure.trusted_outcome!r}\n"
            f"  tested outcome:  {failure.tested_outcome!r}"
        )
        super().__init__(msg)


class AssertionBuilder:
    """Fluent assertions over a tested filter; each clause runs a campaign."""

    def __init__(self, tested: Filter, cfg: GenConfig = GenConfig()) -> None:
        self._tested = tested
        self._cfg = cfg

    def filter_as(self, trusted: Filter) -> "AssertionBuilder":
        report = check(trusted, self._tested, self._cfg)
        if not report.passed:
            raise FilterAssertionError(f"filter_as({trusted.name or 'trusted'})", report)
        return self

    def at_least_as_strong_as(self, trusted: Filter) -> "AssertionBuilder":
        """Each tested outcome is included in the trusted one: the tested
        filter prunes at least as much."""
        report = stronger(trusted, self._tested, self._cfg)
        if not report.passed:
            raise FilterAssertionError(
                f"at_least_as_strong_as({trusted.name or 'trusted'})", report
            )
        return self


def assert_that(tested: Filter, cfg: GenConfig = GenConfig()) -> AssertionBuilder:
    return AssertionBuilder(tested, cfg)
