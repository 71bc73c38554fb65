"""Differential campaigns between a trusted and a tested filter.

A campaign generates seeded random instances, applies both filters, and
fails on the first disagreement; the failing instance is shrunk to a
1-minimal counterexample before reporting. Campaign outcomes are pure
functions of (trusted, tested, config).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .domains import (
    INCONSISTENT,
    ContractViolationError,
    Filter,
    Filtered,
    FilterOutcome,
    Instance,
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
from .reference import DEFAULT_CAP, EnumerationCapExceeded

MAX_REDRAWS = 1000


class ComparisonMode(enum.Enum):
    EQUALITY = "check"
    TESTED_SUBSET_OF_TRUSTED = "stronger"


@dataclass(frozen=True)
class Failure:
    original: Instance
    shrunk: Instance
    trusted_outcome: FilterOutcome
    tested_outcome: FilterOutcome
    mode: ComparisonMode
    reason: str
    shrunk_minimal: bool = True
    transcript: Optional[tuple] = None  # BranchOps, dives campaigns only


@dataclass(frozen=True)
class TestReport:
    passed: bool
    tests_run: int
    seed: int
    failure: Optional[Failure] = None
    redraws: int = 0

    def __post_init__(self) -> None:
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
) -> Optional[tuple[str, FilterOutcome, FilterOutcome]]:
    """None when the pair agrees on `inst`, else (reason, trusted, tested)."""
    trusted_out = trusted.apply(inst)
    tested_out = tested.apply(inst)
    if not _contracting(inst, trusted_out):
        return ("trusted filter returned a non-contracting result", trusted_out, tested_out)
    if not _contracting(inst, tested_out):
        return ("tested filter returned a non-contracting result", trusted_out, tested_out)
    if mode is ComparisonMode.EQUALITY:
        if not pointwise_equal(trusted_out, tested_out):
            if (tested_out is INCONSISTENT) != (trusted_out is INCONSISTENT):
                side = "tested" if tested_out is INCONSISTENT else "trusted"
                reason = f"outcomes differ: only the {side} filter claimed inconsistency"
            else:
                reason = "outcomes differ under equality comparison"
            return (reason, trusted_out, tested_out)
    else:
        if not pointwise_subset(tested_out, trusted_out):
            reason = "tested outcome is not pointwise included in the trusted outcome"
            return (reason, trusted_out, tested_out)
    return None


def draw_instance(
    rng: SplitMix64, cfg: GenConfig, cap: int
) -> tuple[Instance, int]:
    """Generate an instance small enough to enumerate; re-draw oversized ones."""
    redraws = 0
    while True:
        inst = generate_instance(rng, cfg)
        if inst.search_space_size() <= cap:
            return inst, redraws
        redraws += 1
        if redraws > MAX_REDRAWS:
            raise EnumerationCapExceeded(
                f"could not draw an instance within the cap {cap} "
                f"after {MAX_REDRAWS} re-draws"
            )


def _run_campaign(
    trusted: Filter,
    tested: Filter,
    cfg: GenConfig,
    mode: ComparisonMode,
    cap: int,
    shrink_budget: int,
) -> TestReport:
    if trusted.arity != tested.arity:
        raise ContractViolationError(
            f"filter arity mismatch: trusted={trusted.arity} tested={tested.arity}"
        )
    if trusted.arity != cfg.n_vars:
        raise ContractViolationError(
            f"filter arity {trusted.arity} != configured n_vars {cfg.n_vars}"
        )
    rng = SplitMix64(cfg.seed)
    redraws = 0
    for test_index in range(cfg.n_tests):
        inst, drawn = draw_instance(rng, cfg, cap)
        redraws += drawn
        found = disagreement(trusted, tested, inst, mode)
        if found is None:
            continue

        def still_fails(candidate: Instance) -> bool:
            return disagreement(trusted, tested, candidate, mode) is not None

        result = shrink(inst, still_fails, budget=shrink_budget)
        reason, trusted_out, tested_out = disagreement(
            trusted, tested, result.instance, mode
        )
        return TestReport(
            passed=False,
            tests_run=test_index + 1,
            seed=cfg.seed,
            redraws=redraws,
            failure=Failure(
                original=inst,
                shrunk=result.instance,
                trusted_outcome=trusted_out,
                tested_outcome=tested_out,
                mode=mode,
                reason=reason,
                shrunk_minimal=result.minimal,
            ),
        )
    return TestReport(passed=True, tests_run=cfg.n_tests, seed=cfg.seed, redraws=redraws)


def check(
    trusted: Filter,
    tested: Filter,
    cfg: GenConfig = GenConfig(),
    cap: int = DEFAULT_CAP,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
) -> TestReport:
    """Fail on the first instance where the two outcomes are not identical."""
    return _run_campaign(trusted, tested, cfg, ComparisonMode.EQUALITY, cap, shrink_budget)


def stronger(
    trusted: Filter,
    tested: Filter,
    cfg: GenConfig = GenConfig(),
    cap: int = DEFAULT_CAP,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
) -> TestReport:
    """Fail where the tested outcome is not pointwise included in the trusted one.

    Inclusion alone does not prove soundness: an over-filtering subject that
    removes solutions still passes against a weak trusted filter. Combine
    with `check` against an exact reference for full validation.
    """
    return _run_campaign(
        trusted, tested, cfg, ComparisonMode.TESTED_SUBSET_OF_TRUSTED, cap, shrink_budget
    )


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

    def weaker_than(self, trusted: Filter) -> "AssertionBuilder":
        report = stronger(trusted, self._tested, self._cfg)
        if not report.passed:
            raise FilterAssertionError(f"weaker_than({trusted.name or 'trusted'})", report)
        return self


def assert_that(tested: Filter, cfg: GenConfig = GenConfig()) -> AssertionBuilder:
    return AssertionBuilder(tested, cfg)
