"""Differential campaigns: check, stronger, and the assertion builder."""

import pytest

import propcheck
from propcheck import (
    INCONSISTENT,
    ConsistencyLevel,
    ContractViolationError,
    Domain,
    EnumerationCapExceeded,
    Failure,
    Filter,
    FilterAssertionError,
    ComparisonMode,
    Filtered,
    GenConfig,
    Instance,
    SplitMix64,
    all_different,
    all_different_fc,
    arc_filter,
    as_filter,
    assert_that,
    check,
    generate_instance,
    make_reference,
    pointwise_subset,
    stronger,
    sum_equals,
)

CFG3 = GenConfig(n_vars=3, value_min=-3, value_max=3, n_tests=50, seed=11)


def identity_filter(arity):
    return Filter(arity, lambda inst: Filtered(inst), name="identity")


def growing_filter(arity):
    """Deliberately non-contracting: adds a value to the first domain."""

    def apply(inst):
        doms = list(inst.domains)
        doms[0] = Domain(list(doms[0].values) + [doms[0].max() + 1])
        return Filtered(Instance(doms))

    return Filter(arity, apply, name="growing")


def arity_dropping_filter(arity):
    """Deliberately non-contracting: returns one variable fewer."""
    return Filter(arity, lambda inst: Filtered(Instance(inst.domains[1:])), name="dropping")


class TestCheck:
    def test_self_comparison_passes_default_campaign_length(self):
        ref = make_reference(ConsistencyLevel.ARC, all_different(5))
        report = check(ref, ref)
        assert report.passed and report.tests_run == 100

    def test_identity_under_filters_and_is_shrunk(self):
        trusted = make_reference(ConsistencyLevel.ARC, all_different(3))
        report = check(trusted, identity_filter(3), CFG3)
        assert not report.passed
        failure = report.failure
        assert failure.shrunk_minimal
        # The shrunk instance still fails and no single removal preserves it.
        def fails(inst):
            t = trusted.apply(inst)
            s = Filtered(inst)
            return t is INCONSISTENT or t.instance != inst

        assert fails(failure.shrunk)
        for i, d in enumerate(failure.shrunk.domains):
            if len(d) == 1:
                continue
            for v in d:
                doms = list(failure.shrunk.domains)
                doms[i] = doms[i].remove(v)
                assert not fails(Instance(doms))

    def test_arity_mismatch_is_contract_error(self):
        with pytest.raises(ContractViolationError, match="filter arity mismatch"):
            check(identity_filter(2), identity_filter(3), CFG3)
        with pytest.raises(ContractViolationError, match="configured n_vars 3"):
            check(identity_filter(2), identity_filter(2), CFG3)

    def test_non_contracting_reported_with_reason(self):
        for trusted, tested, side in [
            (identity_filter(3), growing_filter(3), "tested"),
            (growing_filter(3), identity_filter(3), "trusted"),
            (identity_filter(3), arity_dropping_filter(3), "tested"),
        ]:
            report = check(trusted, tested, CFG3)
            assert not report.passed
            assert report.failure.reason == f"{side} filter returned a non-contracting result"

    def test_inconsistency_disagreement_names_the_side(self):
        always_empty = Filter(3, lambda inst: INCONSISTENT, name="empty")
        report = check(identity_filter(3), always_empty, CFG3)
        assert not report.passed
        assert "tested" in report.failure.reason
        assert "inconsistency" in report.failure.reason

    def test_failure_that_does_not_repeat_is_a_contract_violation(self):
        calls = []

        def fails_once(inst):
            calls.append(inst)
            return INCONSISTENT if len(calls) == 1 else Filtered(inst)

        with pytest.raises(ContractViolationError, match="no longer fails"):
            check(identity_filter(3), Filter(3, fails_once, name="fails-once"), CFG3)

    def test_draws_a_reference_cannot_decide_are_skipped_and_counted(self):
        capped = make_reference(ConsistencyLevel.ARC, all_different(3), cap=9)
        report = check(capped, capped, CFG3)
        rng = SplitMix64(CFG3.seed)
        skipped = decided = 0
        while decided < CFG3.n_tests:
            try:
                arc_filter(all_different(3), generate_instance(rng, CFG3), cap=9)
                decided += 1
            except EnumerationCapExceeded:
                skipped += 1
        assert report.passed and report.tests_run == CFG3.n_tests
        assert report.redraws == skipped > 0

    def test_shrink_candidate_past_the_cap_is_not_kept(self):
        # At this seed the failing instance fits cap 3, but a removal the
        # shrinker tries makes a support search pass it.
        capped = make_reference(ConsistencyLevel.ARC, all_different(3), cap=3)
        cfg = GenConfig(n_vars=3, value_min=-3, value_max=3, n_tests=50, seed=32)
        report = check(capped, identity_filter(3), cfg)
        assert not report.passed
        assert capped.apply(report.failure.shrunk) == report.failure.trusted_outcome

    def test_determinism_same_seed_same_report(self):
        trusted = make_reference(ConsistencyLevel.ARC, all_different(3))
        a = check(trusted, identity_filter(3), CFG3)
        b = check(trusted, identity_filter(3), CFG3)
        assert a == b


class TestStronger:
    def test_hierarchy_boundz_vs_arc(self):
        cfg = GenConfig(n_vars=3, value_min=-3, value_max=3, n_tests=50, seed=4)
        trusted = make_reference(ConsistencyLevel.BOUND_Z, sum_equals(3, 3))
        tested = make_reference(ConsistencyLevel.ARC, sum_equals(3, 3))
        assert stronger(trusted, tested, cfg).passed

    def test_reflexive(self):
        f = make_reference(ConsistencyLevel.ARC, all_different(3))
        assert stronger(f, f, CFG3).passed

    def test_under_filtering_tested_fails(self):
        trusted = make_reference(ConsistencyLevel.ARC, all_different(3))
        report = stronger(trusted, identity_filter(3), CFG3)
        assert not report.passed
        assert not pointwise_subset(
            report.failure.tested_outcome, report.failure.trusted_outcome
        )

    def test_equality_implies_mutual_inclusion(self):
        ref = make_reference(ConsistencyLevel.ARC, all_different(3))
        other = make_reference(ConsistencyLevel.ARC, all_different(3))
        assert check(ref, other, CFG3).passed
        assert stronger(ref, other, CFG3).passed
        assert stronger(other, ref, CFG3).passed


# Hand-made outcomes of filtering ROOT = [0, 1] x [0, 1].
ROOT = Instance.of([[0, 1], [0, 1]])
SAME = Filtered(ROOT)
LOW = Filtered(Instance.of([[0], [0, 1]]))
HIGH = Filtered(Instance.of([[1], [0, 1]]))
GROWN = Filtered(Instance.of([[0, 1, 2], [0, 1]]))
SHORT = Filtered(Instance.of([[0, 1]]))  # another arity: not contracting
EQ, INCL = ComparisonMode.EQUALITY, ComparisonMode.TESTED_SUBSET_OF_TRUSTED
TRUSTED_GROWS = "trusted filter returned a non-contracting result"
TESTED_GROWS = "tested filter returned a non-contracting result"
NOT_INCLUDED = "tested outcome is not pointwise included in the trusted outcome"
ONLY_TESTED = "outcomes differ: only the tested filter claimed inconsistency"
ONLY_TRUSTED = "outcomes differ: only the trusted filter claimed inconsistency"
UNEQUAL = "outcomes differ under equality comparison"


class TestComparisonModeReason:
    @pytest.mark.parametrize(
        "mode,trusted,tested,reason",
        [
            (EQ, SAME, SAME, None),
            (EQ, LOW, LOW, None),
            (EQ, INCONSISTENT, INCONSISTENT, None),
            (EQ, GROWN, SAME, TRUSTED_GROWS),
            (EQ, SAME, GROWN, TESTED_GROWS),
            (EQ, SAME, SHORT, TESTED_GROWS),
            (EQ, GROWN, SHORT, TRUSTED_GROWS),
            (EQ, SHORT, GROWN, TRUSTED_GROWS),
            (EQ, GROWN, INCONSISTENT, TRUSTED_GROWS),
            (EQ, SAME, INCONSISTENT, ONLY_TESTED),
            (EQ, INCONSISTENT, LOW, ONLY_TRUSTED),
            (EQ, LOW, HIGH, UNEQUAL),
            (EQ, SAME, LOW, UNEQUAL),
            (INCL, SAME, SAME, None),
            (INCL, SAME, LOW, None),
            (INCL, LOW, INCONSISTENT, None),
            (INCL, INCONSISTENT, INCONSISTENT, None),
            (INCL, GROWN, SAME, TRUSTED_GROWS),
            (INCL, SAME, GROWN, TESTED_GROWS),
            (INCL, SAME, SHORT, TESTED_GROWS),
            (INCL, SHORT, GROWN, TRUSTED_GROWS),
            (INCL, LOW, SAME, NOT_INCLUDED),
            (INCL, LOW, HIGH, NOT_INCLUDED),
            (INCL, INCONSISTENT, LOW, NOT_INCLUDED),
        ],
    )
    def test_reason(self, mode, trusted, tested, reason):
        assert mode.reason(ROOT, trusted, tested) == reason


class TestReportInvariant:
    # Reached through the module so pytest does not collect TestReport.
    def failure(self):
        inst = Instance.of([[1]])
        return Failure(inst, inst, INCONSISTENT, Filtered(inst), "differ")

    def test_passed_follows_failure(self):
        failing = propcheck.TestReport(tests_run=1, seed=0, failure=self.failure())
        assert failing.passed is False
        assert failing._replace(failure=None).passed is True
        assert propcheck.TestReport(tests_run=1, seed=0).passed is True

    # The verdict is not a field, so no report can state one that
    # disagrees with its failure.
    def test_passing_report_with_failure_is_rejected(self):
        failing = propcheck.TestReport(tests_run=1, seed=0, failure=self.failure())
        with pytest.raises(TypeError):
            propcheck.TestReport(passed=True, tests_run=1, seed=0, failure=self.failure())
        with pytest.raises(ValueError):
            failing._replace(passed=True)
        with pytest.raises(AttributeError):
            failing.passed = True

    def test_failing_report_without_failure_is_rejected(self):
        passing = propcheck.TestReport(tests_run=1, seed=0)
        with pytest.raises(TypeError):
            propcheck.TestReport(passed=False, tests_run=1, seed=0)
        with pytest.raises(ValueError):
            passing._replace(passed=False)
        with pytest.raises(AttributeError):
            passing.passed = False


class TestAssertions:
    def test_filter_as_passes(self):
        ref = make_reference(ConsistencyLevel.ARC, all_different(3))
        assert_that(ref, CFG3).filter_as(
            make_reference(ConsistencyLevel.ARC, all_different(3))
        )

    def test_at_least_as_strong_as_reflexive(self):
        f = make_reference(ConsistencyLevel.ARC, all_different(3))
        assert_that(f, CFG3).at_least_as_strong_as(f)

    def test_at_least_as_strong_as_reads_forwards(self):
        # Forward checking prunes less than arc consistency, not more.
        arc = make_reference(ConsistencyLevel.ARC, all_different(5))
        fc = as_filter(all_different_fc(), 5)
        assert_that(arc).at_least_as_strong_as(fc)
        with pytest.raises(FilterAssertionError) as exc:
            assert_that(fc).at_least_as_strong_as(arc)
        assert str(exc.value).startswith("at_least_as_strong_as(arc:alldiff) failed")

    def test_chain_conjunction(self):
        arc = make_reference(ConsistencyLevel.ARC, all_different(3))
        boundz = make_reference(ConsistencyLevel.BOUND_Z, all_different(3))
        assert_that(arc, CFG3).filter_as(arc).at_least_as_strong_as(boundz)

    def test_failure_carries_report(self):
        arc = make_reference(ConsistencyLevel.ARC, all_different(3))
        with pytest.raises(FilterAssertionError) as exc:
            assert_that(identity_filter(3), CFG3).filter_as(arc)
        report = exc.value.report
        assert not report.passed
        assert report.failure.shrunk is not None
        assert "shrunk counterexample" in str(exc.value)
