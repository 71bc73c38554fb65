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


class TestReportInvariant:
    # Reached through the module so pytest does not collect TestReport.
    def failure(self):
        inst = Instance.of([[1]])
        return Failure(
            inst, inst, INCONSISTENT, Filtered(inst), "differ"
        )

    def test_passing_report_with_failure_is_rejected(self):
        with pytest.raises(ValueError):
            propcheck.TestReport(passed=True, tests_run=1, seed=0, failure=self.failure())

    def test_failing_report_without_failure_is_rejected(self):
        with pytest.raises(ValueError):
            propcheck.TestReport(passed=False, tests_run=1, seed=0)


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
