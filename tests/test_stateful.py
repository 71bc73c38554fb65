"""Branching operations, the frame rules of both stateful subjects, and
random dives."""

import pytest

from propcheck import (
    INCONSISTENT,
    POP,
    PUSH,
    ConsistencyLevel,
    ContractViolationError,
    DiveConfig,
    EnumerationCapExceeded,
    Filter,
    Filtered,
    GenConfig,
    IncrementalFiltering,
    Instance,
    RestrictDomain,
    SplitMix64,
    all_different,
    all_different_ac,
    apply_restriction,
    as_filter_with_state,
    dive_campaign,
    dives,
    make_reference,
    random_restriction,
    replay,
    sum_equals,
)
from propcheck import stateful
from propcheck.stateful import incremental_factory


def arc_alldiff(arity):
    return make_reference(ConsistencyLevel.ARC, all_different(arity))


class TestApplyRestriction:
    @pytest.mark.parametrize(
        "relation,constant,expected",
        [
            ("=", 2, [2]),
            ("!=", 2, [1, 3]),
            ("<", 3, [1, 2]),
            (">", 1, [2, 3]),
        ],
    )
    def test_relations(self, relation, constant, expected):
        inst = Instance.of([[1, 2, 3], [5]])
        got = apply_restriction(inst, RestrictDomain(0, relation, constant))
        assert got == Filtered(Instance.of([expected, [5]]))

    def test_emptied_domain_is_inconsistent(self):
        inst = Instance.of([[1, 2]])
        assert apply_restriction(inst, RestrictDomain(0, "=", 7)) is INCONSISTENT

    def test_index_out_of_range(self):
        with pytest.raises(ContractViolationError):
            apply_restriction(Instance.of([[1]]), RestrictDomain(1, "=", 1))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            RestrictDomain(0, "<=", 1)


class TestRandomRestriction:
    def test_targets_unfixed_variable_with_domain_constant(self):
        inst = Instance.of([[4], [1, 2, 3], [9]])
        rng = SplitMix64(5)
        for _ in range(50):
            r = random_restriction(rng, inst)
            assert r.index == 1
            assert r.constant in (1, 2, 3)

    def test_all_fixed_rejected(self):
        with pytest.raises(ContractViolationError):
            random_restriction(SplitMix64(0), Instance.of([[1], [2]]))

    def test_deterministic(self):
        inst = Instance.of([[1, 2], [3, 4, 5]])
        a = [random_restriction(SplitMix64(9), inst) for _ in range(1)][0]
        b = [random_restriction(SplitMix64(9), inst) for _ in range(1)][0]
        assert a == b


def subjects(arity):
    """The snapshot adapter and the solver-backed subject, both filtering
    alldiff to arc consistency; they share one set of frame rules."""
    return [IncrementalFiltering(arc_alldiff(arity)), as_filter_with_state(all_different_ac(), arity)]


class TestIncrementalFiltering:
    """The frame rules, checked on both subjects."""

    def test_setup_push_restrict_pop_round_trip(self):
        for f in subjects(3):
            root = Instance.of([[1, 2], [1, 2], [1, 2, 3]])
            after_setup = f.setup(root)
            assert after_setup == Filtered(Instance.of([[1, 2], [1, 2], [3]]))
            f.branch_and_filter(PUSH)
            restricted = f.branch_and_filter(RestrictDomain(0, "=", 1))
            assert restricted == Filtered(Instance.of([[1], [2], [3]]))
            popped = f.branch_and_filter(POP)
            assert popped == after_setup

    def test_nested_frames_restore_each_saved_outcome(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3]])
        ops = [PUSH, RestrictDomain(0, "!=", 1), PUSH, RestrictDomain(0, "=", 2), POP, POP]
        for f in subjects(2):
            assert f.setup(root) == Filtered(root)
            outcomes = [f.branch_and_filter(op) for op in ops]
            assert outcomes == [
                Filtered(root),
                Filtered(Instance.of([[2, 3], [1, 2, 3]])),
                Filtered(Instance.of([[2, 3], [1, 2, 3]])),
                Filtered(Instance.of([[2], [1, 3]])),
                Filtered(Instance.of([[2, 3], [1, 2, 3]])),
                Filtered(root),
            ]

    def test_restriction_to_inconsistency_sticks_until_pop(self):
        for f in subjects(2):
            f.setup(Instance.of([[1, 2], [1, 2]]))
            f.branch_and_filter(PUSH)
            assert f.branch_and_filter(RestrictDomain(0, ">", 5)) is INCONSISTENT
            # Further operations inside the failed frame stay inconsistent.
            for op in (RestrictDomain(1, "=", 1), PUSH, POP):
                assert f.branch_and_filter(op) is INCONSISTENT, op
            assert f.branch_and_filter(POP) == Filtered(Instance.of([[1, 2], [1, 2]]))

    def test_a_pop_that_changes_nothing_returns_the_saved_outcome(self):
        for f in subjects(3):
            saved = f.setup(Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]]))
            f.branch_and_filter(PUSH)
            f.branch_and_filter(RestrictDomain(0, "=", 1))
            assert f.branch_and_filter(POP) is saved, type(f).__name__

    def test_pop_without_push_is_contract_error(self):
        for f in subjects(1):
            f.setup(Instance.of([[1]]))
            with pytest.raises(ContractViolationError, match="^pop with no open frame$"):
                f.branch_and_filter(POP)

    def test_setup_twice_rejected(self):
        for f in subjects(1):
            f.setup(Instance.of([[1]]))
            with pytest.raises(ContractViolationError, match="^setup called twice$"):
                f.setup(Instance.of([[2]]))

    def test_branch_before_setup_rejected(self):
        for f in subjects(1):
            with pytest.raises(ContractViolationError, match="^branch_and_filter before setup$"):
                f.branch_and_filter(PUSH)


def counted_filter(arity, calls, apply=Filtered):
    """A filter that appends each instance it is applied to to `calls`."""

    def counted(inst):
        calls.append(inst)
        return apply(inst)

    return Filter(arity, counted, name="counted")


class TestIncrementalFactory:
    """The subjects of one factory share a bounded memo of its filter's outcomes."""

    ROOT = Instance.of([[1, 2], [1, 2]])

    def test_subjects_of_one_factory_filter_an_instance_once(self):
        calls = []
        make = incremental_factory(counted_filter(2, calls))
        first = make()
        outcome = first.setup(self.ROOT)
        second = make()
        assert second is not first and second.setup(self.ROOT) is outcome
        first.branch_and_filter(PUSH)
        second.branch_and_filter(PUSH)
        op = RestrictDomain(0, "=", 1)
        assert first.branch_and_filter(op) is second.branch_and_filter(op)
        assert calls == [self.ROOT, Instance.of([[1], [1, 2]])]

    def test_two_factories_share_no_memo(self):
        calls = []
        base = counted_filter(2, calls)
        for _ in range(2):
            incremental_factory(base)().setup(self.ROOT)
        assert calls == [self.ROOT, self.ROOT]

    def test_a_raising_filter_is_asked_again(self):
        calls = []

        def over_the_cap(inst):
            raise EnumerationCapExceeded("over the cap")

        make = incremental_factory(counted_filter(2, calls, over_the_cap))
        for _ in range(2):
            with pytest.raises(EnumerationCapExceeded):
                make().setup(self.ROOT)
        assert calls == [self.ROOT, self.ROOT]

    def test_the_memo_keeps_the_most_recently_used_outcomes(self, monkeypatch):
        monkeypatch.setattr(stateful, "SHARED_OUTCOMES", 2)
        calls = []
        make = incremental_factory(counted_filter(1, calls))
        roots = [Instance.of([[v]]) for v in (1, 2, 3, 1)]
        for root in roots:
            make().setup(root)
        assert calls == roots  # [1] was dropped for [3], so it is asked again


class IdentityStateful(IncrementalFiltering):
    """Stateful subject around a filter that never prunes anything."""

    def __init__(self, arity):
        super().__init__(Filter(arity, Filtered, name="identity"))


class RaisingAfterSetup(IncrementalFiltering):
    """Raises on every branching operation; treated as inconsistency claims."""

    def __init__(self, base):
        super().__init__(base)

    def branch_and_filter(self, op):
        raise RuntimeError("boom")


class TestDives:
    def test_self_comparison_passes(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        report = dives(
            root,
            IncrementalFiltering(arc_alldiff(3)),
            IncrementalFiltering(arc_alldiff(3)),
            DiveConfig(nb_dives=10, seed=3),
        )
        assert report.passed and report.tests_run == 10

    def test_all_fixed_root_terminates_immediately(self):
        root = Instance.of([[1], [2]])
        report = dives(
            root,
            IncrementalFiltering(arc_alldiff(2)),
            IncrementalFiltering(arc_alldiff(2)),
            DiveConfig(nb_dives=5, seed=0),
        )
        assert report.passed
        assert report.tests_run == 1  # nothing left to explore after one dive

    def test_setup_mismatch_reported_with_empty_transcript(self):
        root = Instance.of([[1, 2], [1, 2], [1, 2]])  # pigeonhole for alldiff
        report = dives(
            root,
            IncrementalFiltering(make_reference(ConsistencyLevel.BOUND_Z, all_different(3))),
            IdentityStateful(3),
            DiveConfig(nb_dives=3, seed=1),
        )
        assert not report.passed
        assert "setup" in report.failure.reason
        assert report.failure.transcript == ()

    def test_weaker_tested_caught_mid_dive_with_transcript(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        report = dives(
            root,
            IncrementalFiltering(arc_alldiff(3)),
            IdentityStateful(3),
            DiveConfig(nb_dives=10, seed=2),
        )
        assert not report.passed
        assert report.failure.transcript
        assert isinstance(report.failure.transcript[-1], RestrictDomain)

    def test_raising_subject_counts_as_inconsistency_claim(self):
        root = Instance.of([[1, 2], [1, 2, 3]])
        report = dives(
            root,
            IncrementalFiltering(arc_alldiff(2)),
            RaisingAfterSetup(arc_alldiff(2)),
            DiveConfig(nb_dives=3, seed=0),
        )
        assert not report.passed
        assert report.failure.tested_outcome is INCONSISTENT

    def test_max_depth_warning(self, caplog):
        root = Instance.of([[1, 2, 3, 4]] * 2)
        keep_open = Filter(2, Filtered, name="identity")
        with caplog.at_level("WARNING"):
            dives(
                root,
                IncrementalFiltering(keep_open),
                IncrementalFiltering(keep_open),
                DiveConfig(nb_dives=1, max_depth=1, seed=4),
            )
        assert any("max_depth" in r.message for r in caplog.records)

    def test_transcript_replays_to_same_mismatch(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        cfg = DiveConfig(nb_dives=10, seed=2)
        first = dives(root, IncrementalFiltering(arc_alldiff(3)), IdentityStateful(3), cfg)
        second = dives(root, IncrementalFiltering(arc_alldiff(3)), IdentityStateful(3), cfg)
        assert first == second

    def test_replay_returns_the_recorded_failure(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        cfg = DiveConfig(nb_dives=10, seed=2)

        def subjects():
            return IncrementalFiltering(arc_alldiff(3)), IdentityStateful(3)

        failure = dives(root, *subjects(), cfg).failure
        assert failure is not None and failure.transcript
        assert replay(root, failure.transcript, *subjects()) == failure

    def test_replay_of_agreeing_subjects_is_none(self):
        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        transcript = (PUSH, RestrictDomain(0, "=", 1), POP)
        subjects = [IncrementalFiltering(arc_alldiff(3)) for _ in range(2)]
        assert replay(root, transcript, *subjects) is None

    def test_dive_config_validation(self):
        with pytest.raises(ValueError):
            DiveConfig(nb_dives=0)
        with pytest.raises(ValueError):
            DiveConfig(max_depth=0)


class TestDiveCampaign:
    def test_self_comparison_passes(self):
        report = dive_campaign(
            lambda: IncrementalFiltering(arc_alldiff(4)),
            lambda: IncrementalFiltering(arc_alldiff(4)),
            GenConfig(n_vars=4, value_min=-3, value_max=3, seed=8),
            DiveConfig(nb_dives=10, seed=8),
        )
        assert report.passed

    def test_failure_is_shrunk_and_reproducible(self):
        gen_cfg = GenConfig(n_vars=3, value_min=-2, value_max=2, seed=1)
        dive_cfg = DiveConfig(nb_dives=10, seed=1)
        trusted = lambda: IncrementalFiltering(
            make_reference(ConsistencyLevel.ARC, sum_equals(0, 3))
        )
        report = dive_campaign(trusted, lambda: IdentityStateful(3), gen_cfg, dive_cfg)
        assert not report.passed
        failure = report.failure
        assert failure.shrunk_minimal
        assert failure.transcript is not None
        # Campaigns with the same configuration reproduce the same failure.
        again = dive_campaign(trusted, lambda: IdentityStateful(3), gen_cfg, dive_cfg)
        assert again == report

    def capped_tested_campaign(self, gen_cfg):
        return dive_campaign(
            lambda: IncrementalFiltering(arc_alldiff(3)),
            lambda: IncrementalFiltering(
                make_reference(ConsistencyLevel.ARC, all_different(3), cap=1)
            ),
            gen_cfg,
            DiveConfig(),
        )

    def test_tested_reference_past_its_cap_is_skipped_not_blamed(self):
        # A tested reference that exceeds its cap has not claimed
        # inconsistency: the root is skipped, until one fits the cap.
        report = self.capped_tested_campaign(GenConfig(n_vars=3, seed=1))
        assert report.passed and report.redraws > 0

    def test_campaign_ends_after_max_redraws_skipped_roots(self):
        # Every root is the full 4x4x4 box, which no search fits with cap=1.
        with pytest.raises(EnumerationCapExceeded, match="1000 draws in a row"):
            self.capped_tested_campaign(
                GenConfig(n_vars=3, value_min=0, value_max=3, density=1.0, seed=1)
            )

    def test_failure_that_does_not_repeat_is_a_contract_violation(self):
        setups = []

        class FailsOnce(IncrementalFiltering):
            def setup(self, root):
                setups.append(root)
                out = super().setup(root)
                return INCONSISTENT if len(setups) == 1 else out

        with pytest.raises(ContractViolationError):
            dive_campaign(
                lambda: IncrementalFiltering(arc_alldiff(3)),
                lambda: FailsOnce(arc_alldiff(3)),
                GenConfig(n_vars=3, value_min=-2, value_max=2, seed=1),
                DiveConfig(nb_dives=2, seed=1),
            )
