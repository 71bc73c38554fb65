"""The micro-solver, its propagators, the solver-backed stateful subject
(domains saved on push, put back on pop), and the seeded bugs."""

import contextlib
import hashlib
import io
import itertools

import pytest

from propcheck import (
    INCONSISTENT,
    POP,
    PUSH,
    AllDifferentAC,
    AllDifferentFC,
    BugId,
    ConsistencyLevel,
    ContractViolationError,
    DiveConfig,
    Domain,
    Filtered,
    GenConfig,
    Inconsistency,
    IncrementalFiltering,
    Instance,
    Pop,
    Push,
    RestrictDomain,
    Solver,
    SplitMix64,
    SumEqualsBC,
    all_different,
    all_different_ac,
    all_different_fc,
    arc_filter,
    as_filter,
    as_filter_with_state,
    bound_z_filter,
    check,
    dives,
    generate_instance,
    make_reference,
    pointwise_equal,
    pointwise_subset,
    replay,
    sum_equals,
    sum_equals_bc,
    with_bug,
)
from propcheck import minisolver
from propcheck.cli import main as cli_main
from propcheck.minisolver import RECIPES, Propagator, SolverBackedStateful
from propcheck.stateful import restricted


class Idle(Propagator):
    """A propagator that removes nothing."""

    def propagate(self, solver):
        pass


def solver_with(values_lists, propagator=None):
    return Solver([Domain(vs) for vs in values_lists], propagator or Idle())


def propagated(values_lists, propagator):
    """A solver over `values_lists` and `propagator`, run to its fixpoint."""
    solver = solver_with(values_lists, propagator)
    solver.fixpoint()
    return solver


def domains_of(solver):
    return [list(d) for d in solver.doms]


class TestTrail:
    def test_variables_are_indices(self):
        solver = solver_with([[2, 1], [3]])
        assert solver.doms == [(1, 2), (3,)]
        with pytest.raises(Inconsistency, match="non-empty domain"):
            solver_with([[1], []])

    def test_building_a_solver_runs_nothing(self, counting_sum_bc):
        solver = solver_with([list(range(1, 11)), [2, 3]], counting_sum_bc(7))
        assert counting_sum_bc.runs == 0
        assert domains_of(solver) == [list(range(1, 11)), [2, 3]]
        solver.fixpoint()
        assert counting_sum_bc.runs == 2  # the second run removes nothing
        assert domains_of(solver) == [[4, 5], [2, 3]]

    def test_push_remove_pop_restores_exactly(self):
        # A pop puts the very domains saved at the push back in the solver.
        subject, x = as_filter_with_state(all_different_fc(), 1), 0
        root = subject.setup(Instance.of([[1, 2, 3]]))
        solver = subject._solver
        saved = solver.doms.copy()
        subject.branch_and_filter(PUSH)
        subject.branch_and_filter(RestrictDomain(x, "!=", 2))
        assert solver.doms[x] == (1, 3)
        assert subject.branch_and_filter(POP) == root
        assert subject._solver is solver
        assert all(map(lambda a, b: a is b, solver.doms, saved))

    def test_nested_frames(self):
        subject, x = as_filter_with_state(all_different_fc(), 1), 0
        subject.setup(Instance.of([[1, 2, 3, 4]]))
        solver, saved = subject._solver, []
        for op in (RestrictDomain(x, "<", 4), RestrictDomain(x, ">", 2)):
            saved.append(solver.doms.copy())
            subject.branch_and_filter(PUSH)
            subject.branch_and_filter(op)
        assert solver.doms[x] == (3,)
        subject.branch_and_filter(POP)
        assert solver.doms[x] == (1, 2, 3) and solver.doms[x] is saved[1][x]
        subject.branch_and_filter(POP)
        assert solver.doms[x] == (1, 2, 3, 4) and solver.doms[x] is saved[0][x]

    def test_pop_with_no_frame_rejected(self):
        # The rejected pop leaves the solver's domains as they were.
        subject = as_filter_with_state(all_different_fc(), 1)
        root = subject.setup(Instance.of([[1, 2]]))
        doms = subject._solver.doms.copy()
        with pytest.raises(ContractViolationError, match="^pop with no open frame$"):
            subject.branch_and_filter(POP)
        assert subject._solver.doms == doms
        assert subject.branch_and_filter(PUSH) == root

    def test_empty_domain_raises_inconsistency(self):
        solver, x = solver_with([[1, 2]]), 0
        with pytest.raises(Inconsistency):
            solver.remove_above(x, 0)
        assert solver.doms[x] == (1, 2)

    def test_removing_an_absent_value_changes_nothing(self):
        solver = propagated([[1, 3], [1, 2, 3]], AllDifferentFC())
        dom = solver.doms[0]
        assert solver.remove_value(0, 2) is False
        assert solver.doms[0] is dom

    def test_assign_outside_domain(self):
        solver, x = solver_with([[1, 2]]), 0
        with pytest.raises(Inconsistency):
            solver.keep(x, restricted(solver.doms, RestrictDomain(x, "=", 5)))

    def test_reads_follow_nested_frames(self):
        # Every removal stores a new domain and leaves the saved lists as
        # they were, and every saved list put back shows in the next read.
        solver, x = solver_with([[5, 1, 4, 2, 3]]), 0
        assert solver.doms[x] == (1, 2, 3, 4, 5)
        root = solver.doms.copy()
        assert solver.remove_below(x, 2)
        assert not solver.remove_below(x, 2) and not solver.remove_above(x, 5)
        assert solver.doms[x] == (2, 3, 4, 5)
        first = solver.doms.copy()
        assert solver.remove_above(x, 4)
        assert solver.doms[x] == (2, 3, 4)
        second = solver.doms.copy()
        assert solver.keep(x, (3,))
        assert solver.doms[x] == (3,)
        solver.doms = second
        assert solver.doms[x] == (2, 3, 4)
        solver.doms = first
        assert solver.doms[x] == (2, 3, 4, 5)
        solver.doms = root
        assert solver.doms[x] == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("empty", ["remove_below", "remove_above", "assign"])
    def test_reads_after_an_emptying_removal_and_pop(self, empty):
        solver, (x, y) = solver_with([[1, 2, 3], [7, 8]]), (0, 1)
        root = solver.doms.copy()
        solver.remove_value(y, 8)
        assert solver.doms[x] == (1, 2, 3)
        first = solver.doms.copy()
        solver.remove_value(x, 2)
        assert solver.doms[x] == (1, 3)
        emptying = {
            "remove_below": lambda: solver.remove_below(x, 4),
            "remove_above": lambda: solver.remove_above(x, 0),
            "assign": lambda: solver.keep(x, restricted(solver.doms, RestrictDomain(x, "=", 2))),
        }[empty]
        with pytest.raises(Inconsistency):
            emptying()
        assert solver.doms[x] == (1, 3)
        solver.doms = first
        assert solver.doms == [(1, 2, 3), (7,)]
        solver.doms = root
        assert solver.doms[y] == (7, 8)

    @pytest.mark.parametrize(
        "remove, bound", [("remove_below", 2), ("remove_below", -5), ("remove_above", 4),
                          ("remove_above", 9)],
    )
    def test_a_bound_that_removes_nothing_queues_nothing(self, remove, bound):
        # It answers False, so the solver-backed subject runs no propagator.
        solver = propagated([[2, 3, 4], [1, 5]], SumEqualsBC(7))
        dom = solver.doms[0]
        assert getattr(solver, remove)(0, bound) is False
        assert solver.doms[0] is dom

    @pytest.mark.parametrize("remove, bound", [("remove_below", 5), ("remove_above", 1)])
    def test_an_emptying_bound_leaves_the_domain_as_it_was(self, remove, bound):
        solver = propagated([[2, 3, 4], [1, 5]], SumEqualsBC(7))
        dom = solver.doms[0]
        with pytest.raises(Inconsistency):
            getattr(solver, remove)(0, bound)
        assert solver.doms[0] is dom


class TestSumEqualsBC:
    def test_raises_lower_bound(self):
        solver = propagated([list(range(1, 11)), [2, 3], [2, 3]], SumEqualsBC(15))
        assert domains_of(solver) == [[9, 10], [2, 3], [2, 3]]

    def test_detects_inconsistency(self):
        with pytest.raises(Inconsistency):
            propagated([[1, 2], [1, 2], [1, 2]], SumEqualsBC(10))

    def test_incremental_after_restriction(self):
        solver = propagated([[1, 2, 3], [1, 2, 3]], SumEqualsBC(4))
        solver.keep(0, (1,))
        solver.fixpoint()
        assert domains_of(solver) == [[1], [3]]


class TestAllDifferentFC:
    def test_prunes_fixed_values(self):
        solver = propagated([[1], [1, 2], [1, 2, 3]], AllDifferentFC())
        assert domains_of(solver) == [[1], [2], [3]]

    def test_chain_of_fixings(self):
        solver = propagated([[1], [1, 2], [2, 3]], AllDifferentFC())
        assert domains_of(solver) == [[1], [2], [3]]

    def test_weaker_than_ac_on_pigeonhole(self):
        # FC sees no fixed variable, so it leaves the pigeonhole alone.
        solver = propagated([[1, 2], [1, 2], [1, 2, 3]], AllDifferentFC())
        assert domains_of(solver) == [[1, 2], [1, 2], [1, 2, 3]]


class CountingAC(AllDifferentAC):
    """AllDifferentAC that counts its full runs: each repairs the matching."""

    repairs = 0

    def _repair_matching(self, doms):
        self.repairs += 1
        return super()._repair_matching(doms)


class AlwaysFullAC(CountingAC):
    """AllDifferentAC that never remembers the domains it left, so every
    run is a full run."""

    _left = property(lambda self: None, lambda self, value: None)


class TestAllDifferentAC:
    def test_regin_example(self):
        solver = propagated([[1, 2], [1, 2], [1, 2, 3]], AllDifferentAC())
        assert domains_of(solver) == [[1, 2], [1, 2], [3]]

    def test_pigeonhole_inconsistent(self):
        with pytest.raises(Inconsistency):
            propagated([[1, 2], [1, 2], [1, 2]], AllDifferentAC())

    def test_matching_survives_backtracking(self):
        solver = propagated([[1, 2, 3], [1, 2, 3], [1, 2, 3]], AllDifferentAC())
        saved = solver.doms.copy()
        solver.keep(0, (1,))
        solver.fixpoint()
        assert domains_of(solver) == [[1], [2, 3], [2, 3]]
        solver.doms = saved
        solver.fixpoint()
        assert domains_of(solver) == [[1, 2, 3]] * 3

    def test_no_full_run_at_its_own_fixpoint(self):
        ac = CountingAC()
        solver = propagated([[1, 2], [1, 2], [1, 2, 3]], ac)
        # pruning x2 ran it again on the domains it left
        assert domains_of(solver) == [[1, 2], [1, 2], [3]]
        assert ac.repairs == 1
        solver.fixpoint()
        assert ac.repairs == 1

    def test_full_run_after_a_pop_that_restores_other_domains(self):
        ac = CountingAC()
        solver = propagated([[1, 2, 3]] * 3, ac)
        saved = solver.doms.copy()
        solver.keep(0, (1,))
        solver.fixpoint()
        assert ac.repairs == 2
        solver.doms = saved
        solver.fixpoint()
        assert ac.repairs == 3
        assert domains_of(solver) == [[1, 2, 3]] * 3

    def test_full_run_after_a_run_that_raised(self):
        ac = CountingAC()
        solver = propagated([[1, 2], [1, 2, 3], [1, 2, 3]], ac)
        left = solver.doms.copy()
        saved = solver.doms.copy()
        solver.keep(1, (1,))
        solver.keep(2, (2,))
        with pytest.raises(Inconsistency):
            solver.fixpoint()
        assert ac.repairs == 2
        solver.doms = saved
        # The very domains the last completed run left, but the failed run
        # since then has moved the matching.
        assert all(map(lambda a, b: a is b, solver.doms, left))
        solver.fixpoint()
        assert ac.repairs == 3
        assert domains_of(solver) == [[1, 2], [1, 2, 3], [1, 2, 3]]

    @pytest.mark.parametrize("seed", range(8))
    def test_trail_bug_cache_grows_as_under_full_runs(self, seed):
        # The early return still adds the variables fixed now to the
        # unrestored cache, so the stale cache, and with it the bug, is
        # the same as when every run is a full run.
        root = generate_instance(SplitMix64(seed), GenConfig(n_vars=5, value_min=0, value_max=5))

        def drive(cls):
            ac = cls(BugId.BUG_TRAIL_NO_RESTORE)
            rng = SplitMix64(seed)
            states, saved = [], []
            try:
                solver = propagated(root, ac)
            except Inconsistency:
                return [], ac
            for _ in range(60):
                unfixed = [x for x, d in enumerate(solver.doms) if len(d) > 1]
                try:
                    if saved and (not unfixed or rng.next_below(3) == 0):
                        solver.doms = saved.pop()
                        solver.fixpoint()
                    elif unfixed:
                        x = unfixed[rng.next_below(len(unfixed))]
                        saved.append(solver.doms.copy())
                        solver.remove_value(x, solver.doms[x][rng.next_below(len(solver.doms[x]))])
                        solver.fixpoint()
                    states.append((solver.doms.copy(), dict(ac._seen_fixed)))
                except Inconsistency:
                    states.append(("inconsistent", dict(ac._seen_fixed)))
            return states, ac

        early, early_ac = drive(CountingAC)
        full, full_ac = drive(AlwaysFullAC)
        assert early == full
        assert early_ac.repairs < full_ac.repairs

    def test_trail_bug_cache_after_an_early_return(self):
        # x1 and x2 become fixed during the first run, after its cache
        # update; the run on the domains it left adds them all the same.
        ac = CountingAC(BugId.BUG_TRAIL_NO_RESTORE)
        solver = propagated([[1], [1, 2], [1, 2, 3]], ac)
        assert ac.repairs == 1
        assert domains_of(solver) == [[1], [2], [3]]
        assert ac._seen_fixed == {0: 1, 1: 2, 2: 3}

    @pytest.mark.parametrize(
        "doms,expected",
        [
            # Matching x0=1, x1=2; value 3 is free. No other domain holds 1,
            # so x0 is on no cycle: it keeps 2 only through the even
            # alternating path 3 - x1 - 2.
            ([[1, 2], [2, 3]], [[1, 2], [2, 3]]),
            # Matching x0=2, x1=3, x2=1 and no free value: x0 keeps 1 only
            # through the alternating cycle x0 -> x1 -> x2 -> x0.
            ([[1, 2], [2, 3], [1, 3]], [[1, 2], [2, 3], [1, 3]]),
            # Matching x0=1, x1=2, x2=3; the free value 4 reaches only x2,
            # and x2 reaches neither x0 nor x1, so x2 loses 1 and 2.
            ([[1, 2], [1, 2], [1, 2, 3, 4]], [[1, 2], [1, 2], [3, 4]]),
        ],
        ids=["kept-through-a-free-value", "kept-through-a-cycle", "removed"],
    )
    def test_pruning_rule(self, doms, expected):
        solver = propagated(doms, AllDifferentAC())
        assert domains_of(solver) == expected

    @pytest.mark.parametrize("arity", [5, 6, 7])
    @pytest.mark.parametrize("width", [-1, 0, 2], ids=["narrower", "equal", "wider"])
    def test_matches_arc_filter_at_larger_arities(self, arity, width):
        # `width` is the number of candidate values minus the arity.
        cfg = GenConfig(n_vars=arity, value_min=0, value_max=arity + width - 1)
        rng = SplitMix64(100 * arity + width)
        ac = as_filter(all_different_ac(), arity)
        checker = all_different(arity)
        for _ in range(200):
            inst = generate_instance(rng, cfg)
            assert pointwise_equal(ac.apply(inst), arc_filter(checker, inst)), inst

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_arc_oracle(self, seed):
        cfg = GenConfig(n_vars=3, value_min=-2, value_max=3, seed=seed)
        inst = generate_instance(SplitMix64(seed), cfg)
        got = as_filter(all_different_ac(), 3).apply(inst)
        assert pointwise_equal(got, arc_filter(all_different(3), inst))

    @pytest.mark.parametrize("seed", range(6))
    def test_fc_weaker_than_ac(self, seed):
        cfg = GenConfig(n_vars=4, value_min=-2, value_max=3, seed=seed + 70)
        inst = generate_instance(SplitMix64(seed + 70), cfg)
        ac = as_filter(all_different_ac(), 4).apply(inst)
        fc = as_filter(all_different_fc(), 4).apply(inst)
        assert pointwise_subset(ac, fc)


class TestRecipes:
    def test_display_names(self):
        assert sum_equals_bc(5).display_name() == "sum-bc:5"
        buggy = with_bug(BugId.BUG_ALLDIFF_FC_SKIP_LAST, all_different_fc())
        assert buggy.display_name() == "alldiff-fc+bug:BUG_ALLDIFF_FC_SKIP_LAST"

    def test_with_bug_none_is_identity_behaviour(self):
        inst = Instance.of([[1], [1, 2], [1, 2, 3]])
        plain = as_filter(all_different_fc(), 3).apply(inst)
        tagged = as_filter(with_bug(BugId.NONE, all_different_fc()), 3).apply(inst)
        assert plain == tagged

    def test_incompatible_bug_rejected(self):
        with pytest.raises(ContractViolationError):
            with_bug(BugId.BUG_SUM_REVERSED_BOUND, all_different_fc())
        with pytest.raises(ContractViolationError):
            with_bug(BugId.BUG_ALLDIFF_FC_SKIP_LAST, sum_equals_bc(3))


class TestSeededBugs:
    def test_sum_reversed_bound_over_filters(self):
        recipe = with_bug(BugId.BUG_SUM_REVERSED_BOUND, sum_equals_bc(15))
        inst = Instance.of([list(range(1, 11)), [2, 3], [2, 3]])
        got = as_filter(recipe, 3).apply(inst)
        correct = as_filter(sum_equals_bc(15), 3).apply(inst)
        assert got != correct
        assert not pointwise_subset(correct, got)

    def test_fc_skip_last_leaves_last_variable_unpruned(self):
        recipe = with_bug(BugId.BUG_ALLDIFF_FC_SKIP_LAST, all_different_fc())
        inst = Instance.of([[1], [1, 2], [1, 3]])
        got = as_filter(recipe, 3).apply(inst)
        assert got == Filtered(Instance.of([[1], [2], [1, 3]]))

    def test_trail_no_restore_invisible_statically(self):
        # One-shot application never pops, so the stale cache never matters.
        for recipe in (sum_equals_bc(6), all_different_fc(), all_different_ac()):
            buggy = with_bug(BugId.BUG_TRAIL_NO_RESTORE, recipe)
            inst = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
            assert as_filter(buggy, 3).apply(inst) == as_filter(recipe, 3).apply(inst)

    def test_trail_no_restore_surfaces_after_pop(self):
        buggy = with_bug(BugId.BUG_TRAIL_NO_RESTORE, all_different_fc())
        subject = as_filter_with_state(buggy, 3)
        root = Instance.of([[1, 2], [1, 2, 3], [1, 2, 3]])
        subject.setup(root)
        subject.branch_and_filter(PUSH)
        subject.branch_and_filter(RestrictDomain(0, "=", 1))
        popped = subject.branch_and_filter(POP)
        # The stale cache keeps pruning value 1 although x0 is unfixed again.
        assert popped != Filtered(root)


class TestAsFilter:
    def test_empty_domain_is_inconsistent(self):
        from propcheck import Domain

        inst = Instance([Domain([1]), Domain()])
        assert as_filter(sum_equals_bc(1), 2).apply(inst) is INCONSISTENT

    def test_arity_checked(self):
        with pytest.raises(ContractViolationError):
            as_filter(sum_equals_bc(1), 2).apply(Instance.of([[1]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_sum_bc_matches_bound_z_oracle(self, seed):
        cfg = GenConfig(n_vars=3, value_min=-3, value_max=3, seed=seed + 10)
        inst = generate_instance(SplitMix64(seed + 10), cfg)
        got = as_filter(sum_equals_bc(2), 3).apply(inst)
        assert pointwise_equal(got, bound_z_filter(sum_equals(2, 3), inst))

    def test_outcomes_keep_the_domains_the_solver_did_not_narrow(self):
        rng = SplitMix64(61)
        for recipe in (all_different_ac(), all_different_fc(), sum_equals_bc(0)):
            f = as_filter(recipe, 5)
            for _ in range(100):
                inst = generate_instance(rng, GenConfig())
                out = f.apply(inst)
                if out is not INCONSISTENT:
                    assert all(d is e for d, e in zip(inst, out.instance) if d == e), inst


    def test_an_outcome_that_removes_nothing_is_the_input_itself(self):
        rng = SplitMix64(62)
        unchanged = 0
        for recipe in (all_different_ac(), all_different_fc(), sum_equals_bc(0)):
            f = as_filter(recipe, 5)
            for _ in range(100):
                inst = generate_instance(rng, GenConfig())
                out = f.apply(inst)
                if out is not INCONSISTENT and out.instance == inst:
                    assert out.instance is inst, inst
                    unchanged += 1
        assert unchanged > 0

class CountingSum(SumEqualsBC):
    """SumEqualsBC that counts the runs of all its instances."""

    runs = 0

    def propagate(self, solver):
        CountingSum.runs += 1
        super().propagate(solver)


@pytest.fixture
def counting_sum_bc(monkeypatch):
    """Make the `sum-bc` recipe post a CountingSum, with the count at 0."""
    monkeypatch.setattr(CountingSum, "runs", 0)
    monkeypatch.setitem(RECIPES, "sum-bc", RECIPES["sum-bc"]._replace(propagator=CountingSum))
    return CountingSum


class TestSolverBackedStateful:
    def test_a_restriction_that_removes_nothing_runs_no_propagator(self, counting_sum_bc):
        subject = as_filter_with_state(sum_equals_bc(6), 3)
        root = subject.setup(Instance.of([[1, 2, 3]] * 3))
        runs = counting_sum_bc.runs
        subject.branch_and_filter(PUSH)
        for op in (RestrictDomain(0, "!=", 5), RestrictDomain(0, "<", 9),
                   RestrictDomain(1, ">", 0)):
            assert subject.branch_and_filter(op) == root, op
        assert counting_sum_bc.runs == runs
        subject.branch_and_filter(RestrictDomain(0, "=", 1))
        assert counting_sum_bc.runs > runs

    def test_setup_twice_rejected(self):
        # The second setup builds no solver; the first root stays current.
        subject = as_filter_with_state(sum_equals_bc(3), 2)
        root = subject.setup(Instance.of([[1, 2], [1, 2]]))
        solver = subject._solver
        with pytest.raises(ContractViolationError, match="^setup called twice$"):
            subject.setup(Instance.of([[5], [5]]))
        assert subject._solver is solver
        assert subject.branch_and_filter(PUSH) == root

    def test_a_setup_that_removes_nothing_keeps_the_root_itself(self):
        root = Instance.of([[1, 2], [2, 3], [1, 3]])
        out = as_filter_with_state(all_different_ac(), 3).setup(root)
        assert out == Filtered(root) and out.instance is root

    def test_a_pop_runs_the_propagator_again(self, counting_sum_bc):
        subject = as_filter_with_state(sum_equals_bc(6), 3)
        root = subject.setup(Instance.of([[1, 2, 3]] * 3))
        for ops in ([PUSH], [PUSH, RestrictDomain(0, "=", 1)]):
            for op in ops:
                subject.branch_and_filter(op)
            runs = counting_sum_bc.runs
            assert subject.branch_and_filter(POP) == root
            # A correct propagator removes nothing there, so it runs once.
            assert counting_sum_bc.runs == runs + 1

    def test_matches_snapshot_adapter_on_script(self):
        from propcheck import IncrementalFiltering, make_reference

        root = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        script = [
            PUSH,
            RestrictDomain(0, "=", 1),
            PUSH,
            RestrictDomain(1, ">", 1),
            POP,
            POP,
            PUSH,
            RestrictDomain(2, "<", 3),
            PUSH,
            RestrictDomain(1, "!=", 2),
            RestrictDomain(1, "!=", 5),  # an absent value: a no-op
        ]
        solver_side = as_filter_with_state(sum_equals_bc(6), 3)
        oracle = IncrementalFiltering(
            make_reference(ConsistencyLevel.BOUND_Z, sum_equals(6, 3))
        )
        assert pointwise_equal(solver_side.setup(root), oracle.setup(root))
        for op in script:
            assert pointwise_equal(
                solver_side.branch_and_filter(op), oracle.branch_and_filter(op)
            ), op

    def test_inconsistency_recovers_on_pop(self):
        subject = as_filter_with_state(all_different_ac(), 3)
        root = Instance.of([[1, 2], [1, 2], [1, 2, 3]])
        first = subject.setup(root)
        subject.branch_and_filter(PUSH)
        assert subject.branch_and_filter(RestrictDomain(2, "=", 1)) is INCONSISTENT
        assert subject.branch_and_filter(POP) == first

    def test_failed_setup_leaves_the_subject_dead(self):
        # Setup fails by propagation, not on an empty input domain; every
        # later op must still answer inconsistent.
        subject = as_filter_with_state(sum_equals_bc(100), 2)
        assert subject.setup(Instance.of([[1, 2], [1, 2]])) is INCONSISTENT
        for op in (PUSH, POP, PUSH, RestrictDomain(0, "=", 1), POP):
            assert subject.branch_and_filter(op) is INCONSISTENT, op

    @pytest.mark.parametrize("root", [[[1, 2], [1, 2]], [[1, 50], [50, 60]]],
                             ids=["failed-setup", "consistent-setup"])
    def test_a_pop_with_no_open_frame_is_a_contract_violation(self, root):
        # As in the snapshot adapter, whether or not setup failed, and with
        # the same message.
        for subject in (
            as_filter_with_state(sum_equals_bc(100), 2),
            IncrementalFiltering(make_reference(ConsistencyLevel.BOUND_Z, sum_equals(100, 2))),
        ):
            subject.setup(Instance.of(root))
            subject.branch_and_filter(PUSH)
            subject.branch_and_filter(POP)
            with pytest.raises(ContractViolationError, match="^pop with no open frame$"):
                subject.branch_and_filter(POP)

    def test_pop_inside_the_failed_frame_stays_inconsistent(self):
        # The failure happens one frame down; a pop that does not leave that
        # frame keeps it, and the pop that leaves it restores the root.
        root = Instance.of([[1, 2], [1, 2]])
        subject = as_filter_with_state(sum_equals_bc(3), 2)
        root_outcome = subject.setup(root)
        ops = [PUSH, RestrictDomain(0, ">", 5), PUSH, POP]
        assert [subject.branch_and_filter(op) for op in ops][1:] == [INCONSISTENT] * 3
        assert subject.branch_and_filter(POP) == root_outcome
        trusted = IncrementalFiltering(
            make_reference(ConsistencyLevel.BOUND_Z, sum_equals(3, 2))
        )
        tested = as_filter_with_state(sum_equals_bc(3), 2)
        assert replay(root, ops + [POP], trusted, tested) is None

    def test_replay_after_failed_setup_agrees(self):
        from propcheck import IncrementalFiltering, make_reference, replay

        root = Instance.of([[1, 2], [1, 2]])
        trusted = IncrementalFiltering(
            make_reference(ConsistencyLevel.BOUND_Z, sum_equals(100, 2))
        )
        tested = as_filter_with_state(sum_equals_bc(100), 2)
        transcript = [PUSH, POP, RestrictDomain(0, "=", 1)]
        assert replay(root, transcript, trusted, tested) is None

    @pytest.mark.parametrize("index", [-1, 3])
    def test_out_of_range_restriction_is_a_contract_violation(self, index):
        # The same error as the snapshot adapter, so a dive does not record
        # it as the tested side claiming inconsistency.
        root = Instance.of([[1, 2, 3]] * 3)
        op = RestrictDomain(index, "=", 1)
        for subject in (
            as_filter_with_state(all_different_ac(), 3),
            IncrementalFiltering(make_reference(ConsistencyLevel.ARC, all_different(3))),
        ):
            subject.setup(root)
            with pytest.raises(ContractViolationError, match=f"index {index} out of range"):
                subject.branch_and_filter(op)

    @pytest.mark.parametrize(
        "ops", [[PUSH, POP], [PUSH, RestrictDomain(0, "!=", 9), POP]], ids=["push-pop", "no-op"]
    )
    def test_a_frame_that_changes_nothing_runs_no_full_ac_run(self, monkeypatch, ops):
        # The pop puts back the very domains that setup's completed run
        # left, so the pop re-check returns at once.
        repairs = []

        def counted(self, doms, repair=AllDifferentAC._repair_matching):
            repairs.append(doms)
            return repair(self, doms)

        monkeypatch.setattr(AllDifferentAC, "_repair_matching", counted)
        subject = as_filter_with_state(all_different_ac(), 3)
        root = subject.setup(Instance.of([[1, 2, 3]] * 3))
        assert len(repairs) == 1
        assert [subject.branch_and_filter(op) for op in ops][-1] == root
        assert len(repairs) == 1


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize(
    "recipe, level, checker",
    [
        (all_different_ac(), ConsistencyLevel.ARC, all_different(5)),
        (sum_equals_bc(0), ConsistencyLevel.BOUND_Z, sum_equals(0, 5)),
    ],
    ids=["alldiff-ac", "sum-bc:0"],
)
def test_solver_subjects_agree_with_references_through_dives(recipe, level, checker, seed):
    # Dives pop back to earlier states, so the solver's matching and saved
    # domains must bring every variable back exactly at every depth.
    root = generate_instance(SplitMix64(seed), GenConfig(seed=seed))
    report = dives(
        root,
        IncrementalFiltering(make_reference(level, checker)),
        as_filter_with_state(recipe, 5),
        DiveConfig(seed=seed),
    )
    assert report.passed, report.failure


# Every seed of these campaigns runs through the solver's propagation
# engine, so a change to when or how a propagator runs that moves any
# outcome moves this digest.
_PINNED_CAMPAIGNS = [
    ("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac"),
    ("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac+bug:TRAIL_NO_RESTORE"),
    ("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-fc+bug:TRAIL_NO_RESTORE"),
    ("dive", "--trusted", "boundz:sum=0", "--tested", "sum-bc"),
    ("dive", "--trusted", "boundz:sum=0", "--tested", "sum-bc+bug:TRAIL_NO_RESTORE"),
    ("dive", "--trusted", "arc:alldiff", "--tested", "alldiff-ac+bug:TRAIL_NO_RESTORE",
     "--vars", "7", "--min", "0", "--max", "6", "--dives", "50"),
    ("run", "--mode", "check", "--trusted", "boundz:sum=0",
     "--tested", "sum-bc+bug:SUM_REVERSED_BOUND"),
    ("run", "--mode", "check", "--trusted", "arc:alldiff", "--tested", "alldiff-ac"),
]
_PINNED_DIGEST = "6da411913dcbe62854b5c33d7f37bc4eeb88efd5ec16fe57ede5891d1d4774b0"
_PINNED_RUNS = "0bc33b4ecf0a747587501206cde8b3d6586fc5b438ee6f3261e461298a622b16"


@pytest.fixture(scope="module")
def pinned_solver_digests():
    """Both sha256 digests over the pinned campaigns at seeds 0-24, taken in
    one pass: `outputs` over the exit code and stdout of each campaign, and
    `runs` over every propagator run (its class, the open frames and the
    domains at entry). The open frames are counted from the operations: a
    new solver has none, a push opens one and a pop closes one."""
    outputs, runs = hashlib.sha256(), hashlib.sha256()
    depth = 0

    def fresh(*args, first_run=minisolver._first_run):
        nonlocal depth
        depth = 0
        return first_run(*args)

    def counted(self, op, branch=SolverBackedStateful.branch_and_filter):
        nonlocal depth
        depth += {Push: 1, Pop: -1}.get(type(op), 0)
        return branch(self, op)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minisolver, "_first_run", fresh)
        mp.setattr(SolverBackedStateful, "branch_and_filter", counted)
        for cls in (SumEqualsBC, AllDifferentFC, AllDifferentAC):

            def recorded(self, solver, propagate=cls.propagate):
                runs.update(f"{type(self).__name__} {depth} {solver.doms}\n".encode())
                propagate(self, solver)

            mp.setattr(cls, "propagate", recorded)
        for argv in _PINNED_CAMPAIGNS:
            for seed in range(25):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main([*argv, "--seed", str(seed)])
                outputs.update(f"{code}\n{out.getvalue()}".encode())
    return {"outputs": outputs.hexdigest(), "runs": runs.hexdigest()}


def test_solver_campaign_outputs_are_pinned(pinned_solver_digests):
    """A faster propagation engine must answer exactly as the one it
    replaces: same exit code and stdout on every pinned campaign."""
    digest = pinned_solver_digests["outputs"]
    assert digest == _PINNED_DIGEST, f"_PINNED_DIGEST is now {digest}"


def test_solver_propagator_runs_are_pinned(pinned_solver_digests):
    """A change to the propagation engine must run the propagators exactly
    as the one it replaces, in the same order and on the same domains."""
    digest = pinned_solver_digests["runs"]
    assert digest == _PINNED_RUNS, f"_PINNED_RUNS is now {digest}"


_PINNED_FC = "32854b47b05727d2cbef51807c7bbaac81ae46dd344fa0d82471269078af762a"


def test_forward_checking_bug_reports_are_pinned():
    """One sha256 over the static `check` report of forward checking
    against each of its seeded bugs at seeds 0-149. No pinned campaign runs
    the static forward-checking pairs, and SKIP_LAST picks its unpruned
    variable by position."""
    digest = hashlib.sha256()
    for bug in (BugId.BUG_ALLDIFF_FC_SKIP_LAST, BugId.BUG_TRAIL_NO_RESTORE):
        tested = as_filter(with_bug(bug, all_different_fc()), 5)
        for seed in range(150):
            report = check(as_filter(all_different_fc(), 5), tested, GenConfig(seed=seed))
            digest.update(f"{report!r}\n".encode())
    assert digest.hexdigest() == _PINNED_FC
