"""Reference filters against spec examples and an independent brute force.

The brute-force oracle here deliberately reimplements support search from
scratch (naive loops, no shared helpers) so the two routes stay independent.
"""

import array
import gc
import hashlib
import itertools
import math
import operator
import sys
import threading
import weakref

import pytest

from propcheck import (
    INCONSISTENT,
    DEFAULT_CAP,
    Checker,
    ConsistencyLevel,
    ContractViolationError,
    Domain,
    EnumerationCapExceeded,
    Filtered,
    GenConfig,
    Instance,
    SplitMix64,
    all_different,
    arc_filter,
    bound_d_filter,
    bound_z_filter,
    generate_instance,
    make_reference,
    pointwise_equal,
    pointwise_subset,
    range_filter,
    solutions,
    sum_equals,
)
from propcheck import reference
from propcheck.checkers import SHARED_CHECKERS


# ---------------------------------------------------------------------------
# Independent oracle: naive fixpoint over explicit support scans.


def brute_solutions(checker, inst):
    out = []
    for a in itertools.product(*(d.values for d in inst.domains)):
        if checker.predicate(a):
            out.append(a)
    return out


def brute_arc(checker, inst):
    sols = brute_solutions(checker, inst)
    if not sols:
        return None
    return [sorted({a[i] for a in sols}) for i in range(inst.arity)]


def _supported(checker, pools, i, v):
    others = [pool for j, pool in enumerate(pools) if j != i]
    for rest in itertools.product(*others):
        if checker.predicate(rest[:i] + (v,) + rest[i:]):
            return True
    return False


def brute_level(checker, inst, level):
    """Naive fixpoint for bound-Z / bound-D / range consistency."""
    doms = [list(d.values) for d in inst.domains]
    while True:
        if level in ("boundz", "range"):
            pools = [tuple(range(min(d), max(d) + 1)) for d in doms]
        else:
            pools = [tuple(d) for d in doms]
        new = []
        for i, d in enumerate(doms):
            sup = [v for v in d if _supported(checker, pools, i, v)]
            if not sup:
                return None
            if level == "range":
                new.append(sup)
            else:
                new.append([v for v in d if sup[0] <= v <= sup[-1]])
        if new == doms:
            return doms
        doms = new


def as_outcome(domains):
    if domains is None:
        return INCONSISTENT
    return Filtered(Instance.of(domains))


LEVEL_FUNCS = {
    "arc": arc_filter,
    "boundz": bound_z_filter,
    "boundd": bound_d_filter,
    "range": range_filter,
}


def small_instances(seed, count, arity, lo, hi):
    cfg = GenConfig(n_vars=arity, value_min=lo, value_max=hi, seed=seed)
    rng = SplitMix64(seed)
    return [generate_instance(rng, cfg) for _ in range(count)]


# ---------------------------------------------------------------------------
# Spec examples


class TestSolutions:
    def test_alldiff_pairs(self):
        got = solutions(all_different(2), Instance.of([[1, 2], [1, 2]]))
        assert got == [(1, 2), (2, 1)]

    def test_sum15_singleton(self):
        got = solutions(sum_equals(15, 3), Instance.of([[5], [5], [5]]))
        assert got == [(5, 5, 5)]
        assert sum((5, 5, 5)) == 15

    def test_empty_domain_gives_no_tuples(self):
        inst = Instance([Domain([1]), Domain()])
        assert solutions(all_different(2), inst) == []

    def test_lexicographic_order(self):
        got = solutions(all_different(2), Instance.of([[1, 2, 3], [1, 2, 3]]))
        assert got == sorted(got)

    def test_arity_mismatch(self):
        with pytest.raises(ContractViolationError):
            solutions(all_different(3), Instance.of([[1], [2]]))

    def test_cap_exceeded(self):
        inst = Instance.of([list(range(200))] * 3)
        with pytest.raises(EnumerationCapExceeded):
            solutions(all_different(3), inst, cap=1000)


class TestArcFilter:
    def test_alldiff_example(self):
        got = arc_filter(all_different(3), Instance.of([[1, 2], [1, 2], [1, 2, 3]]))
        assert got == Filtered(Instance.of([[1, 2], [1, 2], [3]]))

    def test_sum_inconsistent(self):
        assert arc_filter(sum_equals(15, 3), Instance.of([[1, 9]] * 3)) is INCONSISTENT

    def test_sum_partial_filtering(self):
        got = arc_filter(sum_equals(15, 3), Instance.of([[6, 7], [6, 7], [1, 2, 9]]))
        assert got == Filtered(Instance.of([[6, 7], [6, 7], [1, 2]]))


class TestBoundZFilter:
    def test_sum_raises_min(self):
        inst = Instance.of([list(range(1, 11)), [2, 3], [2, 3]])
        got = bound_z_filter(sum_equals(15, 3), inst)
        assert got == Filtered(Instance.of([[9, 10], [2, 3], [2, 3]]))

    def test_solution_unchanged(self):
        inst = Instance.of([[5], [5], [5]])
        assert bound_z_filter(sum_equals(15, 3), inst) == Filtered(inst)

    def test_alldiff_pigeonhole(self):
        assert bound_z_filter(all_different(3), Instance.of([[1, 2]] * 3)) is INCONSISTENT


class TestBoundDFilter:
    def test_sum_with_hole(self):
        got = bound_d_filter(sum_equals(15, 3), Instance.of([[1, 10], [2, 3], [2, 3]]))
        assert got == Filtered(Instance.of([[10], [2, 3], [2, 3]]))

    def test_alldiff_example(self):
        got = bound_d_filter(all_different(3), Instance.of([[1, 2], [1, 2], [1, 2, 3]]))
        assert got == Filtered(Instance.of([[1, 2], [1, 2], [3]]))

    def test_accept_all_checker_unchanged(self):
        anything = Checker(2, lambda a: True, "any")
        inst = Instance.of([[1, 5], [2, 9]])
        assert bound_d_filter(anything, inst) == Filtered(inst)


class TestRangeFilter:
    def test_alldiff_example(self):
        got = range_filter(all_different(3), Instance.of([[1, 2], [1, 2], [1, 2, 3]]))
        assert got == Filtered(Instance.of([[1, 2], [1, 2], [3]]))

    def test_sum_same_as_boundz_here(self):
        inst = Instance.of([list(range(1, 11)), [2, 3], [2, 3]])
        got = range_filter(sum_equals(15, 3), inst)
        assert got == Filtered(Instance.of([[9, 10], [2, 3], [2, 3]]))

    def test_unary_checker(self):
        is_zero = Checker(1, lambda a: a[0] == 0, "v=0")
        assert range_filter(is_zero, Instance.of([[-1, 0, 1]])) == Filtered(
            Instance.of([[0]])
        )


class TestMakeReference:
    def test_arc_alldiff(self):
        f = make_reference(ConsistencyLevel.ARC, all_different(3))
        got = f.apply(Instance.of([[1, 2], [1, 2], [1, 2, 3]]))
        assert got == Filtered(Instance.of([[1, 2], [1, 2], [3]]))

    def test_boundz_fixed_point_input(self):
        f = make_reference(ConsistencyLevel.BOUND_Z, sum_equals(15, 3))
        inst = Instance.of([[5], [5], [5]])
        assert f.apply(inst) == Filtered(inst)

    def test_unary_alldiff(self):
        f = make_reference(ConsistencyLevel.RANGE, all_different(1))
        assert f.apply(Instance.of([[7]])) == Filtered(Instance.of([[7]]))


# ---------------------------------------------------------------------------
# Cross-validation against the independent oracle and the spec invariants.


def checkers_for(arity):
    return [all_different(arity), sum_equals(3, arity), sum_equals(0, arity)]


@pytest.mark.parametrize("seed", range(8))
def test_matches_independent_oracle(seed):
    for inst in small_instances(seed * 13 + 1, 6, arity=3, lo=-3, hi=3):
        for checker in checkers_for(3):
            assert pointwise_equal(
                arc_filter(checker, inst), as_outcome(brute_arc(checker, inst))
            )
            for level in ("boundz", "boundd", "range"):
                assert pointwise_equal(
                    LEVEL_FUNCS[level](checker, inst),
                    as_outcome(brute_level(checker, inst, level)),
                ), (inst, checker.name, level)


@pytest.mark.parametrize("seed", range(5))
def test_hierarchy_and_soundness(seed):
    for inst in small_instances(seed * 7 + 2, 8, arity=3, lo=-4, hi=4):
        for checker in checkers_for(3):
            outs = {name: f(checker, inst) for name, f in LEVEL_FUNCS.items()}
            assert pointwise_subset(outs["arc"], outs["range"])
            assert pointwise_subset(outs["range"], outs["boundz"])
            assert pointwise_subset(outs["arc"], outs["boundd"])
            assert pointwise_subset(outs["boundd"], outs["boundz"])
            sols = solutions(checker, inst)
            assert (outs["arc"] is INCONSISTENT) == (not sols)
            for out in outs.values():
                if out is not INCONSISTENT:
                    for a in sols:
                        assert out.instance.member(a)


@pytest.mark.parametrize("seed", range(5))
def test_idempotence(seed):
    for inst in small_instances(seed + 50, 4, arity=3, lo=-3, hi=3):
        for checker in checkers_for(3):
            for f in LEVEL_FUNCS.values():
                out = f(checker, inst)
                if out is not INCONSISTENT:
                    assert pointwise_equal(f(checker, out.instance), out)


def test_monotonicity():
    big = Instance.of([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
    small = Instance.of([[1, 2], [2, 3], [1, 3]])
    for checker in checkers_for(3):
        for f in LEVEL_FUNCS.values():
            assert pointwise_subset(f(checker, small), f(checker, big))


# ---------------------------------------------------------------------------
# The cap rule: no single enumeration (one support search) visits more
# than `cap` tuples.


def test_cap_bounds_each_enumeration_not_the_product():
    # The product has 1000 tuples, past the cap; each support search spans
    # 100 tuples and fits.
    inst = Instance.of([list(range(10))] * 3)
    for checker in (all_different(3), sum_equals(5, 3)):
        for level, f in LEVEL_FUNCS.items():
            assert pointwise_equal(f(checker, inst, cap=100), f(checker, inst)), level


def test_support_search_past_the_cap_raises():
    inst = Instance.of([list(range(10))] * 3)
    for level, f in LEVEL_FUNCS.items():
        with pytest.raises(EnumerationCapExceeded):
            f(all_different(3), inst, cap=99)


def unshared(checker):
    """A checker like `checker` with a memo of its own: the bundled factories
    share one checker, and so one memo, per argument tuple."""
    return Checker(checker.arity, checker.predicate, checker.name)


def counting(checker):
    calls = []

    def predicate(a):
        calls.append(a)
        return checker.predicate(a)

    return Checker(checker.arity, predicate, checker.name), calls


@pytest.mark.parametrize(
    "checker,domains,by_domains,by_intervals",
    [
        (
            sum_equals(15, 3),
            [[1, 10], [2, 3], [2, 3]],
            [[10], [2, 3], [2, 3]],
            [[10], [2, 3], [2, 3]],
        ),
        (
            all_different(3),
            [[1, 2], [1, 2], [1, 2, 3]],
            [[1, 2], [1, 2], [3]],
            [[1, 2], [1, 2], [3]],
        ),
        (
            sum_equals(0, 3),
            [[-3, 0, 3], [-1, 1], [0, 2]],
            [[-3], [1], [2]],
            [[-3, 0], [-1, 1], [0, 2]],
        ),
        # The support (-2, 0, 2) found for x0 leaves x1's hull once -2 goes
        # from x1; reusing it for x2 = 2 would answer {-2}, {1}, {2}.
        (sum_equals(0, 3), [[-2], [-2, 1], [-2, 2]], None, None),
    ],
    ids=["sum=15", "alldiff", "sum=0", "sum=0-stale-witness"],
)
def test_support_searches_stay_in_the_search_space(
    checker, domains, by_domains, by_intervals
):
    # Every predicate call is a tuple of the level's search space: the
    # domain product for arc and bound-D, the hull product for bound-Z and
    # range.
    inst = Instance.of(domains)
    hulls = [range(min(d), max(d) + 1) for d in domains]
    for level, f in LEVEL_FUNCS.items():
        intervals = level in ("boundz", "range")
        counted, calls = counting(checker)
        expected = by_intervals if intervals else by_domains
        assert f(counted, inst) == as_outcome(expected), level
        space = set(itertools.product(*(hulls if intervals else domains)))
        assert calls and set(calls) <= space, level


# Predicate calls per (level, checker) on 40 default-config instances, each
# the count the support search with witnesses makes when every search starts
# at the last support found. A full pass over the product, at any level,
# makes more calls on every alldiff and sum=0 entry.
CALL_BUDGET = {
    ("arc", "alldiff"): 5_767,
    ("arc", "sum=0"): 3_749,
    ("arc", "sum=6"): 13_551,
    ("boundz", "alldiff"): 10_531,
    ("boundz", "sum=0"): 5_482,
    ("boundz", "sum=6"): 48_948,
    ("boundd", "alldiff"): 3_757,
    ("boundd", "sum=0"): 2_637,
    ("boundd", "sum=6"): 12_940,
    ("range", "alldiff"): 18_197,
    ("range", "sum=0"): 6_674,
    ("range", "sum=6"): 49_129,
}


# The sha256 of the predicate's argument tuples, in call order, for the
# same runs. A change that reorders checks or searches fails here even when
# its count stays within budget.
CALL_DIGEST = {
    ("arc", "alldiff"): "9580a7d9f33c1709149fa34824a5815b298d5ac8055d5fec9a39668d27c45a69",
    ("arc", "sum=0"): "20e6f2ea4a681f972c223e356fc85ef075c69d06af46a72b2cf3b6951bd39e6a",
    ("arc", "sum=6"): "5ad92bdc3c9a4c2513e2c5d83cb75ec8827b110b19d6478f362e33b7ffd5817b",
    ("boundd", "alldiff"): "89973e12c37fbf0def3c1a25bfec1fc2b6e7ea1e4fbda744f7995974e5784ff5",
    ("boundd", "sum=0"): "cfc3ae910fdabc8eb5a43b11ba4d17512745367f012f72649032beafb1bb6e7b",
    ("boundd", "sum=6"): "b4399e923a09bbf7e293cc070af33e8daeea297a977af0981ada617d3070ad90",
    ("boundz", "alldiff"): "855dd5405e334f3f43f73d334cac1a9d77dac9e6d86e66cf3b5d0f2e77be57b0",
    ("boundz", "sum=0"): "67184f85470690cde2d54aaf1b40e0642f1bb3864b62861254db330d46ec46c5",
    ("boundz", "sum=6"): "aaf9f36ec66ab1cdcdc18b5f597294d462e4420712b1190c4b61693ad80476aa",
    ("range", "alldiff"): "7f0b045d5e5a57282f3c6a961fb40096bef96b8c3ebd55bf893f92b7e55ad4db",
    ("range", "sum=0"): "bb45239ef9ea92776316fce1e9a2aa2999f1fb22f9abc94e182370f92db6174a",
    ("range", "sum=6"): "e9150ca99db04fead59f69ec66ddd2816db72fd43564e29aade062e83d2043f5",
}


def call_digest(calls):
    return hashlib.sha256(repr(calls).encode()).hexdigest()


@pytest.mark.parametrize("level,name", sorted(CALL_BUDGET))
def test_predicate_calls_within_budget(level, name):
    cfg = GenConfig()
    rng = SplitMix64(2024)
    instances = [generate_instance(rng, cfg) for _ in range(40)]
    checker = {
        "alldiff": all_different(cfg.n_vars),
        "sum=0": sum_equals(0, cfg.n_vars),
        "sum=6": sum_equals(6, cfg.n_vars),
    }[name]
    counted, calls = counting(checker)
    for inst in instances:
        LEVEL_FUNCS[level](counted, inst)
    assert len(calls) <= CALL_BUDGET[level, name]
    assert call_digest(calls) == CALL_DIGEST[level, name]


# ---------------------------------------------------------------------------
# A filter from make_reference keeps its witnesses across calls.


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_reference_filter_answers_as_the_level_function(level):
    cfg = GenConfig()
    rng = SplitMix64(7)
    instances = [generate_instance(rng, cfg) for _ in range(200)]
    for total in (None, 0, 6, -9):
        checker = (
            all_different(cfg.n_vars) if total is None else sum_equals(total, cfg.n_vars)
        )
        f = make_reference(ConsistencyLevel(level), checker)
        for inst in instances:
            assert f.apply(inst) == LEVEL_FUNCS[level](checker, inst), (inst, checker.name)


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_refiltering_an_outcome_needs_no_search(level):
    # Every value left by a call has a witness inside the outcome's lists,
    # so filtering the outcome again makes no predicate call.
    rng = SplitMix64(11)
    instances = [generate_instance(rng, GenConfig()) for _ in range(20)]
    for checker in (all_different(5), sum_equals(0, 5)):
        counted, calls = counting(checker)
        f = make_reference(ConsistencyLevel(level), counted)
        for inst in instances:
            out = f.apply(inst)
            if out is not INCONSISTENT:
                del calls[:]
                assert f.apply(out.instance) == out
                assert calls == [], (inst, checker.name)


def outcome_or_cap(apply, inst):
    try:
        return apply(inst)
    except EnumerationCapExceeded:
        return EnumerationCapExceeded


def test_warm_witnesses_do_not_change_the_cap():
    # The hull product of `big` passes the cap, and so does each interval
    # support search, while each domain support search fits. The warm-up
    # instances leave a valid witness for both bounds of every variable,
    # which must not spare `big` a search that passes the cap. Each filter
    # has a checker of its own, so the fresh one shares no memo with `warm`.
    big = Instance.of([[-3, 3], [-3, 3]])
    for level in ConsistencyLevel:
        warm = make_reference(level, unshared(sum_equals(0, 2)), cap=5)
        for inst in (Instance.of([[-3], [3]]), Instance.of([[3], [-3]])):
            assert warm.apply(inst) == Filtered(inst)
        fresh = make_reference(level, unshared(sum_equals(0, 2)), cap=5)
        assert outcome_or_cap(warm.apply, big) == outcome_or_cap(fresh.apply, big), level


def test_witnesses_are_shared_across_filters_and_calls():
    # Growing the table to cover `inst` would pass the cap, so both calls
    # on it search. The bound-Z call reuses the solutions that the arc
    # calls found as witnesses, and so makes fewer predicate calls than a
    # search that starts with none (9 against 15).
    counted, calls = counting(sum_equals(0, 3))
    arc = make_reference(ConsistencyLevel.ARC, counted, cap=40)
    arc.apply(Instance.of([[-1, 0, 1]] * 3))
    inst = Instance.of([[-2, 2], [-1, 1], [0, 1]])
    arc.apply(inst)
    del calls[:]
    shared = make_reference(ConsistencyLevel.BOUND_Z, counted, cap=40).apply(inst)
    shared_calls = len(calls)
    del calls[:]
    assert shared == bound_z_filter(counted, inst, cap=40)
    assert shared_calls < len(calls)


# ---------------------------------------------------------------------------
# A make_reference filter answers from a table of the checker's solutions
# over a region that grows, slab by slab, to cover the lists of each call
# that fits its cap.


def memo_of(f):
    return reference._memos[f.apply.args[0]]


def region(memo):
    """The value lists whose product is the region of the memo's table."""
    return [sorted(b) for b in memo.bits]


def region_size(memo):
    return math.prod(map(len, memo.bits))


def in_region(t, lists):
    return all(map(operator.contains, lists, t))


def assert_extension(calls, old, new):
    """The calls enumerate each tuple of region `new` outside region `old` once."""
    assert len(set(calls)) == len(calls) == math.prod(map(len, new)) - math.prod(map(len, old))
    assert all(in_region(t, new) and not in_region(t, old) for t in calls)


def table_solutions(memo):
    """The table's solutions, read back from its bitsets in index order."""
    return [
        tuple(v for b in memo.bits for v, bits in b.items() if bits >> n & 1)
        for n in range(memo.count)
    ]


def with_table(level, checker, box, cap=DEFAULT_CAP):
    """A make_reference filter whose table's region is `box`, built by one call."""
    f = make_reference(ConsistencyLevel(level), checker, cap=cap)
    f.apply(Instance.of(box))
    assert region(memo_of(f)) == [sorted(vs) for vs in box]
    return f


TABLE_CHECKERS = [
    all_different(5),
    sum_equals(0, 5),
    sum_equals(6, 5),
    sum_equals(-9, 5),
    Checker(5, lambda a: (a[0] * a[1] - a[2] + a[3] * a[4]) % 5 == 1, "poly"),
]
BOX = [list(range(-3, 4))] * 5


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_table_answers_as_the_level_function_with_no_predicate_call(level):
    rng = SplitMix64(31)
    configs = (GenConfig(), GenConfig(density=0.25), GenConfig(density=0.9))
    instances = [generate_instance(rng, cfg) for cfg in configs for _ in range(100)]
    for checker in TABLE_CHECKERS:
        counted, calls = counting(checker)
        f = with_table(level, counted, BOX)
        assert len(calls) == 7**5  # the build: one pass over the box
        assert table_solutions(memo_of(f)) == solutions(checker, Instance.of(BOX))
        del calls[:]
        for inst in instances:
            assert f.apply(inst) == LEVEL_FUNCS[level](checker, inst), (inst, checker.name)
        assert calls == [], checker.name


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_instance_outside_the_table_is_searched(level):
    # The region [-1, 1]**5 holds as many tuples as the cap, so it cannot
    # grow: an instance inside it is answered from the table, and one
    # outside it is searched (or raises) as by the level function.
    small = [[-1, 0, 1]] * 5
    cap = 3**5
    rng = SplitMix64(41)
    configs = (GenConfig(value_min=-1, value_max=1), GenConfig(value_min=-2, value_max=2))
    instances = [generate_instance(rng, cfg) for cfg in configs for _ in range(10)]
    for checker in TABLE_CHECKERS:
        counted, calls = counting(checker)
        f = with_table(level, counted, small, cap=cap)
        inside = region(memo_of(f))
        for inst in instances:
            del calls[:]
            got = outcome_or_cap(f.apply, inst)
            assert got == outcome_or_cap(lambda i: LEVEL_FUNCS[level](checker, i, cap=cap), inst)
            assert region(memo_of(f)) == inside, (inst, checker.name)
            if all(map(set(range(-1, 2)).issuperset, inst)):
                assert calls == [], (inst, checker.name)
            elif got is not EnumerationCapExceeded:
                assert calls, (inst, checker.name)


def test_the_table_costs_one_predicate_call_per_tuple_of_its_region():
    # Filters at every level share each checker, and every instance fits
    # the cap, so each call is answered from the table: over the memo's
    # life the checker is called once for each tuple of the final region,
    # whether its supports are scarce, plentiful or everywhere.
    rng = SplitMix64(43)
    instances = [generate_instance(rng, GenConfig()) for _ in range(100)]
    for checker in (sum_equals(-9, 5), all_different(5), Checker(5, lambda a: True, "true")):
        counted, calls = counting(checker)
        filters = {level: make_reference(level, counted) for level in ConsistencyLevel}
        for inst in instances:
            for level, f in filters.items():
                assert f.apply(inst) == LEVEL_FUNCS[level.value](checker, inst)
        memo = memo_of(filters[ConsistencyLevel.ARC])
        assert len(calls) == len(set(calls)) == region_size(memo), checker.name
        assert table_solutions(memo) == list(filter(checker.predicate, calls))


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_an_extension_enumerates_exactly_the_new_tuples_of_the_region(level):
    rng = SplitMix64(47)
    configs = (GenConfig(value_min=-2, value_max=1), GenConfig())
    instances = [generate_instance(rng, cfg) for cfg in configs for _ in range(6)]
    for checker in TABLE_CHECKERS:
        counted, calls = counting(checker)
        f = make_reference(ConsistencyLevel(level), counted)
        for inst in instances:
            old = region(memo_of(f))
            del calls[:]
            assert f.apply(inst) == LEVEL_FUNCS[level](checker, inst), (inst, checker.name)
            new = region(memo_of(f))
            assert all(map(set.issuperset, map(set, new), old)), (inst, checker.name)
            assert_extension(calls, old, new)
        assert sorted(table_solutions(memo_of(f))) == solutions(checker, Instance.of(region(memo_of(f))))


def every_instance(arity, lo, hi):
    """Every instance of `arity` variables over non-empty subsets of lo..hi."""
    values = range(lo, hi + 1)
    subsets = [Domain(c) for k in range(1, len(values) + 1) for c in itertools.combinations(values, k)]
    return [Instance(doms) for doms in itertools.product(subsets, repeat=arity)]


def assert_shares_what_it_keeps(inst, out):
    """An outcome that removes nothing is `inst` itself, and every domain
    that loses no value is `inst`'s own `Domain` object."""
    if out is INCONSISTENT:
        return
    if out.instance == inst:
        assert out.instance is inst, inst
    assert all(d is e for d, e in zip(inst, out.instance) if d == e), inst


@pytest.mark.parametrize("arity,lo,hi", [(3, -1, 1), (2, -2, 2)])
@pytest.mark.parametrize("capped", [False, True], ids=["growing", "capped"])
def test_reference_filters_answer_as_the_level_functions_on_every_instance(
    arity, lo, hi, capped
):
    # Filters at every level share each checker's memo, so a call lands
    # inside a region that earlier calls grew or outside it. Under the
    # smaller cap the region stops growing at half the box, and the calls
    # past it are searched. Each checker starts with an empty memo.
    box = (hi - lo + 1) ** arity
    cap = box // 2 if capped else DEFAULT_CAP
    instances = every_instance(arity, lo, hi)
    for checker in (
        unshared(all_different(arity)),
        unshared(sum_equals(0, arity)),
        unshared(sum_equals(2, arity)),
        Checker(arity, lambda a: False, "false"),
    ):
        filters = {level: make_reference(ConsistencyLevel(level), checker, cap=cap)
                   for level in LEVEL_FUNCS}
        for inst in instances:
            for level, f in filters.items():
                out = f.apply(inst)
                assert out == LEVEL_FUNCS[level](checker, inst, cap=cap), (inst, level, checker.name)
                assert_shares_what_it_keeps(inst, out)
        size = region_size(memo_of(filters["arc"]))
        assert size <= cap < box if capped else size == box, checker.name


@pytest.mark.parametrize("level", ["boundz", "range"])
@pytest.mark.parametrize(
    "domains,expected",
    [
        # The first pass keeps both values of x0 and moves the hulls of x1
        # and x2 to [0, 0] and [2, 2], which leave x0 = -1 with no support:
        # the second pass removes it.
        ([[-2, -1], [-2, 0], [-2, 2]], [[-2], [0], [2]]),
        # The first pass leaves {-2, 0}, {2}, {-1}; the hulls still hold
        # the solution (-1, 2, -1), and the second pass empties x0.
        ([[-2, 0], [-2, 2], [-1, 1]], None),
        # x1 = 1 moves x1's hull to [1, 1]. The search finds no support
        # for x2 inside it and answers in the first pass. The table keeps
        # x2 = 2 on (-1, -1, 2), from the solutions inside the hulls the
        # pass began with; recomputed over {-2, -1}, {1}, {2}, they are
        # none, and the second pass empties x0.
        ([[-2, -1], [-2, 1], [-2, 2]], None),
    ],
    ids=["second-pass-removes", "second-pass-empties", "no-solution-left-in-the-hulls"],
)
def test_a_moved_bound_repeats_the_pass_with_the_table_and_with_the_search(
    level, domains, expected
):
    # One filter answers from a table over the hulls, the other has a cap
    # below the hull product, so it searches; each support search fits.
    # Each has a checker, and so a memo, of its own.
    inst = Instance.of(domains)
    hull_product = math.prod(max(d) - min(d) + 1 for d in domains)
    want = LEVEL_FUNCS[level](sum_equals(0, 3), inst)
    assert want == as_outcome(expected) == as_outcome(brute_level(sum_equals(0, 3), inst, level))
    table = make_reference(ConsistencyLevel(level), unshared(sum_equals(0, 3)))
    assert table.apply(inst) == want
    assert region_size(memo_of(table)) == hull_product and memo_of(table).witness == {}
    search = make_reference(
        ConsistencyLevel(level), unshared(sum_equals(0, 3)), cap=hull_product - 1
    )
    assert search.apply(inst) == want
    assert region_size(memo_of(search)) == 0


def test_no_table_when_the_box_passes_the_cap():
    # Each hull product is 100, within the cap, so `low` gets a table over
    # its lists. The box of both holds 10 * 10 * 10 tuples (10 * 10 * 8 at
    # the domain levels), so `high` is searched and the table never grows
    # over it.
    low = Instance.of([range(0, 5), range(0, 5), range(0, 4)])
    high = Instance.of([range(5, 10), range(5, 10), range(6, 10)])
    for level, func in LEVEL_FUNCS.items():
        checker = unshared(sum_equals(12, 3))
        f = make_reference(ConsistencyLevel(level), checker, cap=100)
        for _ in range(2):
            for inst in (low, high):
                assert f.apply(inst) == func(checker, inst, cap=100)
        assert region(memo_of(f)) == list(map(list, low)), level


def test_a_region_past_the_cap_falls_back_to_search_and_raises_as_the_level_function():
    # The region [0, 2]**3 holds 27 tuples, within the cap of 30. Growing
    # it over `apart` would pass the cap, so `apart` is searched; `big`
    # has support searches of 100 tuples, so it raises at every level.
    apart = Instance.of([[3, 4], [3, 4], [3, 4]])
    big = Instance.of([list(range(10))] * 3)
    for level, func in LEVEL_FUNCS.items():
        for checker in (all_different(3), sum_equals(6, 3), sum_equals(11, 3)):
            counted, calls = counting(checker)
            f = with_table(level, counted, [[0, 1, 2]] * 3, cap=30)
            inside = region(memo_of(f))
            del calls[:]
            assert f.apply(apart) == func(checker, apart, cap=30), (level, checker.name)
            assert calls and not any(in_region(t, inside) for t in calls), (level, checker.name)
            with pytest.raises(EnumerationCapExceeded):
                func(checker, big, cap=30)
            with pytest.raises(EnumerationCapExceeded):
                f.apply(big)
            assert region(memo_of(f)) == inside, (level, checker.name)


def test_packing_holds_more_than_256_values_at_one_position():
    # 600 values at position 0: the bitsets are packed in rounds of 255
    # one-byte codes, and the extension over [3, 4] appends solutions
    # after the first 600.
    checker = Checker(2, lambda a: a[0] % 5 == a[1], "mod5")
    f = make_reference(ConsistencyLevel.ARC, checker)
    for lists in ([range(600), range(3)], [range(600), range(3, 5)]):
        inst = Instance.of(lists)
        assert f.apply(inst) == arc_filter(checker, inst)
    memo = memo_of(f)
    assert len(memo.bits[0]) == 600 and memo.count == 600
    assert table_solutions(memo) == sorted(
        solutions(checker, Instance.of([range(600), range(3)]))
    ) + sorted(solutions(checker, Instance.of([range(600), range(3, 5)])))


def test_warm_witnesses_and_a_table_do_not_change_the_cap():
    # As in test_warm_witnesses_do_not_change_the_cap, but the warm filter
    # also holds a table, over a region that fits the cap; `big`'s hull
    # does not, so it is searched and raises as a fresh filter does.
    big = Instance.of([[-3, 3], [-3, 3]])
    for level in ConsistencyLevel:
        warm = with_table(level.value, unshared(sum_equals(0, 2)), [[0, 1], [-1, 0]], cap=5)
        for inst in (Instance.of([[-3], [3]]), Instance.of([[3], [-3]])):
            assert warm.apply(inst) == Filtered(inst)
        assert region(memo_of(warm)) == [[0, 1], [-1, 0]]
        fresh = make_reference(level, unshared(sum_equals(0, 2)), cap=5)
        assert outcome_or_cap(warm.apply, big) == outcome_or_cap(fresh.apply, big), level


# ---------------------------------------------------------------------------
# The make_reference filters over one checker object, at any level, share
# one memo; checkers that are not the same object never do.


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_a_table_built_at_one_level_answers_every_level(level):
    rng = SplitMix64(53)
    instances = [generate_instance(rng, GenConfig()) for _ in range(60)]
    for checker in TABLE_CHECKERS:
        counted, calls = counting(checker)
        with_table(level, counted, BOX)
        del calls[:]
        for other, func in LEVEL_FUNCS.items():
            f = make_reference(ConsistencyLevel(other), counted)
            for inst in instances:
                assert f.apply(inst) == func(checker, inst), (inst, checker.name, other)
        assert calls == [], checker.name


@pytest.mark.parametrize("level", ["boundd", "boundz", "range"])
def test_refiltering_an_arc_outcome_at_another_level_needs_no_search(level):
    # Each value of an arc outcome has a solution inside its domains, and
    # so inside its hulls; a weaker level leaves the outcome as it is. The
    # arc call's table covers the outcome's domains but maybe not the holes
    # in its hulls, so the interval levels may extend the region over them,
    # which is every predicate call they make: none is a search.
    rng = SplitMix64(11)
    instances = [generate_instance(rng, GenConfig()) for _ in range(20)]
    for checker in (all_different(5), sum_equals(0, 5), sum_equals(6, 5)):
        counted, calls = counting(checker)
        arc = make_reference(ConsistencyLevel.ARC, counted)
        weaker = make_reference(ConsistencyLevel(level), counted)
        for inst in instances:
            out = arc.apply(inst)
            if out is not INCONSISTENT:
                old = region(memo_of(arc))
                del calls[:]
                assert weaker.apply(out.instance) == out
                assert_extension(calls, old, region(memo_of(arc)))
                if level == "boundd":
                    assert calls == [], (inst, checker.name)


def test_checkers_with_one_name_share_no_witnesses():
    # Equal arity and name, different predicates: the witness (0, 0) of
    # sum=0 is no solution of the other, which keeps only (1, 1).
    inst = Instance.of([[0, 1], [0, 1]])
    for level, func in LEVEL_FUNCS.items():
        real = sum_equals(0, 2)
        other = Checker(2, lambda a: sum(a) == 2, real.name)
        assert real != other
        warm = make_reference(ConsistencyLevel(level), real)
        assert warm.apply(inst) == as_outcome([[0], [0]]), level
        f = make_reference(ConsistencyLevel(level), other)
        assert memo_of(f) is not memo_of(warm)
        assert f.apply(inst) == func(other, inst) == as_outcome([[1], [1]]), level


def test_warm_witnesses_from_another_level_do_not_change_the_cap():
    # test_warm_witnesses_do_not_change_the_cap across levels: the witnesses
    # left at one level must not spare `big` a search past the cap at another.
    big = Instance.of([[-3, 3], [-3, 3]])
    for warm_level, level in itertools.product(ConsistencyLevel, repeat=2):
        checker = unshared(sum_equals(0, 2))
        warm = make_reference(warm_level, checker, cap=5)
        for inst in (Instance.of([[-3], [3]]), Instance.of([[3], [-3]])):
            assert warm.apply(inst) == Filtered(inst)
        f = make_reference(level, checker, cap=5)
        func = LEVEL_FUNCS[level.value]
        assert outcome_or_cap(f.apply, big) == outcome_or_cap(
            lambda inst: func(checker, inst, cap=5), big
        ), (warm_level, level)


# ---------------------------------------------------------------------------
# The bundled factories return one shared checker per argument tuple, so the
# filters over a bundled constraint share one memo for the life of the process.


def test_bundled_factories_share_one_checker_per_argument_tuple():
    assert sum_equals(0, 5) is sum_equals(0, 5)
    assert all_different(5) is all_different(5)
    # A keyword call is the same argument tuple.
    assert sum_equals(total=0, arity=5) is sum_equals(0, arity=5) is sum_equals(0, 5)
    assert all_different(arity=5) is all_different(5)
    made = [sum_equals(0, 5), sum_equals(1, 5), sum_equals(0, 4), all_different(5),
            all_different(4), sum_equals(0, 1), all_different(1)]
    assert len(set(map(id, made))) == len(made)
    # Equal arguments of different types make different checkers, so a
    # checker's name never depends on which call came first.
    assert sum_equals(True, 3).name == "sum=True" and sum_equals(1, 3).name == "sum=1"
    assert memo_of(make_reference(ConsistencyLevel.ARC, sum_equals(0, 5))) is memo_of(
        make_reference(ConsistencyLevel.RANGE, sum_equals(0, 5), cap=10)
    )


def test_make_reference_builds_a_memo_only_for_a_checker_with_none(monkeypatch):
    built = []

    def counted(arity, memo=reference._Memo):
        built.append(arity)
        return memo(arity)

    monkeypatch.setattr(reference, "_Memo", counted)
    checker = Checker(3, lambda a: a[0] < a[1] < a[2], "increasing")
    made = [make_reference(level, checker) for level in ConsistencyLevel]
    assert built == [3]
    assert len({id(memo_of(f)) for f in made}) == 1


def test_an_evicted_checker_takes_its_memo_with_it():
    # Past the cache bound the least recently used checker is dropped, and
    # with it the memo that `_memos` holds for it. A total no other test
    # uses keeps this checker out of other references.
    checker = sum_equals(1_001, 2)
    assert make_reference(ConsistencyLevel.ARC, checker).apply(
        Instance.of([[0, 1_000], [1, 2]])
    ) == as_outcome([[1_000], [1]])
    assert reference._memos[checker].count == 1
    ref = weakref.ref(checker)
    del checker
    gc.collect()
    assert ref() in reference._memos  # the factory's cache keeps it alive
    for total in range(SHARED_CHECKERS):
        sum_equals(2_000 + total, 2)
    gc.collect()
    assert ref() is None
    assert "sum=1001" not in {c.name for c in reference._memos}


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_a_grown_region_never_reuses_an_old_sum(level):
    # The first call stores the sum of [-1, 0, 1] at every position. The
    # second grows the region by 2 at the last position, which adds
    # solutions with -1, 0 or 1 at the others, such as (-1, -1, 2); a sum
    # kept from before the growth lacks them, and 2 would lose its supports.
    checker = unshared(sum_equals(0, 3))
    f = make_reference(ConsistencyLevel(level), checker)
    f.apply(Instance.of([[-1, 0, 1]] * 3))
    grown = Instance.of([[-1, 0, 1], [-1, 0, 1], [-1, 0, 1, 2]])
    assert f.apply(grown) == LEVEL_FUNCS[level](checker, grown) == Filtered(grown)


def test_each_position_keeps_a_bounded_cache_of_sums_per_region():
    # Every nonempty subset of -4..4 at position 0, more lists than the
    # bound, inside one region: the sums of the first SHARED_SUMS are kept
    # and the later ones are computed each time. A growth empties the same
    # dicts, which then hold the sums of the call that grew the region.
    checker = unshared(sum_equals(0, 2))
    filters = {level: make_reference(ConsistencyLevel(level), checker) for level in ("arc", "boundd")}
    memo = memo_of(filters["arc"])
    sums = list(memo.sums)
    full = list(range(-4, 5))
    subsets = [[v for k, v in enumerate(full) if mask >> k & 1] for mask in range(1, 2 ** len(full))]
    assert len(subsets) > reference.SHARED_SUMS
    filters["arc"].apply(Instance.of([full, full]))
    for _ in range(2):
        for lst in subsets:
            inst = Instance.of([lst, full])
            for level, f in filters.items():
                assert f.apply(inst) == LEVEL_FUNCS[level](checker, inst), (level, lst)
    assert list(map(operator.is_, memo.sums, sums)) == [True, True]
    stored = [full, *subsets[: reference.SHARED_SUMS - 1]]
    assert [list(map(list, s)) for s in sums] == [stored, [full]]
    grown = Instance.of([[-5, 5], full])
    assert filters["arc"].apply(grown) == LEVEL_FUNCS["arc"](checker, grown)
    assert list(map(operator.is_, memo.sums, sums)) == [True, True]
    assert [list(map(list, s)) for s in sums] == [[[-5, 5]], [full]]


class CountingColumn(dict):
    """A position's bitsets in the table that counts the values read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def count_column_reads(f, inst):
    """`f.apply(inst)` once more after a first call, and the number of values
    read from the table's columns; the first call stored the sums of the
    lists, so the second reads only what its scan tests."""
    out = f.apply(inst)
    memo = memo_of(f)
    memo.bits[:] = map(CountingColumn, memo.bits)
    assert f.apply(inst) == out
    return out, sum(c.reads for c in memo.bits)


@pytest.mark.parametrize("level", sorted(LEVEL_FUNCS))
def test_a_table_call_over_lists_with_no_solution_tests_no_value(level):
    # The minima sum to -8 > -9, so no tuple of these lists sums to -9: the
    # table's solutions inside them are none, and the call answers at once.
    checker = unshared(sum_equals(-9, 5))
    inst = Instance.of([[-2, -1, 0], [-3, -2], [-1, 1], [-1, 0, 2], [-1, 3]])
    assert LEVEL_FUNCS[level](checker, inst) is INCONSISTENT
    f = make_reference(ConsistencyLevel(level), checker)
    assert count_column_reads(f, inst) == (INCONSISTENT, 0)


def test_a_table_call_that_keeps_its_instance_tests_each_value_once():
    inst = Instance.of([[-3, -2, -1]] * 5)
    f = make_reference(ConsistencyLevel.ARC, unshared(sum_equals(-9, 5)))
    out, reads = count_column_reads(f, inst)
    assert out == Filtered(inst) and out.instance is inst
    assert reads == 15


def test_a_table_call_holds_the_lock_until_its_scan_ends(monkeypatch):
    # A scan that answers from the table runs under the memo's lock, so no
    # other thread grows the table or clears a sum under it; a call past
    # its cap searches without the lock.
    checker = unshared(sum_equals(0, 3))
    inst = Instance.of([[-2, 0, 2], [-1, 1], [0, 3]])
    caps = (DEFAULT_CAP, 20)
    expected = [bound_z_filter(checker, inst, cap) for cap in caps]
    filters = [make_reference(ConsistencyLevel.BOUND_Z, checker, cap) for cap in caps]
    memo, held, scan = memo_of(filters[0]), [], reference._scan

    def watched(*args):
        held.append(memo.lock.locked())
        return scan(*args)

    monkeypatch.setattr(reference, "_scan", watched)
    assert [f.apply(inst) for f in filters] == expected
    assert held == [True, False]


def test_threads_that_share_a_memo_answer_as_the_level_functions():
    # A bundled checker, and so its memo, is shared by every caller in the
    # process. Four threads filter over one checker, whose memo starts
    # empty, at every level while the calls grow the table; with a short
    # switch interval a grow that another thread interleaved would answer
    # wrongly or pack a solution twice.
    checker = unshared(sum_equals(0, 5))
    rng = SplitMix64(61)
    configs = [GenConfig(value_min=-m, value_max=m) for m in (1, 2, 3, 4)]
    instances = [generate_instance(rng, cfg) for cfg in configs for _ in range(15)]
    expected = [[func(checker, inst) for func in LEVEL_FUNCS.values()] for inst in instances]
    filters = [make_reference(ConsistencyLevel(level), checker) for level in LEVEL_FUNCS]
    wrong = []

    def work(k):
        for n in range(k, k + len(instances)):
            n %= len(instances)
            if [f.apply(instances[n]) for f in filters] != expected[n]:
                wrong.append(instances[n])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 7,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    memo = memo_of(filters[0])
    assert sorted(table_solutions(memo)) == solutions(checker, Instance.of(region(memo)))
    # Every stored sum is the sum of its list's bitsets over the table as it is.
    stale = [
        (k, lst)
        for k, (b, s) in enumerate(zip(memo.bits, memo.sums))
        for lst, t in s.items()
        if t != sum(map(b.__getitem__, lst))
    ]
    assert any(memo.sums) and stale == []


def test_reference_filters_call_the_predicate_in_a_fixed_order():
    # Filters at every level share one sum=6 checker. Every instance fits
    # the cap, so each call answers from the table, growing its region
    # where it must: six extensions over the first five instances reach
    # the whole box [-3, 3]**5, and the digest pins the order in which the
    # slabs of each extension are enumerated.
    rng = SplitMix64(15)
    instances = [generate_instance(rng, GenConfig()) for _ in range(200)]
    counted, calls = counting(sum_equals(6, 5))
    filters = [make_reference(ConsistencyLevel(level), counted) for level in sorted(LEVEL_FUNCS)]
    for inst in instances:
        for f in filters:
            f.apply(inst)
    assert len(calls) == region_size(memo_of(filters[0]))
    assert len(calls) == 7**5
    assert call_digest(calls) == "b7d4707f50a43714be171b2c0cf99b1c109fe2e3a4cdbb8d894716fe718f0670"


def test_reference_filters_past_the_table_cap_call_the_predicate_in_a_fixed_order():
    # Over -8..8 the box of five variables holds 17**5 tuples, past the
    # default cap. Each hull fits it, so the first calls grow a table, and
    # once growing it over a call's lists would pass the cap, the call
    # searches with the witnesses that every level's calls before it left.
    # Every value of these draws has a support, so every outcome keeps its
    # instance. The digests pin the predicate's arguments in call order,
    # each value packed in a signed byte to keep the hashing quick.
    rng = SplitMix64(54)
    cfg = GenConfig(value_min=-8, value_max=8)
    instances = [generate_instance(rng, cfg) for _ in range(4)]
    digests = {}
    for checker in (sum_equals(0, 5), all_different(5)):
        counted, calls = counting(checker)
        filters = [make_reference(level, counted) for level in ConsistencyLevel]
        for inst in instances:
            assert [f.apply(inst) for f in filters] == [Filtered(inst)] * 4, checker.name
        assert region_size(memo_of(filters[0])) < len(calls), checker.name
        packed = array.array("b", itertools.chain.from_iterable(calls)).tobytes()
        digests[checker.name] = len(calls), hashlib.sha256(packed).hexdigest()
    assert digests == {
        "sum=0": (716_924, "8c82e69e74d236dba615b25501277bba005e29e90fa6ff2c8c6b29251ffc99d2"),
        "alldiff": (777_677, "54be49037e5214b505cd44355ea287953081af752c96f37e81c6ffea5c37dafd"),
    }
