"""RNG bit-exactness, instance generation, and shrinking."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from propcheck import (
    Domain,
    GenConfig,
    Instance,
    SplitMix64,
    generate_instance,
    shrink,
)
from propcheck import generator
from propcheck.generator import _LANES

# Published reference outputs of splitmix64 from seed 0.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def by_floats(rng, cfg, fell=None):
    """The generator as first written: one next_float() per candidate.
    Appends to `fell` the variables that took the fallback."""
    candidates = range(cfg.value_min, cfg.value_max + 1)
    next_float, density = rng.next_float, cfg.density
    doms = []
    for i in range(cfg.n_vars):
        values = [v for v in candidates if next_float() < density]
        if not values:
            if fell is not None:
                fell.append(i)
            values = [cfg.value_min + rng.next_below(len(candidates))]
        doms.append(values)
    return Instance.of(doms)


def test_splitmix64_golden_sequence():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX64_SEED0


def test_splitmix64_state_wraps_mod_2_64():
    rng = SplitMix64(2**64 - 1)
    rng.next_u64()
    assert 0 <= rng.state < 2**64


def test_next_below_range():
    rng = SplitMix64(7)
    draws = [rng.next_below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) > 1


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert cfg.n_vars == 5 and cfg.n_tests == 100 and cfg.density == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_vars": 0},
            {"value_min": 3, "value_max": -3},
            {"density": 0.0},
            {"density": 1.5},
            {"n_tests": 0},
            {"seed": -1},
            {"value_min": 2**31, "value_max": 2**31},
            {"value_min": -(2**31) - 1, "value_max": -(2**31) - 1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)

    def test_value_range_may_reach_the_int32_bounds(self):
        GenConfig(value_min=-(2**31), value_max=-(2**31))
        GenConfig(value_min=2**31 - 1, value_max=2**31 - 1)

    def test_draws_per_instance_are_bounded(self):
        # One draw per candidate value: (max - min + 1) * n_vars draws.
        GenConfig(n_vars=1, value_min=0, value_max=999_999)
        GenConfig(n_vars=4, value_min=1, value_max=250_000)
        for kwargs in (
            {"n_vars": 1, "value_min": 0, "value_max": 1_000_000},
            {"n_vars": 4, "value_min": 0, "value_max": 250_000},
            {"n_vars": 5, "value_min": -(2**31), "value_max": 2**31 - 1},
        ):
            with pytest.raises(ValueError, match="1,000,000"):
                GenConfig(**kwargs)


class TestGenerateInstance:
    def test_forced_inclusion(self):
        cfg = GenConfig(n_vars=1, value_min=0, value_max=0, density=1.0)
        assert generate_instance(SplitMix64(3), cfg) == Instance.of([[0]])

    def test_determinism(self):
        cfg = GenConfig(n_vars=4, value_min=-5, value_max=5, seed=99)
        a = generate_instance(SplitMix64(99), cfg)
        b = generate_instance(SplitMix64(99), cfg)
        assert a == b

    def test_golden_instance_seed42(self):
        # Regression fixture: frozen output of the bit-exact generator spec.
        cfg = GenConfig(n_vars=3, value_min=-2, value_max=2, density=0.5, seed=42)
        inst = generate_instance(SplitMix64(42), cfg)
        assert inst == Instance.of([[-1, 0, 1, 2], [-1, 1], [-2, -1]])

    # The first two configs draw about 700,000 candidate values each: 7 per
    # variable at the defaults, 41 per variable at -20..20. The next two
    # pin the ends of the threshold. The generator computes the draws in
    # passes of at most _LANES, so the last four cross pass boundaries: a
    # variable wider than a pass, a pass that ends inside a variable of
    # an instance, fallbacks right after a boundary (`at_boundary`) and
    # one instance at the 1,000,000-draw limit. The oracle draws through
    # next_u64, so the passes must match it draw for draw.
    @pytest.mark.parametrize(
        "cfg,count",
        [
            (GenConfig(), 20_000),
            (GenConfig(value_min=-20, value_max=20, density=0.3), 3_500),
            # The threshold is 2**64, above every draw.
            (GenConfig(density=1.0), 3_000),
            # About 87% of domains come out empty and take the next_below
            # fallback.
            (GenConfig(density=0.02), 3_000),
            (GenConfig(n_vars=2, value_min=0, value_max=2 * _LANES + 99, density=0.3), 20),
            (GenConfig(n_vars=40, value_min=-20, value_max=20), 200),
            # Each domain of 64 values comes out empty with probability
            # about 1/4. The first pass holds the first _LANES // 64
            # variables, so when the last of them is the first to fall
            # back, its fallback takes the first draw of the next pass.
            (GenConfig(n_vars=_LANES // 64 + 1, value_min=0, value_max=63, density=0.0214), 300),
            (GenConfig(n_vars=1, value_min=-500_000, value_max=499_999), 1),
        ],
        ids=["defaults", "wide-sparse", "full", "fallback", "wider-than-a-pass",
             "pass-ends-inside", "fallback-at-a-boundary", "draw-limit"],
    )
    def test_same_stream_as_the_float_rule(self, cfg, count):
        fallbacks = []  # per instance, the variables that took the fallback
        ours, oracle = SplitMix64(2026), SplitMix64(2026)
        for _ in range(count):
            fallbacks.append([])
            assert generate_instance(ours, cfg) == by_floats(oracle, cfg, fallbacks[-1])
            assert ours.state == oracle.state
        if cfg.density == 0.0214:
            candidates = cfg.value_max - cfg.value_min + 1
            at_boundary = [fell[:1] == [_LANES // candidates - 1] for fell in fallbacks]
            assert sum(at_boundary) >= 3

    # The generator reads on in the flags the last instance left when the
    # next one starts at the state and threshold where it ended, and
    # computes afresh elsewhere; each way must give the oracle's stream.
    @pytest.mark.parametrize(
        "pattern", ["two-rngs", "next-u64-between", "density-switch", "state-by-hand"]
    )
    def test_look_ahead_keeps_the_stream(self, pattern):
        ours, oracle = [SplitMix64(11), SplitMix64(12)], [SplitMix64(11), SplitMix64(12)]
        starts = []
        for k in range(600):
            # Every third instance switches to a sparse threshold at the
            # position where a dense one ended, and back.
            sparse = pattern == "density-switch" and k % 3 == 0
            cfg = GenConfig(density=0.02) if sparse else GenConfig()
            j = k % 2 if pattern == "two-rngs" else 0
            if pattern == "state-by-hand" and k % 4 == 1:
                # A new rng set to where the last instance ended.
                ours[j], oracle[j] = SplitMix64(0), SplitMix64(0)
                ours[j].state = oracle[j].state = starts[-1][1]
            elif pattern == "state-by-hand" and k % 4 == 3:
                ours[j].state = oracle[j].state = starts[-3][0]  # an earlier position
            start = ours[j].state
            assert generate_instance(ours[j], cfg) == by_floats(oracle[j], cfg), (pattern, k)
            assert ours[j].state == oracle[j].state, (pattern, k)
            starts.append((start, ours[j].state))
            if pattern == "next-u64-between":
                assert ours[j].next_u64() == oracle[j].next_u64()

    def test_threads_drawing_from_separate_rngs_get_the_sequential_results(self):
        # More threads than cores, switching often: the look-ahead entry and
        # the shared domains are read and replaced by every thread.
        cfg, seeds = GenConfig(), range(31, 35)

        def draw(seed, out):
            rng = SplitMix64(seed)
            out.extend((generate_instance(rng, cfg), rng.state) for _ in range(1_000))

        sequential = [[] for _ in seeds]
        for seed, out in zip(seeds, sequential):
            draw(seed, out)
        concurrent = [[] for _ in seeds]
        threads = [threading.Thread(target=draw, args=args) for args in zip(seeds, concurrent)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert concurrent == sequential

    def test_equal_flag_patterns_give_one_shared_domain(self):
        cfg = GenConfig(density=1.0)
        a = generate_instance(SplitMix64(1), cfg)
        b = generate_instance(SplitMix64(2), cfg)
        assert all(d is a[0] for d in a + b)
        # Past the sharing width, each domain is built anew.
        wide = generate_instance(SplitMix64(1), GenConfig(value_min=-8, value_max=8, density=1.0))
        assert wide[0] == wide[1] and wide[0] is not wide[1]

    def test_the_shared_domains_stay_bounded(self):
        rng = SplitMix64(41)
        width = generator.SHARED_WIDTH
        for k in range(1_000):
            generate_instance(rng, GenConfig(value_min=k % 4, value_max=k % 4 + width - 1))
        held = generator._shared_domain.cache_info()
        assert held.currsize == held.maxsize == generator.SHARED_DOMAINS
        generate_instance(rng, GenConfig(n_vars=1, value_min=-500_000, value_max=499_999))
        assert generator._shared_domain.cache_info() == held
        # The look-ahead keeps less than one pass past where it ended.
        assert len(generator._ahead[1]) < _LANES

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=50)
    def test_bounds_and_nonempty(self, seed):
        cfg = GenConfig(n_vars=4, value_min=-2, value_max=2, density=0.3)
        inst = generate_instance(SplitMix64(seed), cfg)
        assert inst.arity == 4
        for d in inst.domains:
            assert len(d) >= 1
            assert all(-2 <= v <= 2 for v in d)


class TestShrink:
    def test_removes_irrelevant_values(self):
        failing = Instance.of([[1, 2, 3]])
        result = shrink(failing, lambda i: 2 in i.domains[0])
        assert result.instance == Instance.of([[2]])
        assert result.minimal

    def test_already_minimal_unchanged(self):
        failing = Instance.of([[2]])
        result = shrink(failing, lambda i: 2 in i.domains[0])
        assert result.instance == failing
        assert result.minimal

    def test_always_true_keeps_smallest_values(self):
        result = shrink(Instance.of([[1, 2], [3]]), lambda i: True)
        assert result.instance == Instance.of([[1], [3]])

    def test_idempotent(self):
        fails = lambda i: 2 in i.domains[0] and len(i.domains[1]) >= 1
        once = shrink(Instance.of([[1, 2, 3], [5, 6]]), fails)
        twice = shrink(once.instance, fails)
        assert once.instance == twice.instance

    def test_result_still_fails(self):
        fails = lambda i: sum(len(d) for d in i.domains) >= 3
        result = shrink(Instance.of([[1, 2, 3], [4, 5]]), fails)
        assert fails(result.instance)

    def test_budget_exhaustion_flags_nonminimal(self):
        failing = Instance.of([list(range(20)), list(range(20))])
        result = shrink(failing, lambda i: True, budget=5)
        assert not result.minimal
        assert result.evaluations == 5

    def test_never_empties_a_domain(self):
        result = shrink(Instance.of([[1, 2, 3], [7]]), lambda i: True)
        assert all(len(d) >= 1 for d in result.instance.domains)
