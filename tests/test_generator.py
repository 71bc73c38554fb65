"""RNG bit-exactness, instance generation, and shrinking."""

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
from propcheck.generator import _LANES

# Published reference outputs of splitmix64 from seed 0.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


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
        # The generator as first written: one next_float() per candidate.
        candidates = range(cfg.value_min, cfg.value_max + 1)
        fallbacks = []  # per instance, the variables that took the fallback

        def by_floats(rng):
            next_float, density = rng.next_float, cfg.density
            doms = []
            fallbacks.append([])
            for i in range(cfg.n_vars):
                values = [v for v in candidates if next_float() < density]
                if not values:
                    fallbacks[-1].append(i)
                    values = [cfg.value_min + rng.next_below(len(candidates))]
                doms.append(values)
            return Instance.of(doms)

        ours, oracle = SplitMix64(2026), SplitMix64(2026)
        for _ in range(count):
            assert generate_instance(ours, cfg) == by_floats(oracle)
            assert ours.state == oracle.state
        if cfg.density == 0.0214:
            at_boundary = [fell[:1] == [_LANES // len(candidates) - 1] for fell in fallbacks]
            assert sum(at_boundary) >= 3

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
