"""Seeded instance generation and greedy counterexample shrinking.

The RNG is a bit-exact splitmix64 so that campaigns replay identically on
any platform. Instance generation draws one decision per candidate value,
variable-major then value-ascending, which keeps replays easy to reason
about.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Callable, NamedTuple

from .domains import INT32_MAX, INT32_MIN, Domain, Instance, _Validated

_MASK64 = (1 << 64) - 1
# The splitmix64 increment and its two mixing multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Generation costs one draw per candidate value, so a configuration may ask
# for at most this many draws per instance.
_MAX_DRAWS = 1_000_000


class SplitMix64:
    """Bit-exact splitmix64; state is a 64-bit unsigned integer.

    `generate_instance` computes the same steps ahead in passes (`_pass`),
    with these module constants, and writes the state back.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = z = (self.state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)


class _GenConfig(NamedTuple):
    n_vars: int = 5
    value_min: int = -3
    value_max: int = 3
    density: float = 0.5
    n_tests: int = 100
    seed: int = 0


class GenConfig(_Validated, _GenConfig):
    """Campaign parameters.

    The value range default (-3..3) is deliberately narrow: with wide ranges
    and density 0.5, singleton domains essentially never occur, which makes
    bugs that only trigger on fixed variables (e.g. forward-checking defects)
    undetectable. See the bug-detection tests for the measured impact.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        if self.value_min > self.value_max:
            raise ValueError("value_min must be <= value_max")
        if self.value_min < INT32_MIN or self.value_max > INT32_MAX:
            raise ValueError("value_min and value_max must be signed 32-bit integers")
        if (self.value_max - self.value_min + 1) * self.n_vars > _MAX_DRAWS:
            raise ValueError(
                f"(value_max - value_min + 1) * n_vars must be at most {_MAX_DRAWS:,}"
                " (one draw per candidate value)"
            )
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        if self.n_tests < 1:
            raise ValueError("n_tests must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def generate_instance(rng: SplitMix64, cfg: GenConfig) -> Instance:
    """Draw one instance: each candidate value enters with probability density.

    A domain that comes out empty is forced to a single uniformly drawn
    value (`next_below`), so domains are never empty. A value enters when
    `next_float() < density`, tested on the raw draw: for `x = u >> 11`,
    `x * 2**-53 < density` holds exactly when `x < ceil(density * 2**53)`,
    that is when `u < ceil(density * 2**53) << 11`.

    Splitmix64 is counter-based, so `_flags` computes the flags ahead. An
    instance at a new stream position computes exactly its own draws; one
    that starts at the state and threshold where the last one ended reads
    on in the flags it left (`_ahead`) and computes at least `_LANES` more.
    A fallback takes the next draw through `rng` and its flag is skipped;
    `rng.state` ends after the last draw taken, as with `rng.next_u64()`.
    Domains at most `SHARED_WIDTH` wide come from a cache of
    `SHARED_DOMAINS`; they are immutable and every identity test on them is
    positionwise, so sharing changes no outcome. The values come out
    ascending, distinct and inside the int32 range that `GenConfig`
    enforces, so each domain skips `Domain`'s checks.
    """
    global _ahead
    n_vars, low, high, density = cfg.n_vars, cfg.value_min, cfg.value_max, cfg.density
    width = high - low + 1
    below = (math.ceil(density * 2**53) << 11) - 1 | 1 << 64
    domain = _shared_domain if width <= SHARED_WIDTH else _domain
    state = rng.state
    (key, buf), ahead = _ahead, _LANES
    if key != (state, below):
        buf, ahead = b"", 0
    at = 0  # draws taken after `state`; `buf` holds the flags of the draws after it
    doms = []
    for rest in range(n_vars * width, 0, -width):  # the draws left without a fallback
        if len(buf) < at + width:
            state, buf, at = (state + at * _GAMMA) & _MASK64, buf[at:], 0
            buf += _flags(state + len(buf) * _GAMMA, max(rest - len(buf), ahead), below)
        d = domain(low, buf[at : at + width])
        at += width
        if not d:
            rng.state = (state + at * _GAMMA) & _MASK64
            d = Domain._from_sorted((low + rng.next_below(width),))
            at += 1
        doms.append(d)
    rng.state = state = (state + at * _GAMMA) & _MASK64
    _ahead = (state, below), buf[at:]
    return Instance(doms)


def _domain(low: int, flags: bytes) -> Domain:
    """The candidates from `low` on whose flag is set."""
    # Through a list, so that the tuple is allocated at its final size:
    # one resized from a guess moves tuples between CPython's per-size
    # free lists, which raised the peak RSS of 90 CLI campaigns by
    # 0.75 MiB (CPython 3.11).
    return Domain._from_sorted(list(compress(range(low, low + len(flags)), flags)))


# Every flag pattern of a value range up to SHARED_WIDTH wide fits in the
# cache: 128 at the default width of 7. Past it, misses cost more than
# building the domain (+5-10% per instance at widths 12 and 16).
SHARED_WIDTH = 10
SHARED_DOMAINS = 2**SHARED_WIDTH
_shared_domain = lru_cache(maxsize=SHARED_DOMAINS)(_domain)

# (state, threshold) where the last instance ended, and the flags past it.
_ahead = (-1, -1), b""

# A pass computes at most this many draws, one per 128-bit lane of one int,
# which bounds its memory at the `_MAX_DRAWS` limit.
_LANES = 256
# Per lane: 1, 2**64 - 1 and (k + 1) * _GAMMA for lane k, built in one pass
# over the lanes. A pass over its last n lanes shifts them down.
_ONES = int.from_bytes(b"\1".ljust(16, b"\0") * _LANES, "little")
_LOW = _ONES * _MASK64
_STEPS = int.from_bytes(
    b"".join((k * _GAMMA).to_bytes(16, "little") for k in range(1, _LANES + 1)), "little"
)


def _flags(state: int, n: int, below: int) -> bytes:
    """The flags of the `n` draws after `state`, joined from passes of at
    most `_LANES` draws."""
    return b"".join(
        _pass(state + k * _GAMMA, min(_LANES, n - k), below) for k in range(0, n, _LANES)
    )


def _pass(state: int, n: int, below: int) -> bytes:
    """The flags of the `n` draws after `state`, by splitmix64 on all lanes at once.

    Splitmix64 is counter-based: draw k is the mix of `state + k * _GAMMA`
    mod 2**64. Lane k - 1 holds that value below bit 64 and zeros above.
    Each step masks off the bits a shift brings in from the lane above
    before it multiplies, so a product stays inside its 128-bit lane.
    `below` is the threshold minus one with bit 64 set, so a draw `z`
    enters iff bit 64 of `below - z` is set; each lane's difference is
    positive and below 2**65, so no lane borrows from another.
    """
    drop = 128 * (_LANES - n)
    ones, low = _ONES >> drop, _LOW >> drop
    # The last n lanes of _STEPS count from _LANES - n + 1, so start that far back.
    z = (((state - (_LANES - n) * _GAMMA) & _MASK64) * ones + (_STEPS >> drop)) & low
    z = (((z ^ z >> 30) & low) * _MIX1) & low
    z = (((z ^ z >> 27) & low) * _MIX2) & low
    z = (below * ones - ((z ^ z >> 31) & low)) >> 64
    return z.to_bytes(16 * n, "little")[::16]


class ShrinkResult(NamedTuple):
    instance: Instance
    minimal: bool
    evaluations: int


DEFAULT_SHRINK_BUDGET = 10_000


def shrink(
    failing: Instance,
    fails: Callable[[Instance], bool],
    budget: int = DEFAULT_SHRINK_BUDGET,
) -> ShrinkResult:
    """Greedily remove single values while the failure persists.

    Candidates are scanned over variables by descending domain size (ties:
    lower index first) and values from largest to smallest within a domain,
    so the smallest values survive; a removal never empties a domain. The
    first accepted removal restarts the scan. The result is 1-minimal unless
    the budget runs out first.
    """
    current = failing
    evaluations = 0
    while True:
        order = sorted(
            range(current.arity), key=lambda i: (-len(current.domains[i]), i)
        )
        accepted = False
        for i in order:
            if len(current.domains[i]) <= 1:
                continue
            for v in reversed(current.domains[i].values):
                if evaluations >= budget:
                    return ShrinkResult(current, minimal=False, evaluations=evaluations)
                doms = list(current.domains)
                doms[i] = doms[i].remove(v)
                candidate = Instance(doms)
                evaluations += 1
                if fails(candidate):
                    current = candidate
                    accepted = True
                    break
            if accepted:
                break
        if not accepted:
            return ShrinkResult(current, minimal=True, evaluations=evaluations)
