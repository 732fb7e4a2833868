"""Unit tests for seeded random streams and distributions."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.rand import (
    LatencyJitter,
    RandomStreams,
    choose_weighted,
    exponential_delay,
    zipfian_ranks,
    zipfian_sampler,
)


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        a = RandomStreams(5).stream("net").random()
        b = RandomStreams(5).stream("net").random()
        assert a == b

    def test_contains(self):
        streams = RandomStreams(0)
        assert "x" not in streams
        streams.stream("x")
        assert "x" in streams


class TestLatencyJitter:
    def test_zero_sigma_is_identity(self):
        jitter = LatencyJitter(random.Random(0), sigma=0.0)
        assert jitter.sample(1000) == 1000

    def test_mean_preserving(self):
        jitter = LatencyJitter(random.Random(0), sigma=0.2)
        samples = [jitter.sample(10_000) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 10_000) / 10_000 < 0.02

    def test_floor_at_half_base(self):
        jitter = LatencyJitter(random.Random(0), sigma=2.0)
        assert all(jitter.sample(1000) >= 500 for _ in range(2000))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LatencyJitter(random.Random(0), sigma=-0.1)


#: One step of a jitter program: draw (base), or a revocable draw of
#: base that is taken back before the next draw.
_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=-5, max_value=50_000)),
    max_size=40)


class TestJitterUnread:
    """Taking a draw back must match rewinding the generator exactly."""

    @given(_STEPS, st.sampled_from([0.0, 0.05, 0.12, 1.5]),
           st.integers(min_value=0, max_value=2**32))
    def test_unread_matches_state_rewind(self, steps, sigma, seed):
        fast = LatencyJitter(random.Random(seed), sigma)
        rewound_rng = random.Random(seed)
        rewound = LatencyJitter(rewound_rng, sigma)
        for revoke, base in steps:
            if revoke:
                cost, token = fast.sample_revocable(base)
                state = rewound_rng.getstate()
                assert rewound.sample(base) == cost
                fast.unread(token)
                rewound_rng.setstate(state)
            else:
                assert fast.sample(base) == rewound.sample(base)
        # The streams end at the same position too.
        assert fast.sample(10_000) == rewound.sample(10_000)

    def test_unread_is_consumed_by_the_next_draw(self):
        jitter = LatencyJitter(random.Random(7), sigma=0.3)
        cost, token = jitter.sample_revocable(1000)
        jitter.unread(token)
        assert jitter.sample(1000) == cost
        assert jitter.sample(1000) != cost

    def test_nothing_drawn_means_nothing_to_unread(self):
        jitter = LatencyJitter(random.Random(7), sigma=0.3)
        assert jitter.sample_revocable(0) == (0, None)
        jitter.unread(None)
        assert LatencyJitter(random.Random(7), sigma=0.0).sample_revocable(
            800) == (800, None)

    def test_double_unread_rejected(self):
        jitter = LatencyJitter(random.Random(7), sigma=0.3)
        _cost, first = jitter.sample_revocable(1000)
        jitter.unread(first)
        with pytest.raises(SimulationError):
            jitter.unread(first)


class TestInlinedDrawExactness:
    """The inlined draw is ``random.lognormvariate``, bit for bit.

    Each jitter factor must equal the library call on a twin generator
    and leave the stream where the library call leaves it, including
    across revocable draws that are taken back.
    """

    @pytest.mark.parametrize("sigma", [0.05, 0.10, 0.14, 1.5])
    @pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
    def test_draws_equal_stdlib_lognormvariate(self, sigma, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        jitter = LatencyJitter(rng, sigma)
        mu = -sigma * sigma / 2.0
        program = random.Random(seed + 1)
        draws = 0

        def expected(base):
            factor = twin.lognormvariate(mu, sigma)
            return max(base // 2, round(base * factor)), factor

        while draws < 850:  # 12 cases: over 10,000 checked draws in all
            # 2**53 * factor is exact, so that base shows every bit of
            # the factor ``sample`` drew.
            base = program.choice((-3, 0, 1, 99, 9_600, 13_000, 1 << 53,
                                   program.randrange(1, 200_000)))
            kind = program.randrange(3)
            if base <= 0:
                assert jitter.sample(base) == max(base, 0)
                assert jitter.sample_revocable(base) == (max(base, 0), None)
                continue
            draws += 1
            if kind == 0:
                assert jitter.sample(base) == expected(base)[0]
            elif kind == 1:
                assert jitter.sample_revocable(base) == expected(base)
            else:
                state = twin.getstate()
                cost, token = jitter.sample_revocable(base)
                assert (cost, token) == expected(base)
                jitter.unread(token)
                twin.setstate(state)
        # Consume a factor still held back, then compare positions.
        assert jitter.sample(5_000) == expected(5_000)[0]
        assert rng.getstate() == twin.getstate()


class TestZipfian:
    def test_ranks_in_range(self):
        rng = random.Random(3)
        ranks = zipfian_ranks(rng, 1000, 0.9, 5000)
        assert all(0 <= r < 1000 for r in ranks)

    def test_skew_favors_low_ranks(self):
        rng = random.Random(3)
        ranks = zipfian_ranks(rng, 1000, 0.99, 10_000)
        hot = sum(1 for r in ranks if r < 10)
        assert hot > 2000  # the head dominates under heavy skew

    def test_theta_zero_is_uniform(self):
        rng = random.Random(3)
        ranks = zipfian_ranks(rng, 100, 0.0, 10_000)
        hot = sum(1 for r in ranks if r < 10)
        assert 700 < hot < 1300  # ~10%

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            zipfian_ranks(random.Random(0), 10, 1.0, 1)

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            zipfian_ranks(random.Random(0), 0, 0.5, 1)

    @given(st.integers(min_value=1, max_value=10_000),
           st.floats(min_value=0.0, max_value=0.99))
    def test_rank_bounds_property(self, population, theta):
        rng = random.Random(1)
        ranks = zipfian_ranks(rng, population, theta, 50)
        assert all(0 <= r < population for r in ranks)


class TestZipfianSampler:
    """The sampler built once equals the per-call construction."""

    @pytest.mark.parametrize("population,theta", [
        (1, 0.5), (2, 0.9), (3, 0.99), (100, 0.0), (10_000, 0.9),
        (10_000, 0.99), (777, 0.3)])
    def test_sampler_equals_ranks_draw_for_draw(self, population, theta):
        draw = zipfian_sampler(population, theta)
        rng, twin = random.Random(11), random.Random(11)
        for _ in range(2_000):
            assert draw(rng) == zipfian_ranks(twin, population, theta, 1)[0]
            assert rng.getstate() == twin.getstate()

    def test_one_uniform_draw_per_rank(self):
        rng, twin = random.Random(4), random.Random(4)
        zipfian_sampler(10_000, 0.9)(rng)
        twin.random()
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("theta", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_theta_rejected_when_built(self, theta):
        with pytest.raises(ValueError):
            zipfian_sampler(10, theta)

    def test_invalid_population_rejected_when_built(self):
        with pytest.raises(ValueError):
            zipfian_sampler(0, 0.5)


class TestHelpers:
    def test_exponential_delay_nonnegative(self):
        rng = random.Random(0)
        assert all(exponential_delay(rng, 1000) >= 0 for _ in range(1000))

    def test_exponential_zero_mean_is_zero(self):
        assert exponential_delay(random.Random(0), 0) == 0

    def test_choose_weighted_respects_weights(self):
        rng = random.Random(0)
        picks = [choose_weighted(rng, ["a", "b"], [0.99, 0.01])
                 for _ in range(1000)]
        assert picks.count("a") > 900

    def test_choose_weighted_validates(self):
        with pytest.raises(ValueError):
            choose_weighted(random.Random(0), ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            choose_weighted(random.Random(0), ["a"], [0.0])
