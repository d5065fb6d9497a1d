import numpy as np
import pytest

from oracles import sample, variance

from dpopt.errors import RangeError
from dpopt.noise import derive_seed, laplace_draws, laplace_inverse_cdf
from dpopt.schedules import PowerSchedule

SCALE = PowerSchedule.growing(1.0, 0.1, 0.3)
SEED = 11


class TestSample:
    def test_repeat_call_identical(self):
        a = sample(SCALE, SEED, 2, "state", 17, 4)
        b = sample(SCALE, SEED, 2, "state", 17, 4)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        assert not np.array_equal(
            sample(SCALE, SEED, 0, "state", 5, 3),
            sample(SCALE, SEED, 0, "tracker", 5, 3),
        )

    def test_agents_and_iterations_distinct(self):
        base = sample(SCALE, SEED, 0, "state", 5, 3)
        assert not np.array_equal(base, sample(SCALE, SEED, 1, "state", 5, 3))
        assert not np.array_equal(base, sample(SCALE, SEED, 0, "state", 6, 3))

    def test_seed_changes_draws(self):
        a = sample(SCALE, 1, 0, "state", 0, 8)
        b = sample(SCALE, 2, 0, "state", 0, 8)
        assert not np.array_equal(a, b)

    def test_block_matches_per_call(self):
        ks = np.arange(3, 9)
        block = laplace_draws(SCALE, [SEED], 4, "tracker", ks, 5)[:, 0]
        assert block.shape == (6, 4, 5)
        for i, k in enumerate(ks):
            for agent in range(4):
                assert np.array_equal(
                    block[i, agent],
                    sample(SCALE, SEED, agent, "tracker", int(k), 5),
                )

    def test_none_scale_is_silent(self):
        assert np.all(sample(None, 3, 0, "state", 0, 4) == 0.0)
        assert np.all(
            laplace_draws(None, [3], 3, "state", np.arange(5), 4) == 0.0
        )
        assert variance(None, 123) == 0.0

    def test_negative_arguments_rejected(self):
        with pytest.raises(RangeError):
            sample(SCALE, SEED, -1, "state", 0, 2)
        with pytest.raises(RangeError):
            sample(SCALE, SEED, 0, "state", -1, 2)
        with pytest.raises(RangeError):
            sample(SCALE, SEED, 0, "state", 0, 0)


class TestDistribution:
    def test_inverse_cdf_quartiles(self):
        # Laplace quartiles sit at -+ scale * ln(1/2); the median is 0.
        s = 2.0
        assert laplace_inverse_cdf(0.5, s) == 0.0
        assert laplace_inverse_cdf(0.25, s) == pytest.approx(-s * np.log(0.5) * -1.0)
        assert laplace_inverse_cdf(0.75, s) == pytest.approx(-s * np.log(0.5))
        assert laplace_inverse_cdf(0.25, s) == -laplace_inverse_cdf(0.75, s)

    def test_inverse_cdf_monotone(self):
        qs = np.linspace(0.001, 0.999, 571)
        vals = laplace_inverse_cdf(qs, 1.3)
        assert np.all(np.diff(vals) > 0)

    def test_moments_match_laplace(self):
        draws = laplace_draws(PowerSchedule.constant(1.5), [21], 64, "state",
                              np.arange(512), 8).ravel()
        n = draws.size
        # mean 0, variance 2 scale^2; tolerances sized for n = 262144.
        assert abs(draws.mean()) < 4.0 * np.sqrt(2.0 * 1.5**2 / n)
        assert draws.var() == pytest.approx(2.0 * 1.5**2, rel=0.05)
        assert np.mean(np.abs(draws)) == pytest.approx(1.5, rel=0.05)

    def test_variance_tracks_schedule(self):
        for k in (0, 10, 1000):
            s = SCALE.value(k)
            assert variance(SCALE, k) == pytest.approx(2.0 * s * s)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_indexes_distinct(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_bases_distinct(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_nonnegative_63_bit(self):
        for i in range(100):
            s = derive_seed(987654321, i)
            assert 0 <= s < 2**63
