import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import derive_seed_reference, open_uniform, sample, variance

from dpopt.errors import RangeError
from dpopt.noise import (
    NOISE_CHUNK,
    derive_seed,
    laplace_draws,
    _open_uniform,
    laplace_inverse_cdf,
)
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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(-(2**64), 2**65), min_size=1, max_size=3),
    n_agents=st.integers(1, 4),
    stream=st.sampled_from(["state", "tracker"]),
    edge=st.integers(0, 3),
    before=st.integers(0, 4),
    after=st.integers(1, 4),
    dim=st.integers(1, 3),
)
@example(seeds=[2**63, -1, 2**64 - 1], n_agents=2, stream="tracker",
         edge=1, before=2, after=2, dim=3)
def test_draws_equal_the_integer_oracle(seeds, n_agents, stream, edge,
                                        before, after, dim):
    # The iterations run from before a multiple of NOISE_CHUNK (the
    # blocks the solvers draw) to after it.
    start = max(0, edge * NOISE_CHUNK - before)
    ks = np.arange(start, edge * NOISE_CHUNK + after)
    block = laplace_draws(SCALE, seeds, n_agents, stream, ks, dim)
    assert block.shape == (len(ks), len(seeds), n_agents, dim)
    for t, k in enumerate(ks):
        for r, seed in enumerate(seeds):
            for agent in range(n_agents):
                want = sample(SCALE, seed, agent, stream, int(k), dim)
                # Bytes compare signs and NaN payloads too.
                assert same_bits(block[t, r, agent], want)
                assert np.array_equal(np.signbit(block[t, r, agent]),
                                      np.signbit(want))


@settings(max_examples=200, deadline=None)
@given(base_seed=st.integers(-(2**64), 2**65), index=st.integers(0, 10**6))
def test_derive_seed_equals_the_integer_oracle(base_seed, index):
    assert derive_seed(base_seed, index) \
        == derive_seed_reference(base_seed, index)


class TestInverseCdf:
    @staticmethod
    def formula(q, scale):
        q = np.asarray(q, dtype=float)
        centered = q - 0.5
        return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))

    def test_equals_the_formula_bit_for_bit(self):
        qs = np.concatenate([np.linspace(0.0, 1.0, 1001),
                             [2.0**-54, 0.5 - 2.0**-54, 0.5 + 2.0**-53,
                              1.0 - 2.0**-53]])
        scales = np.linspace(0.0, 3.0, qs.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for scale in (1.3, 0.0, scales):
                got = laplace_inverse_cdf(qs, scale)
                assert same_bits(got, self.formula(qs, scale))

    def test_scalars_give_scalars_and_inputs_are_kept(self):
        for q in (0.25, 0.5, 0.75, np.float64(0.1)):
            got = laplace_inverse_cdf(q, 2.0)
            assert type(got) is np.float64
            assert same_bits(got, self.formula(q, 2.0))
        qs = np.array([0.1, 0.6])
        laplace_inverse_cdf(qs, 1.0)
        assert np.array_equal(qs, [0.1, 0.6])

    def test_broadcasts_q_against_scale(self):
        scales = np.array([[1.0], [2.5]])
        got = laplace_inverse_cdf([0.2, 0.9, 0.4], scales)
        assert got.shape == (2, 3)
        assert same_bits(got, self.formula([0.2, 0.9, 0.4], scales))
        assert same_bits(laplace_inverse_cdf(0.3, scales),
                         self.formula(0.3, scales))


class TestOpenUniform:
    # Every word whose top 53 bits are all ones maps to q = 1.0 before
    # the clamp: (2**53 - 1) + 0.5 rounds to even, 2**53.
    TOP = (2**53 - 1) << 11
    CLAMPED = (TOP, TOP + 1, 2**64 - 1)
    NEIGHBOURS = (TOP - 1, (2**53 - 2) << 11, (2**52 + 1) << 11, 2**63, 0,
                  1 << 11)

    def test_top_words_give_finite_draws(self):
        q = _open_uniform(np.array(self.CLAMPED, dtype=np.uint64))
        assert np.all(q == 1.0 - 2.0**-53)
        assert [open_uniform(w) for w in self.CLAMPED] == q.tolist()
        draws = laplace_inverse_cdf(q, 1.0)
        assert np.all(np.isfinite(draws)) and np.all(draws > 36.0)

    def test_neighbours_are_unchanged(self):
        q = _open_uniform(np.array(self.NEIGHBOURS, dtype=np.uint64))
        unclamped = [((w >> 11) + 0.5) * 2.0**-53 for w in self.NEIGHBOURS]
        assert q.tolist() == unclamped
        assert [open_uniform(w) for w in self.NEIGHBOURS] == unclamped
        assert max(unclamped) == 1.0 - 2.0**-52

    def test_support_extremes_pinned(self):
        # Words 0 and 2**64 - 1 give the sampler's extreme draws: every
        # draw at scale nu lies in [-36.7368005696771 nu,
        # 36.04365338911715 nu], asymmetric because the top uniform is
        # clamped while the bottom one keeps its half-step offset.
        q = _open_uniform(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert q.tolist() == [2.0**-54, 1.0 - 2.0**-53]
        assert laplace_inverse_cdf(q, 1.0).tolist() \
            == [-36.7368005696771, 36.04365338911715]
        assert laplace_inverse_cdf(q, 2.0).tolist() \
            == [-2 * 36.7368005696771, 2 * 36.04365338911715]


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
