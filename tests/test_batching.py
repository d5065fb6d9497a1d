"""The run-batched solver against serial runs, bit for bit.

monte_carlo steps all runs of a variant in one loop.  Because the noise
is keyed by (seed, agent, stream, iteration, coordinate), every batched
trace must equal the trace of the same seed run alone, in every column
and in its divergence and gradient-bound fields.  `serial_reference`
below is a plain one-run loop, with its own per-iteration budget
recursion, that pins those serial semantics independently of the
batched code.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup

from dpopt import solvers
from dpopt.errors import RangeError
from dpopt.harness import monte_carlo
from dpopt.noise import LaplaceNoiseSource, derive_seed, laplace_draws
from dpopt.schedules import PowerSchedule
from dpopt.solvers import (
    VARIANTS,
    Variant,
    _off_diagonal,
    _record_points,
    effective_schedules,
    run,
    step_static,
    step_tracking,
)

COLUMNS = ("ks", "consensus", "gap", "dist_opt", "tracking", "epsilon_partial")
CHUNK = 2048


def family(variant):
    return "tracking" if Variant.of(variant).tracking else "static"


@functools.lru_cache(maxsize=None)
def shared_setup(kind, noise):
    # stride 7 leaves every horizon below off the record grid, so the
    # endpoint record is exercised too.
    return make_setup(kind, noise=noise, pdop=True, init_radius=10.0,
                      stride=7)


def fields(trace):
    return (
        [getattr(trace, name) for name in COLUMNS]
        + [trace.diverged, trace.diverged_at, trace.diverged_magnitude,
           trace.gradient_bound]
    )


def assert_same(got, want):
    for name in COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name
    assert got.diverged == want.diverged
    assert got.diverged_at == want.diverged_at
    assert np.array_equal(got.diverged_magnitude, want.diverged_magnitude,
                          equal_nan=True)
    assert got.gradient_bound == want.gradient_bound


def check_batch(variant, setup, iterations, base_seed, n_runs):
    """monte_carlo against one run() per derived seed; returns the batch."""
    batch = monte_carlo(variant, setup, iterations, base_seed, n_runs)
    assert len(batch) == n_runs
    for index, trace in enumerate(batch):
        alone = run(variant, setup, iterations, derive_seed(base_seed, index))
        assert_same(trace, alone)
    return batch


class SerialBudget:
    """The raw (unit gradient bound) conservative budget, stepped once
    per iteration beside the solver; NaN for a noiseless run.  Schedules
    are read one index at a time, as in serial_reference."""

    def __init__(self, variant, setup, sch):
        self.sch = sch
        self.static = family(variant) == "static"
        self.weights = setup.consensus if self.static else setup.push_pull
        self.total = np.nan if sch.noise_scale is None else 0.0
        self.s = self.sx = self.sy = 0.0

    def step(self, k):
        sch = self.sch
        if sch.noise_scale is None:
            return

        def at(schedule, index=k):
            return schedule.values([index])[0]

        lam = at(sch.stepsize)
        nu = at(sch.noise_scale, k + 1)
        if self.static:
            shrink = 1.0 - self.weights.min_diag_mag * at(sch.coupling)
            self.s = shrink * self.s + lam
            self.total += self.s / nu
            return
        alpha = 0.0 if sch.tracker_mix is None else at(sch.tracker_mix)
        shrink_y = 1.0 - alpha \
            - self.weights.min_diag_push * at(sch.coupling_tracker)
        shrink_x = 1.0 - self.weights.min_diag_pull * at(sch.coupling_state)
        self.sx, self.sy = (shrink_x * self.sx + lam * self.sy,
                            shrink_y * self.sy + (2.0 - alpha))
        self.total += 2.0 * (self.sx + self.sy) / nu


def serial_reference(variant, setup, iterations, seed):
    """One run, one iteration at a time; returns (trace fields, peak).

    peak is the largest divergence-check value the run reached.
    """
    sch = effective_schedules(variant, setup)
    problem = setup.problem
    m, d = problem.m, problem.dim
    x = setup.init_radius * np.random.default_rng(seed).standard_normal((m, d))
    noise = LaplaceNoiseSource(sch.noise_scale, seed)
    budget = SerialBudget(variant, setup, sch)
    record_ks = _record_points(iterations, setup.stride)
    rows = []
    tracking = family(variant) == "tracking"
    grads = problem.all_gradients(x)
    if tracking:
        w = setup.push_pull
        R, C = w.pull, w.push
        y = grads.copy()
    else:
        W = setup.consensus.matrix

    def record():
        if tracking:
            xbar = (w.left_eigvec @ x) / m
            ybar = y.mean(axis=0)
            track = float(np.sum((y - np.outer(w.right_eigvec, ybar)) ** 2))
        else:
            xbar, track = x.mean(axis=0), np.nan
        rows.append((
            float(np.sum((x - xbar) ** 2)),
            problem.global_cost(xbar) - setup.f_star,
            float(np.linalg.norm(xbar - setup.theta_star)),
            track, budget.total,
        ))

    record()
    bound = float(np.max(np.abs(grads).sum(axis=1)))
    diverged_at, magnitude, peak = None, float("nan"), 0.0
    for k in range(iterations):
        zeta = noise.sample_block(m, "state", [k], d)[0]
        if tracking:
            xi = noise.sample_block(m, "tracker", [k], d)[0]
            mix = 0.0 if sch.tracker_mix is None else sch.tracker_mix.values([k])[0]
            x, y, grads = step_tracking(
                x, y, grads, problem, R, _off_diagonal(R), C, _off_diagonal(C),
                sch.coupling_state.values([k])[0],
                sch.coupling_tracker.values([k])[0], mix,
                sch.stepsize.values([k])[0], zeta, xi,
            )
            extreme = max(np.max(np.abs(x)), np.max(np.abs(y)))
        else:
            x = step_static(x, grads, W, _off_diagonal(W),
                            sch.coupling.values([k])[0],
                            sch.stepsize.values([k])[0], zeta)
            grads = problem.all_gradients(x)
            extreme = np.max(np.abs(x))
        budget.step(k)
        bound = max(bound, float(np.max(np.abs(grads).sum(axis=1))))
        peak = max(peak, float(extreme))
        if not np.isfinite(extreme) or extreme > setup.divergence_threshold:
            diverged_at, magnitude = k + 1, float(extreme)
            break
        if k + 1 in record_ks:
            record()
    cols = [np.array(c) for c in zip(*rows)]
    eps = cols[4] if sch.noise_scale is None else cols[4] * bound
    got = [record_ks[:len(rows)]] + cols[:4] + [eps]
    return got + [diverged_at is not None, diverged_at, magnitude, bound], peak


def assert_matches_reference(trace, variant, setup, iterations, seed):
    want, _ = serial_reference(variant, setup, iterations, seed)
    for a, b in zip(fields(trace), want):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
        else:
            assert a == b or (a != a and b != b)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noise", [True, False], ids=["noisy", "noiseless"])
@pytest.mark.parametrize(
    "n_runs,iterations",
    # Horizons cross the noise-chunk boundary, max(1, 2048 // R)
    # iterations, and end off it.
    [(1, CHUNK + 52), (3, 700), (17, 250)],
)
def test_batch_equals_serial_runs(variant, noise, n_runs, iterations):
    setup = shared_setup(family(variant), noise)
    batch = check_batch(variant, setup, iterations, 21, n_runs)
    assert not any(t.diverged for t in batch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_serial_reference(variant):
    setup = shared_setup(family(variant), True)
    trace = run(variant, setup, 300, seed=5)
    assert_matches_reference(trace, variant, setup, 300, 5)


def test_run_matches_serial_reference_across_chunks():
    setup = shared_setup("static", False)
    trace = run("alg1", setup, CHUNK + 9, seed=2)
    assert_matches_reference(trace, "alg1", setup, CHUNK + 9, 2)


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_mixed_divergence_batch(variant):
    # Started near zero, the runs reach their peaks at different
    # iterations, so they also diverge at different iterations.
    base = dataclasses.replace(shared_setup(family(variant), True),
                               init_radius=0.1)
    n_runs, iterations, base_seed = 9, 300, 13
    # Per-run peaks of the divergence check with no threshold in play,
    # then a threshold between them: only the runs above it diverge.
    free = dataclasses.replace(base, divergence_threshold=np.inf)
    peaks = sorted(
        serial_reference(variant, free, iterations,
                         derive_seed(base_seed, i))[1]
        for i in range(n_runs)
    )
    threshold = 0.5 * (peaks[4] + peaks[5])
    setup = dataclasses.replace(base, divergence_threshold=threshold)
    batch = check_batch(variant, setup, iterations, base_seed, n_runs)
    diverged = [t for t in batch if t.diverged]
    assert len(diverged) == n_runs - 5
    assert len({t.diverged_at for t in diverged}) > 1
    assert all(t.final_k == iterations for t in batch if not t.diverged)
    for index, trace in enumerate(batch):
        assert_matches_reference(trace, variant, setup, iterations,
                                 derive_seed(base_seed, index))


@pytest.mark.parametrize("variant", ["dgd", "push_pull"])
def test_all_runs_diverge_at_different_iterations(variant):
    base = shared_setup(family(variant), True)
    sch = dataclasses.replace(base.schedules,
                              stepsize=PowerSchedule.constant(0.15))
    setup = dataclasses.replace(base, schedules=sch)
    batch = check_batch(variant, setup, 200, 4, 8)
    assert all(t.diverged for t in batch)
    assert len({t.diverged_at for t in batch}) > 1


@settings(max_examples=25, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    noise=st.booleans(),
    base_seed=st.integers(0, 2**64 - 1),
    n_runs=st.integers(1, 12),
    iterations=st.integers(1, 300),
)
def test_batch_equals_serial_property(variant, noise, base_seed, n_runs,
                                      iterations):
    check_batch(variant, shared_setup(family(variant), noise), iterations,
                base_seed, n_runs)


def test_seed_axis_draws_equal_single_source_draws():
    scale = PowerSchedule.growing(1.0, 0.1, 0.3)
    seeds = [derive_seed(3, i) for i in range(5)] + [2**64 - 1, 0]
    ks = np.arange(40, 90)
    block = laplace_draws(scale, seeds, 4, "tracker", ks, 3)
    assert block.shape == (len(ks), len(seeds), 4, 3)
    for r, seed in enumerate(seeds):
        alone = LaplaceNoiseSource(scale, seed).sample_block(4, "tracker", ks, 3)
        assert np.array_equal(block[:, r], alone)


def test_iter_draws_equal_per_iteration_blocks():
    source = LaplaceNoiseSource(PowerSchedule.growing(1.0, 0.1, 0.3), 8)
    draws = list(source.iter_draws(5, "state", CHUNK + 3, 2))
    assert len(draws) == CHUNK + 3
    for k in (0, 1, CHUNK - 1, CHUNK, CHUNK + 2):
        assert np.array_equal(draws[k],
                              source.sample_block(5, "state", [k], 2)[0])


def test_batched_gradients_and_costs_equal_single_calls():
    problem = shared_setup("static", True).problem
    thetas = np.random.default_rng(0).standard_normal((7, problem.m, problem.dim))
    grads = problem.all_gradients(thetas)
    costs = problem.global_cost(thetas[:, 0])
    for r in range(7):
        assert np.array_equal(grads[r], problem.all_gradients(thetas[r]))
        assert costs[r] == problem.global_cost(thetas[r, 0])


def with_schedules(setup, **changes):
    return dataclasses.replace(
        setup, schedules=dataclasses.replace(setup.schedules, **changes)
    )


def test_noisy_run_whose_budget_cannot_contract_raises():
    # 1 - alpha - min_push * gamma2 < 0 from k = 0 on: the tracker
    # sensitivity has no bound, so the noisy run refuses to start.
    setup = with_schedules(shared_setup("tracking", True),
                           tracker_mix=PowerSchedule.constant(1.0))
    with pytest.raises(RangeError, match="mix too strong"):
        run("alg2", setup, 50, seed=1, force=True)


def test_noiseless_batch_computes_no_budget_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless batch computed a budget series")

    monkeypatch.setattr(solvers, "conservative_budget", refuse)
    setup = with_schedules(shared_setup("tracking", False),
                           tracker_mix=PowerSchedule.constant(1.0))
    batch = monte_carlo("alg2", setup, 50, 3, 2, force=True)
    assert all(np.isnan(t.epsilon_partial).all() for t in batch)


@pytest.mark.parametrize("variant,coupling", [
    ("alg1", "coupling"),
    ("alg2", "coupling_state"),
    ("alg2", "coupling_tracker"),
])
def test_coupling_that_grows_past_contraction_raises(variant, coupling):
    # gamma^0 = 1 keeps the mixed diagonals positive; the growing
    # coupling only makes one nonpositive later in the run.
    setup = with_schedules(shared_setup(family(variant), False),
                           **{coupling: PowerSchedule.growing(1.0, 0.1, 1.0)})
    with pytest.raises(RangeError, match="gamma too large"):
        run(variant, setup, 200, seed=1, force=True)
