"""The run-batched solver against serial runs.

monte_carlo steps all runs of a variant in one loop.  Because the noise
is keyed by (seed, agent, stream, iteration, coordinate) and every
contraction is a per-row product, every batched trace must equal the
trace of the same seed run alone, bit for bit, in every column and in
its divergence and gradient-bound fields.  Two one-run loops pin those
serial semantics independently of the batched code:

- `affine_reference` steps the flattened state with the affine map of
  the solver docstring, z <- z T_k + b_k, built from scalar schedule
  values one iteration at a time; the batch must equal it exactly;
- `stepwise_reference` steps the per-agent form, `step_static` and
  `step_tracking` with `all_gradients`; the batch must match it to
  RTOL on every recorded column and exactly in its divergence point.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup, tracking_schedules
from oracles import step_static, step_tracking

from dpopt import solvers
from dpopt.errors import RangeError
from dpopt.graphs import DirectedGraph, build_push_pull_weights
from dpopt.harness import monte_carlo
from dpopt.noise import derive_seed, laplace_draws
from dpopt.objectives import random_instance
from dpopt.schedules import PowerSchedule
from dpopt.solvers import (
    VARIANTS,
    RunSetup,
    Variant,
    _off_diagonal,
    _record_points,
    effective_schedules,
    run,
)

COLUMNS = ("ks", "consensus", "gap", "dist_opt", "tracking", "epsilon_partial")
CHUNK = 2048
# The affine step and the per-agent step round differently; measured
# differences stay below 1e-9 relative on these horizons.
RTOL = 1e-9


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


def check_batch(variant, setup, iterations, base_seed, n_runs, force=False):
    """monte_carlo against one run() per derived seed; returns the batch."""
    batch = monte_carlo(variant, setup, iterations, base_seed, n_runs,
                        force=force)
    assert len(batch) == n_runs
    for index, trace in enumerate(batch):
        alone = run(variant, setup, iterations, derive_seed(base_seed, index),
                    force=force)
        assert_same(trace, alone)
    return batch


class SerialBudget:
    """The raw (unit gradient bound) conservative budget, stepped once
    per iteration beside the solver; NaN for a noiseless run.  Schedules
    are read one index at a time, as in the serial references."""

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


def _serial_run(variant, setup, iterations, seed, start, step):
    """One run, one iteration at a time; returns (trace fields, peak).

    start(seed) returns the initial (state, x, y, grads) and
    step(k, state, zeta, xi) the same after iteration k, with x, y and
    grads of shape (m, d).  peak is the largest divergence-check value
    the run reached.
    """
    sch = effective_schedules(variant, setup)
    problem = setup.problem
    budget = SerialBudget(variant, setup, sch)
    record_ks = _record_points(iterations, setup.stride)
    rows = []
    tracking = family(variant) == "tracking"
    m, d = problem.m, problem.dim
    w = setup.push_pull

    def record(x, y):
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

    state, x, y, grads = start(seed)
    record(x, y)
    bound = float(np.max(np.abs(grads).sum(axis=1)))
    diverged_at, magnitude, peak = None, float("nan"), 0.0
    for k in range(iterations):
        zeta = laplace_draws(sch.noise_scale, [seed], m, "state", [k], d)[0, 0]
        xi = laplace_draws(sch.noise_scale, [seed], m, "tracker", [k],
                           d)[0, 0] if tracking else None
        with np.errstate(over="ignore", invalid="ignore"):
            state, x, y, grads = step(k, state, zeta, xi)
            # Any NaN in x or y makes the check value NaN.
            extreme = np.max(np.abs(x if y is None else np.vstack([x, y])))
            bound = max(bound, float(np.max(np.abs(grads).sum(axis=1))))
        budget.step(k)
        peak = max(peak, float(extreme))
        if not np.isfinite(extreme) or extreme > solvers.DIVERGENCE_THRESHOLD:
            diverged_at, magnitude = k + 1, float(extreme)
            break
        if k + 1 in record_ks:
            record(x, y)
    cols = [np.array(c) for c in zip(*rows)]
    eps = cols[4] if sch.noise_scale is None else cols[4] * bound
    got = [record_ks[:len(rows)]] + cols[:4] + [eps]
    return got + [diverged_at is not None, diverged_at, magnitude, bound], peak


def affine_reference(variant, setup, iterations, seed):
    """The affine step on the flattened state z (x, then y for
    tracking), with T_k = A_k^T and b_k built from scalar schedule
    values as the solver docstring states them."""
    sch = effective_schedules(variant, setup)
    problem = setup.problem
    m, d = problem.m, problem.dim
    n = m * d
    H, c = problem.affine_gradient()
    eye = np.eye(n)

    def transposed(A):
        return np.ascontiguousarray(A.T)

    def spread(A):
        return np.kron(A, np.eye(d))

    def at(schedule, k):
        return schedule.values([k])[0]

    HT = transposed(H)
    tracking = family(variant) == "tracking"
    if tracking:
        w = setup.push_pull
        R, R_off = spread(w.pull), spread(_off_diagonal(w.pull))
        RT, CT = transposed(R), transposed(spread(w.push))
        HRT, HRoffT = transposed(H @ R), transposed(H @ R_off)
        RoffT = transposed(R_off)
        CoffT = transposed(spread(_off_diagonal(w.push)))
    else:
        WT = transposed(spread(setup.consensus.matrix))
        WoffT = transposed(spread(_off_diagonal(setup.consensus.matrix)))

    def unpack(z):
        x = z[:n].reshape(m, d)
        y = z[n:].reshape(m, d) if tracking else None
        return z, x, y, (z[:n] @ HT - c).reshape(m, d)

    def start(seed):
        x = setup.init_radius * np.random.default_rng(seed).standard_normal(n)
        g = x @ HT - c
        return unpack(np.concatenate([x, g]) if tracking else x)

    def step(k, z, zeta, xi):
        lam = at(sch.stepsize, k)
        if tracking:
            g1, g2 = at(sch.coupling_state, k), at(sch.coupling_tracker, k)
            al = 0.0 if sch.tracker_mix is None else at(sch.tracker_mix, k)
            T = np.block([
                [eye + g1 * RT, al * HT + g1 * HRT],
                [-lam * eye, (1.0 - al) * eye + g2 * CT - lam * HT],
            ])
            b = np.concatenate([
                g1 * (zeta.ravel() @ RoffT),
                g1 * (zeta.ravel() @ HRoffT)
                + g2 * (xi.ravel() @ CoffT) - al * c,
            ])
        else:
            gam = at(sch.coupling, k)
            T = eye + gam * WT - lam * HT
            b = lam * c + gam * (zeta.ravel() @ WoffT)
        return unpack(z @ T + b)

    return _serial_run(variant, setup, iterations, seed, start, step)


def stepwise_reference(variant, setup, iterations, seed):
    """The per-agent form: step_static or step_tracking, with gradients
    from all_gradients and the tracker's cached gradient."""
    sch = effective_schedules(variant, setup)
    problem = setup.problem
    tracking = family(variant) == "tracking"
    if tracking:
        R, C = setup.push_pull.pull, setup.push_pull.push
    else:
        W = setup.consensus.matrix

    def start(seed):
        x = setup.init_radius * np.random.default_rng(seed).standard_normal(
            (problem.m, problem.dim))
        grads = problem.all_gradients(x)
        y = grads.copy() if tracking else None
        return (x, y, grads), x, y, grads

    def step(k, state, zeta, xi):
        x, y, grads = state
        if tracking:
            mix = 0.0 if sch.tracker_mix is None else sch.tracker_mix.values([k])[0]
            x, y, grads = step_tracking(
                x, y, grads, problem, R, _off_diagonal(R), C, _off_diagonal(C),
                sch.coupling_state.values([k])[0],
                sch.coupling_tracker.values([k])[0], mix,
                sch.stepsize.values([k])[0], zeta, xi,
            )
        else:
            x = step_static(x, grads, W, _off_diagonal(W),
                            sch.coupling.values([k])[0],
                            sch.stepsize.values([k])[0], zeta)
            grads = problem.all_gradients(x)
        return (x, y, grads), x, y, grads

    return _serial_run(variant, setup, iterations, seed, start, step)


def assert_matches_reference(trace, variant, setup, iterations, seed):
    want, _ = affine_reference(variant, setup, iterations, seed)
    for a, b in zip(fields(trace), want):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
        else:
            assert a == b or (a != a and b != b)


def assert_close_to_stepwise(trace, variant, setup, iterations, seed):
    want, _ = stepwise_reference(variant, setup, iterations, seed)
    got = fields(trace)
    for name, a, b in zip(COLUMNS, got, want):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0, equal_nan=True,
                                   err_msg=name)
    assert got[6:8] == want[6:8]  # diverged, diverged_at
    np.testing.assert_allclose(got[8:], want[8:], rtol=RTOL, atol=0,
                               equal_nan=True)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noise", [True, False], ids=["noisy", "noiseless"])
@pytest.mark.parametrize(
    "n_runs,iterations",
    # Horizons cross the chunk boundary, 2048 // max(R, N) iterations
    # for state width N, and end off it.
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
    assert_close_to_stepwise(trace, variant, setup, 300, 5)


def test_run_matches_serial_reference_across_chunks():
    setup = shared_setup("static", False)
    trace = run("alg1", setup, CHUNK + 9, seed=2)
    assert_matches_reference(trace, "alg1", setup, CHUNK + 9, 2)
    assert_close_to_stepwise(trace, "alg1", setup, CHUNK + 9, 2)


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_mixed_divergence_batch(monkeypatch, variant):
    # Started near zero, the runs reach their peaks at different
    # iterations, so they also diverge at different iterations.
    setup = dataclasses.replace(shared_setup(family(variant), True),
                                init_radius=0.1)
    n_runs, iterations, base_seed = 9, 300, 13
    # Per-run peaks of the divergence check with no threshold in play,
    # then a threshold between them: only the runs above it diverge.
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", np.inf)
    peaks = sorted(
        affine_reference(variant, setup, iterations,
                         derive_seed(base_seed, i))[1]
        for i in range(n_runs)
    )
    threshold = 0.5 * (peaks[4] + peaks[5])
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", threshold)
    batch = check_batch(variant, setup, iterations, base_seed, n_runs)
    diverged = [t for t in batch if t.diverged]
    assert len(diverged) == n_runs - 5
    assert len({t.diverged_at for t in diverged}) > 1
    assert all(t.ks[-1] == iterations for t in batch if not t.diverged)
    for index, trace in enumerate(batch):
        seed = derive_seed(base_seed, index)
        assert_matches_reference(trace, variant, setup, iterations, seed)
        assert_close_to_stepwise(trace, variant, setup, iterations, seed)


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
        alone = laplace_draws(scale, [seed], 4, "tracker", ks, 3)[:, 0]
        assert np.array_equal(block[:, r], alone)


def test_batched_gradients_and_costs_equal_single_calls():
    problem = shared_setup("static", True).problem
    thetas = np.random.default_rng(0).standard_normal((7, problem.m, problem.dim))
    grads = problem.all_gradients(thetas)
    costs = problem.global_cost(thetas[:, 0])
    for r in range(7):
        assert np.array_equal(grads[r], problem.all_gradients(thetas[r]))
        assert costs[r] == problem.global_cost(thetas[r, 0])


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_chunk_rows_do_not_depend_on_the_batch(variant):
    # The chunk's offsets, states and gradients of one run are the same
    # bits whichever runs share the batch: every contraction is per row.
    setup = shared_setup(family(variant), True)
    spec = Variant.of(variant)
    sch = effective_schedules(variant, setup)
    step = solvers._AffineStep(spec, spec.weights(setup), setup.problem)
    m, d = setup.problem.m, setup.problem.dim
    ks = np.arange(40, 100)
    scheds = ((sch.stepsize, sch.coupling_state, sch.coupling_tracker,
               sch.tracker_mix) if spec.tracking
              else (sch.stepsize, sch.coupling))
    coefs = [s.values(ks)[:, None, None] for s in scheds]
    seeds = [derive_seed(4, i) for i in range(17)]
    width = 2 * step.n if spec.tracking else step.n
    z = np.random.default_rng(0).standard_normal((17, width))

    def chunk(rows):
        picked = [seeds[r] for r in rows]

        def draw(stream):
            return laplace_draws(sch.noise_scale, picked, m, stream, ks,
                                 d).reshape(len(ks), len(rows), step.n)

        Z = step.offsets(coefs, draw)
        solvers._step_chunk(z[rows], step.operators(coefs), Z)
        return Z, step.gradients(Z[..., :step.n])

    full = chunk(np.arange(17))
    for rows in [np.arange(r) for r in (1, 2, 3, 10, 17)] + [[0, 3, 4, 9, 16]]:
        for got, want in zip(chunk(rows), full):
            assert np.array_equal(got, want[:, rows])


def test_nan_tracker_diverges_at_its_own_iteration(monkeypatch):
    # A NaN tracker draw at iteration k0 makes y NaN after that
    # iteration while x stays finite until the next one; the divergence
    # check reads x and y together, so the run stops at k0 + 1.
    k0 = 30

    def poisoned(scale, seeds, m, stream, ks, d):
        draws = laplace_draws(scale, seeds, m, stream, ks, d)
        if stream == "tracker":
            draws[np.asarray(ks) == k0] = np.nan
        return draws

    monkeypatch.setattr(solvers, "laplace_draws", poisoned)
    setup = shared_setup("tracking", True)
    for trace in [run("alg2", setup, 100, seed=3)] \
            + monte_carlo("alg2", setup, 100, 3, 3):
        assert trace.diverged_at == k0 + 1
        assert np.isnan(trace.diverged_magnitude)
        assert trace.ks[-1] == 28  # the last capture on the stride-7 grid
        assert np.isfinite(trace.gradient_bound)


def test_chunk_memory_stays_flat_in_the_problem_size():
    # A single 400-iteration run of a 10-agent, 4-dimensional tracking
    # problem (state width N = 80): chunks of 2048 // N iterations keep
    # its operators near 1 MB, where chunks of 2048 // R iterations
    # held all 400 (80 x 80) operators, about 25 MB traced.
    m = 10
    problem, _ = random_instance(seed=7, m=m, s=3, d=4)
    graph = DirectedGraph(m, frozenset(
        {((i + 1) % m, i) for i in range(m)}
        | {((i + 3) % m, i) for i in range(m)}
    ))
    setup = RunSetup(problem, tracking_schedules(False),
                     push_pull=build_push_pull_weights(graph, graph, 0.2))
    tracemalloc.start()
    try:
        trace = run("alg2", setup, 400, seed=1, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not trace.diverged
    assert peak < 6 * 2**20


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


# The divergence check first tests a whole chunk with one max and one
# min against +-threshold, and takes the per-state max |z|
# (solvers._divergence) only when that test trips.  Each case below
# must still give the serial runs' traces bit for bit.

def counting_divergence(monkeypatch):
    calls = []
    real = solvers._divergence

    def counted(Z, threshold):
        calls.append(Z.shape)
        return real(Z, threshold)

    monkeypatch.setattr(solvers, "_divergence", counted)
    return calls


def check_against_references(variant, setup, iterations, base_seed, n_runs,
                             force=False):
    """The batch against run() and affine_reference for every seed."""
    batch = check_batch(variant, setup, iterations, base_seed, n_runs, force)
    for index, trace in enumerate(batch):
        assert_matches_reference(trace, variant, setup, iterations,
                                 derive_seed(base_seed, index))
    return batch


def test_run_diverging_only_below_minus_threshold(monkeypatch):
    # Stepsize and coupling 1e-300 leave every entry of z T_k + b_k
    # equal to z (1 + 1e-300 rounds to 1), so each run's states stay at
    # its initial state x0.  No x0 entry of base seed 1 reaches 2.0, but
    # some fall below -2.0.
    base_seed, n_runs, threshold = 1, 4, 2.0
    tiny = PowerSchedule.constant(1e-300)
    setup = dataclasses.replace(
        with_schedules(shared_setup("static", False), stepsize=tiny,
                       coupling=tiny),
        init_radius=1.0)
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", threshold)
    x0 = [np.random.default_rng(derive_seed(base_seed, i)).standard_normal(10)
          for i in range(n_runs)]
    assert max(x.max() for x in x0) < threshold
    calls = counting_divergence(monkeypatch)
    batch = check_against_references("alg1", setup, 50, base_seed, n_runs,
                                     force=True)
    assert calls
    low = [-x.min() for x in x0]
    for trace, magnitude in zip(batch, low):
        assert trace.diverged == (magnitude > threshold)
        if trace.diverged:
            assert trace.diverged_at == 1
            assert trace.diverged_magnitude == magnitude
    assert any(t.diverged for t in batch)


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_states_exactly_at_the_threshold_do_not_diverge(monkeypatch,
                                                        variant):
    setup = shared_setup(family(variant), True)
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", np.inf)
    base_seed, n_runs, iterations = 6, 5, 300
    # The largest max |z| any state reaches, as the threshold.
    peak = max(affine_reference(variant, setup, iterations,
                                derive_seed(base_seed, i))[1]
               for i in range(n_runs))
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", peak)
    batch = check_against_references(variant, setup, iterations, base_seed,
                                     n_runs)
    assert not any(t.diverged for t in batch)


def test_infinite_state_in_one_run_diverges_at_infinite_threshold(
        monkeypatch):
    # dgd at stepsize 0.15 grows without bound; from radius 1e300 the
    # runs of base seed 3 overflow at iterations 22, 23 and 24.  Over 22
    # iterations only the first run does, to an infinity rather than a
    # NaN, while the others stay finite.  With no threshold in play,
    # inf <= threshold would pass: the whole-array test must still trip.
    base = shared_setup("static", False)
    setup = dataclasses.replace(
        with_schedules(base, stepsize=PowerSchedule.constant(0.15)),
        init_radius=1e300)
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", np.inf)
    calls = counting_divergence(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = check_against_references("dgd", setup, 22, 3, 3)
    assert calls
    assert [t.diverged_at for t in batch] == [22, None, None]
    assert batch[0].diverged_magnitude == np.inf


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_nan_state_in_one_run_diverges(monkeypatch, variant):
    # One NaN in one run's state draw at iteration k0 makes that run's
    # next state NaN; the other runs stay calm.  The serial references
    # draw through the same poisoned function.
    k0, base_seed, n_runs = 150, 8, 3
    target = derive_seed(base_seed, 1)
    real = laplace_draws

    def poisoned(scale, seeds, m, stream, ks, d):
        draws = real(scale, seeds, m, stream, ks, d)
        if stream == "state" and target in seeds:
            draws[np.asarray(ks) == k0, list(seeds).index(target), 0, 0] = np.nan
        return draws

    monkeypatch.setattr(solvers, "laplace_draws", poisoned)
    monkeypatch.setitem(globals(), "laplace_draws", poisoned)
    calls = counting_divergence(monkeypatch)
    batch = check_against_references(
        variant, shared_setup(family(variant), True), 300, base_seed, n_runs)
    assert calls
    assert [t.diverged_at for t in batch] == [None, k0 + 1, None]
    assert np.isnan(batch[1].diverged_magnitude)


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_calm_chunks_never_take_per_state_maxima(monkeypatch, variant):
    def refuse(Z, threshold):
        raise AssertionError("a calm chunk took its per-state maxima")

    monkeypatch.setattr(solvers, "_divergence", refuse)
    # 3 runs of 700 iterations cross several chunk edges.
    batch = check_against_references(
        variant, shared_setup(family(variant), True), 700, 21, 3)
    assert not any(t.diverged for t in batch)


@pytest.mark.parametrize("d", range(1, 10))
def test_gradient_norms_equal_numpy_reductions(d):
    # Column adds and a np.maximum chain against sum over d and max
    # over agents, bit for bit, with infinities and NaNs among them.
    grads = np.random.default_rng(d).standard_normal((6, 4, 5, d)) * 1e3
    grads[0, 1, 2, 0] = np.inf
    grads[1, 2, 3, -1] = -np.inf
    grads[2, 0, 4, 0] = np.nan
    grads[3, 3, :, 0] = np.nan
    want = np.abs(grads).sum(axis=-1).max(axis=-1)
    got = solvers._gradient_norms(grads)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert solvers._gradient_norms(grads[0, 0]).tobytes() \
        == want[0, 0].tobytes()
