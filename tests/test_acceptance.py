"""Release acceptance checks.

One test per acceptance criterion, numbered so `pytest -v` prints one
pass/fail line for each.  The Monte Carlo criteria (2, 3, 4) share the
module-scoped batches built from the shipped config files, so this
module takes a couple of minutes; everything else runs in seconds.
"""

import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import static_schedules, tracking_schedules
from envelopes import recursion_envelope_series
from oracles import (
    local_cost,
    run,
    sensitivity_static,
    sensitivity_static_closed_form,
    sensitivity_tracking,
    sensitivity_tracking_closed_form,
    step_tracking,
)
from ratefit import rate_fit

from dpopt.config import build_setup, load_config
from dpopt.difference import coupled_difference_trace
from dpopt.harness import aggregate, budget_account, monte_carlo
from dpopt.noise import NOISE_CHUNK
from dpopt.objectives import adjacent_variant, random_instance
from dpopt.schedules import (
    PowerSchedule,
    validate_static_schedules,
    validate_tracking_schedules,
)
from dpopt.solvers import Variant, _AffineStep, _step_chunk

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def alg1_config():
    return load_config(str(CONFIGS / "alg1.cfg"))


@pytest.fixture(scope="module")
def alg1_setup(alg1_config):
    return build_setup(alg1_config, variants=("alg1", "dgd", "pdop_alg1"))


@pytest.fixture(scope="module")
def alg1_batches(alg1_config, alg1_setup):
    cfg = alg1_config
    out = {}
    for variant in ("alg1", "dgd", "pdop_alg1"):
        traces = monte_carlo(
            variant, alg1_setup, cfg.iterations, cfg.noise_seed, cfg.monte_carlo
        )
        out[variant] = aggregate(traces)
    return out


@pytest.fixture(scope="module")
def alg2_config():
    return load_config(str(CONFIGS / "alg2.cfg"))


@pytest.fixture(scope="module")
def alg2_setup(alg2_config):
    return build_setup(alg2_config, variants=("alg2", "push_pull"))


@pytest.fixture(scope="module")
def alg2_batches(alg2_config, alg2_setup):
    cfg = alg2_config
    out = {}
    for variant in ("alg2", "push_pull"):
        traces = monte_carlo(
            variant, alg2_setup, cfg.iterations, cfg.noise_seed, cfg.monte_carlo
        )
        out[variant] = aggregate(traces)
    return out


def _verdicts(report):
    return {e.name: e.passed for e in report.entries}


def _flip_check(base, perturbed, named, touched):
    """The named entry must flip to fail; every entry whose series does
    not contain the perturbed schedule must keep its verdict."""
    assert base[named] is True
    assert perturbed[named] is False
    flipped = {n for n in base if perturbed[n] != base[n]}
    assert named in flipped
    assert flipped <= touched, f"unexpected flips: {sorted(flipped - touched)}"


def test_criterion_01_validator_reference_sets_and_perturbations():
    started = time.perf_counter()
    static_reference = static_schedules()
    tracking_reference = tracking_schedules()
    base_s = _verdicts(validate_static_schedules(static_reference))
    base_t = _verdicts(validate_tracking_schedules(tracking_reference))
    assert all(base_s.values()), [n for n, ok in base_s.items() if not ok]
    assert all(base_t.values()), [n for n, ok in base_t.items() if not ok]

    # Coupling decaying too fast: its sum converges.  Entries that do
    # not contain the coupling keep their verdicts.
    fast_coupling = replace(
        static_reference, coupling=PowerSchedule.decaying(1.0, 0.1, 1.1)
    )
    _flip_check(
        base_s,
        _verdicts(validate_static_schedules(fast_coupling)),
        "coupling_sum_diverges",
        touched={
            "coupling_sum_diverges",
            "stepsize_sq_over_coupling_sums",
            "state_noise_attenuation_sums",
        },
    )

    # Constant noise scale: the budget series becomes harmonic.  This
    # is the only entry that changes.
    flat_noise = replace(
        static_reference, noise_scale=PowerSchedule.constant(1.0)
    )
    flat_verdicts = _verdicts(validate_static_schedules(flat_noise))
    _flip_check(base_s, flat_verdicts, "budget_sum_finite",
                touched={"budget_sum_finite"})
    assert sum(flat_verdicts[n] != base_s[n] for n in base_s) == 1

    # State coupling decaying too slowly: its square stops summing.
    slow_state = replace(
        tracking_reference, coupling_state=PowerSchedule.decaying(1.0, 0.1, 0.4)
    )
    _flip_check(
        base_t,
        _verdicts(validate_tracking_schedules(slow_state)),
        "coupling_state_sq_sums",
        touched={
            "coupling_state_sq_sums",
            "coupling_state_sq_over_coupling_tracker_sums",
            "state_noise_attenuation_sums",
        },
    )

    # Tracker mix decaying too slowly: its square over the tracker
    # coupling stops summing, and nothing else moves.
    slow_mix = replace(
        tracking_reference, tracker_mix=PowerSchedule.decaying(0.02, 0.1, 0.5)
    )
    slow_mix_verdicts = _verdicts(validate_tracking_schedules(slow_mix))
    _flip_check(base_t, slow_mix_verdicts,
                "tracker_mix_sq_over_coupling_tracker_sums",
                touched={"tracker_mix_sq_over_coupling_tracker_sums"})
    assert sum(slow_mix_verdicts[n] != base_t[n] for n in base_t) == 1

    # Tracker coupling decaying too fast relative to the state
    # coupling: the cross-coupling series stops summing, alone.
    fast_tracker = replace(
        tracking_reference,
        coupling_tracker=PowerSchedule.decaying(1.0, 0.1, 0.95),
    )
    fast_tracker_verdicts = _verdicts(validate_tracking_schedules(fast_tracker))
    _flip_check(base_t, fast_tracker_verdicts,
                "coupling_state_sq_over_coupling_tracker_sums",
                touched={"coupling_state_sq_over_coupling_tracker_sums"})
    assert sum(fast_tracker_verdicts[n] != base_t[n] for n in base_t) == 1

    assert time.perf_counter() - started < 1.0


def test_criterion_02_noisy_convergence(alg1_batches):
    agg = alg1_batches["alg1"]
    assert agg.completed == agg.requested == 100
    columns = agg.columns
    assert int(columns["k"][-1]) == 10**4
    assert columns["mean_gap"][-1] < 0.10 * columns["mean_gap"][0]
    assert (columns["mean_consensus"][-1]
            < 1e-3 * columns["mean_consensus"][0])


def test_criterion_03_static_solver_beats_baselines(
    alg1_config, alg1_setup, alg1_batches
):
    horizon = alg1_config.iterations
    bound = alg1_config.gradient_bound
    eps_main, eps_pdop = (
        budget_account(variant, alg1_setup, bound,
                       [horizon]).table["epsilon_bound"][0]
        for variant in ("alg1", "pdop_alg1"))
    assert abs(eps_pdop - eps_main) <= 0.05 * eps_main

    main = alg1_batches["alg1"]
    dgd = alg1_batches["dgd"]
    pdop = alg1_batches["pdop_alg1"]
    assert main.mean_final_gap + main.se_final_gap < (
        dgd.mean_final_gap - dgd.se_final_gap
    )
    assert main.mean_final_gap + main.se_final_gap < (
        pdop.mean_final_gap - pdop.se_final_gap
    )


def test_criterion_04_tracking_solver_beats_push_pull(alg2_batches):
    main = alg2_batches["alg2"]
    baseline = alg2_batches["push_pull"]
    assert main.completed == 100
    assert main.mean_final_gap + main.se_final_gap < (
        baseline.mean_final_gap - baseline.se_final_gap
    )


def test_criterion_05_tracker_mean_conservation():
    cfg = load_config(str(CONFIGS / "alg2_nonoise.cfg"))
    setup = build_setup(cfg)
    problem, sch = setup.problem, setup.schedules
    weights = setup.push_pull
    R, C = weights.pull, weights.push
    R_off, C_off = R.copy(), C.copy()
    np.fill_diagonal(R_off, 0.0)
    np.fill_diagonal(C_off, 0.0)
    m, d = problem.m, problem.dim

    iterations = cfg.iterations
    ks = np.arange(iterations)
    lam = sch.stepsize.values(ks)
    g1 = sch.coupling_state.values(ks)
    g2 = sch.coupling_tracker.values(ks)
    al = sch.tracker_mix.values(ks)

    rng = np.random.default_rng(cfg.noise_seed)
    x = cfg.init_radius * rng.standard_normal((m, d))
    grads = problem.all_gradients(x)
    y = grads.copy()
    silent = np.zeros((m, d))
    worst = 0.0
    for k in range(iterations):
        x, y, grads = step_tracking(
            x, y, grads, problem, R, R_off, C, C_off,
            g1[k], g2[k], al[k], lam[k], silent, silent,
        )
        gap = float(np.max(np.abs(y.mean(axis=0) - grads.mean(axis=0))))
        if gap > worst:
            worst = gap
    assert worst < 1e-10


def test_criterion_05_tracker_mean_conservation_on_batched_states():
    # The same conservation on the states run_batch steps: (x, y)
    # under the affine map, one noise chunk at a time.
    cfg = load_config(str(CONFIGS / "alg2_nonoise.cfg"))
    setup = build_setup(cfg)
    problem, sch = setup.problem, setup.schedules
    m, d = problem.m, problem.dim
    step = _AffineStep(Variant.of("alg2"), setup.push_pull, problem)
    n = step.n
    rng = np.random.default_rng(cfg.noise_seed)
    x = cfg.init_radius * rng.standard_normal((1, n))
    z = np.concatenate([x, step.gradients(x)], axis=1)
    worst = 0.0
    for start in range(0, cfg.iterations, NOISE_CHUNK):
        ks = np.arange(start, min(start + NOISE_CHUNK, cfg.iterations))
        coefs = [s.values(ks)[:, None, None] for s in (
            sch.stepsize, sch.coupling_state, sch.coupling_tracker,
            sch.tracker_mix)]
        Z = step.offsets(coefs, lambda stream: np.zeros((len(ks), 1, n)))
        _step_chunk(z, step.operators(coefs), Z)
        xs = Z[:, 0, :n].reshape(-1, m, d)
        ys = Z[:, 0, n:].reshape(-1, m, d)
        gap = np.abs(ys.mean(axis=1)
                     - problem.all_gradients(xs).mean(axis=1)).max()
        worst = max(worst, float(gap))
        z = Z[-1]
    assert worst < 1e-10


def test_criterion_06_sensitivity_recursions_and_difference_bound(
    alg1_setup, alg2_setup
):
    sch_s = alg1_setup.schedules
    wbar = alg1_setup.consensus.min_diag_mag
    series = sensitivity_static(sch_s.stepsize, sch_s.coupling, wbar, 50)
    for k in range(1, 51):
        closed = sensitivity_static_closed_form(
            sch_s.stepsize, sch_s.coupling, wbar, k
        )
        assert abs(series[k] - closed) <= 1e-12 * closed

    sch_t = alg2_setup.schedules
    rbar = alg2_setup.push_pull.min_diag_pull
    cbar = alg2_setup.push_pull.min_diag_push
    sx, sy = sensitivity_tracking(
        sch_t.stepsize, sch_t.tracker_mix, sch_t.coupling_state,
        sch_t.coupling_tracker, rbar, cbar, 50,
    )
    for k in range(1, 51):
        cx, cy = sensitivity_tracking_closed_form(
            sch_t.stepsize, sch_t.tracker_mix, sch_t.coupling_state,
            sch_t.coupling_tracker, rbar, cbar, k,
        )
        assert abs(sx[k] - cx) <= 1e-12 * cx
        assert abs(sy[k] - cy) <= 1e-12 * cy

    for variant, setup in (("alg1", alg1_setup), ("alg2", alg2_setup)):
        adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5, eta=1.0)
        trace = coupled_difference_trace(
            variant, setup, adjacent, iterations=10**4, seed=5, envelope=1.0
        )
        assert trace.ok, f"{variant} bound violated at k={trace.violation_k}"
        assert trace.max_ratio <= 1.0 + 1e-9


def test_criterion_07_budget_finite_at_unbounded_horizon(
    alg1_config, alg1_setup
):
    bound = alg1_config.gradient_bound
    account = budget_account("alg1", alg1_setup, bound, [10**4, 10**5])
    env4, env5 = account.table["epsilon_envelope"]
    assert account.summable
    assert account.table["summable"] == ["yes", "yes"]
    assert abs(env5 - env4) < 0.05 * env4
    assert account.table["tail_envelope"][1] < 0.05 * env5

    flat = replace(
        alg1_setup,
        schedules=replace(
            alg1_setup.schedules, noise_scale=PowerSchedule.constant(1.0)
        ),
    )
    marker = budget_account("alg1", flat, bound, [10**4])
    assert not marker.summable and marker.table["summable"] == ["no"]
    assert math.isinf(marker.table["tail_envelope"][0])


def test_criterion_08_gradients_match_central_differences():
    rng = np.random.default_rng(20240815)
    step = 1e-5
    pairs = 0
    for _ in range(20):
        problem, _ = random_instance(
            seed=int(rng.integers(2**31)),
            m=int(rng.integers(2, 7)),
            s=int(rng.integers(2, 5)),
            d=int(rng.integers(2, 5)),
        )
        for _ in range(50):
            agent = int(rng.integers(problem.m))
            theta = 3.0 * rng.standard_normal(problem.dim)
            analytic = problem.local_gradient(agent, theta)
            fd = np.empty_like(theta)
            for j in range(theta.size):
                offset = np.zeros_like(theta)
                offset[j] = step
                fd[j] = (
                    local_cost(problem, agent, theta + offset)
                    - local_cost(problem, agent, theta - offset)
                ) / (2.0 * step)
            scale = max(float(np.linalg.norm(analytic)), 1e-12)
            assert float(np.linalg.norm(fd - analytic)) < 1e-6 * scale
            pairs += 1
    assert pairs == 1000


def test_criterion_09_noiseless_rate_trend():
    cfg = load_config(str(CONFIGS / "alg1_rate.cfg"))
    setup = build_setup(cfg)
    trace = run("alg1", setup, cfg.iterations, cfg.noise_seed)
    assert not trace.diverged
    sch = setup.schedules
    consensus = rate_fit(
        trace.columns["k"], trace.columns["consensus"], sch.stepsize,
        sch.coupling, 10**3, 10**5
    )
    gap = rate_fit(
        trace.columns["k"], trace.columns["gap"], sch.stepsize,
        sch.coupling, 10**3, 10**5
    )
    assert consensus.slope >= 1.6
    assert consensus.r_squared > 0.9
    assert gap.slope >= 0.8
    assert gap.r_squared > 0.9


def test_criterion_10_damped_recursion_envelope_stays_bounded():
    gain = PowerSchedule.decaying(1.0, 1.0, 0.9)
    forcing = PowerSchedule.decaying(1.0, 1.0, 1.8)
    for beta, v0 in ((forcing, 1.0), (None, 1.0), (forcing, 0.0)):
        series = recursion_envelope_series(gain, beta, v0, 10**5)
        assert np.all(np.isfinite(series))
        # series[k-1] is the ratio at iteration k
        early = float(series[10**3 - 1:10**4].max())
        late = float(series[10**4 - 1:10**5].max())
        assert late <= 1.05 * early
        if beta is not None:
            assert float(series.max()) < 4.0
