import ast
import dataclasses
import functools
import math
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import desk_graph, make_setup, static_schedules, tracking_schedules
from oracles import (
    step_static,
    step_static_per_agent,
    step_tracking,
    step_tracking_per_agent,
)

import dpopt
from dpopt.config import build_setup, load_config
from dpopt.difference import coupled_difference_trace
from dpopt.errors import ConditionError, RangeError
from dpopt.harness import budget_account
from dpopt.graphs import (
    DirectedGraph,
    build_consensus_weights,
    build_push_pull_weights,
)
from dpopt.objectives import adjacent_variant, optimal_solution, random_instance
from dpopt.privacy import conservative_budget
from dpopt.schedules import PowerSchedule, ScheduleSet
from dpopt.solvers import (
    RunSetup,
    VARIANTS,
    Variant,
    _diagonal_load,
    effective_schedules,
    run,
    run_batch,
    validate_for_variant,
)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def off_diagonal(A):
    out = A.copy()
    np.fill_diagonal(out, 0.0)
    return out


class TestSteps:
    def test_static_stacked_matches_per_agent(self):
        W = build_consensus_weights(desk_graph(), 0.2).matrix
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        grads = rng.standard_normal((5, 3))
        zeta = rng.standard_normal((5, 3))
        stacked = step_static(x, grads, W, off_diagonal(W), 0.7, 0.05, zeta)
        looped = step_static_per_agent(x, grads, W, 0.7, 0.05, zeta)
        assert np.max(np.abs(stacked - looped)) <= 1e-12

    def test_tracking_stacked_matches_per_agent(self):
        problem, _ = random_instance(seed=7, m=5, s=3, d=2)
        g = desk_graph()
        w = build_push_pull_weights(g, g, 0.2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        g_prev = problem.all_gradients(x)
        zeta = rng.standard_normal((5, 2))
        xi = rng.standard_normal((5, 2))
        a = step_tracking(x, y, g_prev, problem, w.pull, off_diagonal(w.pull),
                          w.push, off_diagonal(w.push),
                          0.6, 0.4, 0.01, 0.05, zeta, xi)
        b = step_tracking_per_agent(x, y, g_prev, problem, w.pull, w.push,
                                    0.6, 0.4, 0.01, 0.05, zeta, xi)
        for lhs, rhs in zip(a, b):
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_static_hand_computed_step(self):
        # Two agents, one symmetric edge with weight 0.3, d = 1.
        W = np.array([[-0.3, 0.3], [0.3, -0.3]])
        x = np.array([[2.0], [0.0]])
        grads = np.array([[0.5], [-0.25]])
        zeta = np.array([[0.2], [-0.4]])
        out = step_static(x, grads, W, off_diagonal(W), 0.5, 0.1, zeta)
        # agent 0: 2 + 0.5*0.3*((0 - 0.4) - 2) - 0.1*0.5
        assert out[0, 0] == pytest.approx(1.59)
        # agent 1: 0 + 0.5*0.3*((2 + 0.2) - 0) - 0.1*(-0.25)
        assert out[1, 0] == pytest.approx(0.355)

    def test_tracking_gradients_at_new_state(self):
        problem, _ = random_instance(seed=7, m=5, s=3, d=2)
        g = desk_graph()
        w = build_push_pull_weights(g, g, 0.2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        g_prev = problem.all_gradients(x)
        zeta = rng.standard_normal((5, 2))
        xi = rng.standard_normal((5, 2))
        x_next, y_next, g_next = step_tracking(
            x, y, g_prev, problem, w.pull, off_diagonal(w.pull),
            w.push, off_diagonal(w.push), 0.6, 0.4, 0.01, 0.05, zeta, xi,
        )
        assert np.allclose(g_next, problem.all_gradients(x_next))

    def test_tracker_sum_conservation_without_noise(self):
        # With zero tracker noise the column sums of the push matrix
        # vanish, so sum_i (y - g) contracts by exactly (1 - alpha).
        problem, _ = random_instance(seed=7, m=5, s=3, d=2)
        g = desk_graph()
        w = build_push_pull_weights(g, g, 0.2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2))
        grads = problem.all_gradients(x)
        y = grads.copy()
        zero = np.zeros((5, 2))
        for k in range(50):
            x, y, grads = step_tracking(
                x, y, grads, problem, w.pull, off_diagonal(w.pull),
                w.push, off_diagonal(w.push),
                0.6 / (1 + 0.1 * k), 0.4 / (1 + 0.1 * k), 0.01, 0.02,
                zero, zero,
            )
            drift = np.max(np.abs(y.sum(axis=0) - grads.sum(axis=0)))
            assert drift <= 1e-12


class TestRun:
    def test_record_points_include_endpoint(self):
        setup = make_setup("static", noise=False, stride=10)
        trace = run("alg1", setup, iterations=25, seed=1)
        assert list(trace.ks) == [0, 10, 20, 25]
        assert trace.ks[-1] == 25

    def test_deterministic_with_noise(self):
        setup = make_setup("static")
        a = run("alg1", setup, iterations=60, seed=5)
        b = run("alg1", setup, iterations=60, seed=5)
        assert np.array_equal(a.gap, b.gap)
        assert np.array_equal(a.consensus, b.consensus)
        assert np.array_equal(a.epsilon_partial, b.epsilon_partial)

    def test_seed_changes_trajectory(self):
        setup = make_setup("static")
        a = run("alg1", setup, iterations=60, seed=5)
        b = run("alg1", setup, iterations=60, seed=6)
        assert not np.array_equal(a.gap, b.gap)

    def test_same_seed_shares_initial_state_within_family(self):
        static = make_setup("static")
        a = run("alg1", static, iterations=20, seed=9)
        b = run("dgd", static, iterations=20, seed=9)
        assert a.consensus[0] == b.consensus[0]
        assert a.gap[0] == b.gap[0]
        tracking = make_setup("tracking")
        c = run("alg2", tracking, iterations=20, seed=9)
        d = run("push_pull", tracking, iterations=20, seed=9)
        assert c.consensus[0] == d.consensus[0]
        assert c.gap[0] == d.gap[0]

    def test_noiseless_epsilon_is_nan(self):
        setup = make_setup("static", noise=False)
        trace = run("alg1", setup, iterations=30, seed=1)
        assert np.all(np.isnan(trace.epsilon_partial))

    def test_epsilon_partial_is_nondecreasing(self):
        setup = make_setup("static")
        trace = run("alg1", setup, iterations=100, seed=1)
        assert trace.epsilon_partial[0] == 0.0
        assert np.all(np.diff(trace.epsilon_partial) >= 0)

    def test_epsilon_matches_static_budget_series(self):
        setup = make_setup("static")
        trace = run("alg1", setup, iterations=200, seed=3)
        sch = effective_schedules("alg1", setup)
        series = conservative_budget(
            sch, setup.consensus, trace.gradient_bound, 200
        )
        for i, k in enumerate(trace.ks):
            expected = 0.0 if k == 0 else series.epsilon_at(int(k))
            assert trace.epsilon_partial[i] == pytest.approx(expected, rel=1e-12)

    def test_epsilon_matches_tracking_budget_series(self):
        setup = make_setup("tracking")
        trace = run("alg2", setup, iterations=200, seed=3)
        sch = effective_schedules("alg2", setup)
        series = conservative_budget(
            sch, setup.push_pull, trace.gradient_bound, 200
        )
        for i, k in enumerate(trace.ks):
            expected = 0.0 if k == 0 else series.epsilon_at(int(k))
            assert trace.epsilon_partial[i] == pytest.approx(expected, rel=1e-12)

    def test_single_agent_is_plain_gradient_descent(self):
        problem, _ = random_instance(seed=11, m=1, s=8, d=3)
        setup = RunSetup(
            problem, static_schedules(noise=False),
            consensus=build_consensus_weights(DirectedGraph(1), 0.2),
            stride=7,
        )
        trace = run("alg1", setup, iterations=100, seed=4)
        # Replay the same initialization and take bare gradient steps.
        rng = np.random.default_rng(4)
        x = setup.init_radius * rng.standard_normal((1, 3))
        lam = setup.schedules.stepsize
        expected = {0: problem.global_cost(x[0]) - setup.f_star}
        for k in range(100):
            x = x - lam.value(k) * problem.all_gradients(x)
            expected[k + 1] = problem.global_cost(x[0]) - setup.f_star
        for i, k in enumerate(trace.ks):
            assert trace.gap[i] == pytest.approx(expected[int(k)], abs=1e-14)
            assert trace.consensus[i] == 0.0

    def test_divergence_is_flagged_not_raised(self):
        setup = make_setup("static", noise=False)
        bad = ScheduleSet(stepsize=PowerSchedule.constant(10.0))
        setup = RunSetup(setup.problem, bad, consensus=setup.consensus)
        trace = run("dgd", setup, iterations=500, seed=2)
        assert trace.diverged
        assert trace.diverged_at is not None
        assert trace.final_gap == np.inf
        assert trace.final_consensus == np.inf
        assert trace.ks[-1] <= trace.diverged_at

    def test_validation_gate_and_force(self):
        setup = make_setup("static")
        bad = ScheduleSet(
            stepsize=setup.schedules.stepsize,
            coupling=PowerSchedule.decaying(1.0, 0.1, 1.1),
            noise_scale=setup.schedules.noise_scale,
        )
        gated = RunSetup(setup.problem, bad, consensus=setup.consensus)
        with pytest.raises(ConditionError):
            run("alg1", gated, iterations=10, seed=1)
        trace = run("alg1", gated, iterations=10, seed=1, force=True)
        assert trace.ks[-1] == 10

    def test_baselines_ignore_schedule_conditions(self):
        setup = make_setup("static")
        bad = ScheduleSet(
            stepsize=setup.schedules.stepsize,
            coupling=PowerSchedule.decaying(1.0, 0.1, 1.1),
            noise_scale=setup.schedules.noise_scale,
        )
        gated = RunSetup(setup.problem, bad, consensus=setup.consensus)
        assert validate_for_variant("dgd", gated).overall
        trace = run("dgd", gated, iterations=10, seed=1)
        assert trace.ks[-1] == 10

    def test_gradient_bound_covers_initial_gradients(self):
        setup = make_setup("static", noise=False)
        trace = run("alg1", setup, iterations=10, seed=8)
        rng = np.random.default_rng(8)
        x0 = setup.init_radius * rng.standard_normal((5, 2))
        g0 = np.max(np.abs(setup.problem.all_gradients(x0)).sum(axis=1))
        assert trace.gradient_bound >= g0 - 1e-12

    def test_argument_errors(self):
        setup = make_setup("static")
        with pytest.raises(ValueError):
            run("nope", setup, iterations=10, seed=1)
        with pytest.raises(RangeError):
            run("alg1", setup, iterations=0, seed=1)

    @pytest.mark.parametrize("force", [False, True],
                             ids=["validated", "forced"])
    def test_batch_solves_no_eigenproblem(self, monkeypatch, force):
        # The coupling check reads the diagonals; no batch needs a
        # spectral radius.
        setups = (("alg1", make_setup("static")),
                  ("alg2", make_setup("tracking")))

        def refuse(*args, **kwargs):
            raise AssertionError("a batch solved an eigenproblem")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for variant, setup in setups:
            traces = run_batch(variant, setup, 50, [1, 2], force=force)
            assert [t.ks[-1] for t in traces] == [50, 50]


class TestEffectiveSchedules:
    def test_dgd_runs_at_full_coupling(self):
        setup = make_setup("static")
        sch = effective_schedules("dgd", setup)
        assert sch.coupling.value(0) == 1.0 and sch.coupling.value(999) == 1.0
        assert sch.stepsize is setup.schedules.stepsize
        assert sch.noise_scale is setup.schedules.noise_scale

    def test_push_pull_has_no_tracker_mix(self):
        setup = make_setup("tracking")
        sch = effective_schedules("push_pull", setup)
        assert sch.tracker_mix is None
        assert sch.coupling_state.value(17) == 1.0
        assert sch.coupling_tracker.value(17) == 1.0

    def test_pdop_requires_geometric_schedules(self):
        setup = make_setup("static")
        with pytest.raises(ConditionError):
            effective_schedules("pdop_alg1", setup)
        with_pdop = make_setup("static", pdop=True)
        sch = effective_schedules("pdop_alg1", with_pdop)
        assert sch.stepsize.form == "geometric"
        assert sch.noise_scale.form == "geometric"
        assert sch.coupling.value(5) == 1.0

    def test_pdop_push_pull_runs_geometric_at_unit_couplings(self):
        setup = make_setup("tracking", pdop=True)
        sch = effective_schedules("pdop_push_pull", setup)
        assert sch.stepsize is setup.pdop_stepsize
        assert sch.noise_scale is setup.pdop_noise
        assert sch.tracker_mix is None
        assert sch.coupling_state.value(17) == 1.0
        assert sch.coupling_tracker.value(17) == 1.0

    def test_pdop_requires_both_geometric_schedules(self):
        # A pdop stepsize without a pdop noise must not run noiseless.
        stepsize = PowerSchedule.geometric(0.02, 0.995)
        for kind, variant in (("static", "pdop_alg1"),
                              ("tracking", "pdop_push_pull")):
            setup = make_setup(kind, pdop_stepsize=stepsize)
            with pytest.raises(ConditionError):
                effective_schedules(variant, setup)
            with pytest.raises(ConditionError):
                validate_for_variant(variant, setup)

    def test_attenuated_variants_keep_their_bundle(self):
        static = make_setup("static")
        assert effective_schedules("alg1", static) is static.schedules
        tracking = make_setup("tracking")
        assert effective_schedules("alg2", tracking) is tracking.schedules

    @pytest.mark.parametrize("variant,kind,missing,message", [
        ("alg1", "static", "coupling", "lacks a coupling schedule"),
        ("alg2", "tracking", "coupling_state", "state/tracker coupling pair"),
        ("alg2", "tracking", "coupling_tracker", "state/tracker coupling pair"),
    ])
    def test_attenuated_variants_need_their_couplings(self, variant, kind,
                                                      missing, message):
        # The API layer below the config's Variant.needs check: a
        # RunSetup built by hand without a coupling the family steps.
        setup = make_setup(kind)
        bare = dataclasses.replace(setup, schedules=dataclasses.replace(
            setup.schedules, **{missing: None}))
        with pytest.raises(ConditionError, match=message):
            effective_schedules(variant, bare)


class TestValidateForVariant:
    def test_families_need_their_weights(self):
        static = make_setup("static")
        tracking = make_setup("tracking")
        for variant in VARIANTS:
            with pytest.raises(ConditionError):
                validate_for_variant(
                    variant, static if Variant.of(variant).tracking else tracking
                )

    def test_alg1_report_combines_matrix_and_schedules(self):
        report = validate_for_variant("alg1", make_setup("static"))
        names = {e.name for e in report.entries}
        assert "symmetric" in names
        assert "coupling_sum_diverges" in names
        assert report.overall

    def test_alg2_report_includes_null_residuals(self):
        report = validate_for_variant("alg2", make_setup("tracking"))
        names = {e.name for e in report.entries}
        assert "pull_left_null_residual" in names
        assert "push_right_null_residual" in names
        assert "budget_sum_finite" in names
        assert report.overall

    def test_peak_coupling_entries_on_reference_setups(self):
        report = validate_for_variant("dgd", make_setup("static"))
        entry = report.entry("coupling_peak_diag_positive")
        assert entry.passed and entry.value == pytest.approx(0.6)
        report = validate_for_variant("push_pull", make_setup("tracking"))
        for name in ("coupling_state", "coupling_tracker"):
            entry = report.entry(f"{name}_peak_diag_positive")
            assert entry.passed and entry.value == pytest.approx(0.4)

    def test_growing_coupling_fails_its_peak_entry(self):
        grow = PowerSchedule.growing(1.0, 0.1, 0.5)
        cases = (("static", "alg1", "coupling"),
                 ("tracking", "alg2", "coupling_state"),
                 ("tracking", "alg2", "coupling_tracker"))
        for kind, variant, name in cases:
            base = make_setup(kind, noise=False)
            setup = dataclasses.replace(base, schedules=dataclasses.replace(
                base.schedules, **{name: grow}))
            report = validate_for_variant(variant, setup)
            entry = report.entry(f"{name}_peak_diag_positive")
            assert entry.value == math.inf and not entry.passed
            assert not report.overall

    def test_single_agent_peak_coupling_passes(self):
        # One agent mixes nothing: its zero diagonal stays zero under
        # any coupling, as the run-time contraction check agrees.
        problem, _ = random_instance(seed=7, m=1, s=3, d=2)
        setup = RunSetup(
            problem,
            ScheduleSet(stepsize=PowerSchedule.decaying(0.02, 0.1, 1.0),
                        coupling=PowerSchedule.growing(1.0, 0.1, 0.5)),
            consensus=build_consensus_weights(DirectedGraph(1, frozenset()),
                                              0.2),
        )
        entry = validate_for_variant("alg1", setup).entry(
            "coupling_peak_diag_positive")
        assert entry.passed and entry.value == 0.0
        assert run("alg1", setup, 50, seed=0).ks[-1] == 50

    def test_tracker_mix_entry_on_reference_setups(self):
        setup = make_setup("tracking", pdop=True)
        push = setup.push_pull.min_diag_push
        for variant, mix in (("alg2", 0.02), ("push_pull", 0.0),
                             ("pdop_push_pull", 0.0)):
            entry = validate_for_variant(variant, setup).entry(
                "tracker_mix_peak_contraction")
            assert entry.passed
            assert entry.value == pytest.approx(mix + push)

    @pytest.mark.parametrize("noise", [True, False],
                             ids=["noisy", "noiseless"])
    def test_strong_tracker_mix_fails_validation(self, noise):
        # alpha^0 + min|C_ii| gamma2^0 > 1 while every schedule
        # condition holds: validate fails, whether or not a noise
        # schedule makes the run build the sensitivity series.
        base = make_setup("tracking", noise=noise)
        setup = dataclasses.replace(base, schedules=dataclasses.replace(
            base.schedules, tracker_mix=PowerSchedule.decaying(0.95, 0.1, 1.0)))
        report = validate_for_variant("alg2", setup)
        assert report.failed_names() == ["tracker_mix_peak_contraction"]
        if noise:
            with pytest.raises(RangeError, match="mix too strong"):
                run("alg2", setup, 50, seed=1, force=True)
        else:
            assert run("alg2", setup, 50, seed=1, force=True).ks[-1] == 50

    def test_all_variants_pass_on_reference_setups(self):
        static = make_setup("static", pdop=True)
        tracking = make_setup("tracking", pdop=True)
        for variant in VARIANTS:
            setup = tracking if Variant.of(variant).tracking else static
            assert validate_for_variant(variant, setup).overall


@st.composite
def diagonal_cases(draw):
    """(gamma, A): a square matrix with diagonals of either sign, and
    gamma at 1/|a_ii| of one of them, one ulp either side, or anywhere
    in [0, inf]."""
    m = draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    A = np.reshape(draw(st.lists(finite, min_size=m * m, max_size=m * m)),
                   (m, m))
    i = draw(st.integers(0, m - 1))
    a = abs(float(A[i, i]))
    edge = 1.0 / a if a else math.inf
    gamma = draw(st.one_of(
        st.sampled_from([edge, math.nextafter(edge, 0.0),
                         math.nextafter(edge, math.inf)]),
        st.floats(0.0, math.inf),
    ))
    return gamma, A


@settings(max_examples=500, deadline=None)
@given(case=diagonal_cases())
@example(case=(2.5, make_setup("static").consensus.matrix))
@example(case=(math.inf, np.zeros((1, 1))))
def test_diagonal_load_matches_the_mixed_diagonal(case):
    """The load reaches 1 exactly when I + gamma A has a nonpositive
    diagonal entry, in floating point as well."""
    gamma, A = case
    oracle = 1.0 + gamma * float(np.min(np.diag(A))) <= 0
    assert (_diagonal_load(gamma, A) >= 1.0) == oracle


class TestRunSetup:
    def test_optimum_derived_from_the_problem(self):
        problem, _ = random_instance(seed=7, m=5, s=3, d=2)
        setup = RunSetup(problem, static_schedules())
        theta_star, f_star = optimal_solution(problem)
        assert setup.theta_star.tobytes() == theta_star.tobytes()
        assert float(setup.f_star).hex() == float(f_star).hex()

    def test_optimum_survives_pickle(self):
        # compare's workers receive the setup pickled.
        setup = make_setup("tracking", pdop=True)
        copy = pickle.loads(pickle.dumps(setup))
        assert copy.theta_star.tobytes() == setup.theta_star.tobytes()
        assert float(copy.f_star).hex() == float(setup.f_star).hex()


# A setup built for one family only lacks the other family's weights;
# every entry point names the missing weights instead of failing on None.
MISSING_WEIGHTS = [("push_pull", "dgd", "push-pull"),
                   ("dgd", "push_pull", "consensus")]


def one_family_setup(built_for):
    config = load_config(str(CONFIGS / "alg2.cfg"))
    return build_setup(config, [built_for])


class TestMissingWeights:
    @pytest.mark.parametrize("variant,built_for,kind", MISSING_WEIGHTS)
    def test_forced_run(self, variant, built_for, kind):
        setup = one_family_setup(built_for)
        with pytest.raises(ConditionError,
                           match=f"variant '{variant}' needs {kind} weights"):
            run(variant, setup, 10, 1, force=True)

    @pytest.mark.parametrize("variant,built_for,kind", MISSING_WEIGHTS)
    def test_budget_account(self, variant, built_for, kind):
        setup = one_family_setup(built_for)
        with pytest.raises(ConditionError,
                           match=f"variant '{variant}' needs {kind} weights"):
            budget_account(variant, setup, 1.0, [10])

    @pytest.mark.parametrize("variant,built_for,kind", MISSING_WEIGHTS)
    def test_difference_trace(self, variant, built_for, kind):
        setup = one_family_setup(built_for)
        adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5,
                                    eta=1.0)
        with pytest.raises(ConditionError,
                           match=f"variant '{variant}' needs {kind} weights"):
            coupled_difference_trace(variant, setup, adjacent, 10, 1)


def test_variant_names_only_in_the_table():
    """No module outside the variant table in solvers.py spells a
    variant name as a string constant: dispatch goes through the table."""
    found = []
    for path in sorted(pathlib.Path(dpopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        if path.name == "solvers.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "_VARIANT_TABLE"
                    for t in node.targets
                ):
                    table = {id(n) for n in ast.walk(node.value)}
            assert table, "solvers.py has no _VARIANT_TABLE"
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in VARIANTS and id(node) not in table
        ]
    assert found == []


def schedules(forms=("decaying", "growing", "geometric", "constant"),
              a=st.floats(1e-3, 10.0), p=st.floats(0.0, 3.0),
              b=st.floats(0.0, 10.0)):
    """Schedules the config parser accepts (a > 0, b and p >= 0, r in
    (0, 1)), over the given forms and ranges."""
    return st.sampled_from(forms).flatmap(lambda form: {
        "decaying": st.builds(PowerSchedule.decaying, a, b, p),
        "growing": st.builds(PowerSchedule.growing, a, b, p),
        "geometric": st.builds(PowerSchedule.geometric, a,
                               st.floats(0.01, 0.999)),
        "constant": st.builds(PowerSchedule.constant, a),
    }[form])


@st.composite
def bundles(draw):
    """(stepsize, coupling pair, tracker mix, noise scale): any
    schedules the config accepts, or schedules shaped like those of
    the shipped configs, among which alg1 and alg2 also validate."""
    if draw(st.booleans()):
        return tuple(draw(s) for s in (
            schedules(), schedules(), schedules(), schedules(),
            st.one_of(st.none(), schedules()),
        ))

    def near(form, a, p):
        return schedules((form,), st.floats(1e-3, a), st.floats(*p),
                         b=st.floats(0.01, 10.0))

    # Exponents jittered around the shipped configs' (1, 0.9, 0.7, 1,
    # 0.1), where the exponent conditions of validate hold.
    return tuple(draw(s) for s in (
        near("decaying", 1.0, (0.96, 1.0)),
        near("decaying", 2.5, (0.85, 0.9)),
        near("decaying", 2.5, (0.6, 0.68)),
        near("decaying", 1.0, (0.9, 0.95)),
        st.one_of(st.none(), near("growing", 10.0, (0.05, 0.09))),
    ))


@functools.lru_cache(maxsize=None)
def validity_setup(kind):
    return make_setup(kind, stride=7)


_shipped = tracking_schedules()
SHIPPED_TRACKING = (_shipped.stepsize, _shipped.coupling_state,
                    _shipped.coupling_tracker, _shipped.tracker_mix,
                    _shipped.noise_scale)
PDOP = (PowerSchedule.geometric(0.02, 0.995),
        PowerSchedule.geometric(0.118619, 0.999))


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    bundle=bundles(),
    pdop=st.tuples(schedules(), schedules()),
)
# The gaps found so far, kept as explicit cases: a tracker mix too
# strong for the sensitivity bound, a geometric budget tail asked for
# at a horizon too early for its ratio bound, a subnormal noise
# coefficient that overflowed the budget envelope, and a tiny one whose
# finite envelope terms sum past the float range.
@example(variant="alg2", bundle=SHIPPED_TRACKING[:3] + (
    PowerSchedule.decaying(0.95, 0.1, 1.0), SHIPPED_TRACKING[4]),
    pdop=PDOP)
@example(variant="dgd", bundle=(
    PowerSchedule.geometric(1.0, 0.984375), *SHIPPED_TRACKING[1:4],
    PowerSchedule.decaying(1.0, 1.0, 1.0)), pdop=PDOP)
@example(variant="dgd", bundle=SHIPPED_TRACKING[:4] + (
    PowerSchedule.growing(0.001, 5e-324, 1.0),), pdop=PDOP)
@example(variant="pdop_alg1", bundle=SHIPPED_TRACKING[:4] + (None,), pdop=(
    PowerSchedule.constant(1.0),
    PowerSchedule.growing(4.0, 2.0963824821276367e-308, 1.0)))
def test_what_validates_runs_and_accounts(variant, bundle, pdop):
    """Whatever validate_for_variant passes, a short run and a budget
    account complete without a RangeError or ConditionError."""
    stepsize, coupling_state, coupling_tracker, tracker_mix, noise = bundle
    tracking = Variant.of(variant).tracking
    if tracking:
        sch = ScheduleSet(stepsize=stepsize, coupling_state=coupling_state,
                          coupling_tracker=coupling_tracker,
                          tracker_mix=tracker_mix, noise_scale=noise)
    else:
        sch = ScheduleSet(stepsize=stepsize, coupling=coupling_state,
                          noise_scale=noise)
    base = validity_setup("tracking" if tracking else "static")
    setup = dataclasses.replace(base, schedules=sch, pdop_stepsize=pdop[0],
                                pdop_noise=pdop[1])
    if not validate_for_variant(variant, setup).overall:
        return
    event(f"{variant} validated")
    run_batch(variant, setup, 60, [1, 2])
    if effective_schedules(variant, setup).noise_scale is not None:
        budget_account(variant, setup, 1.0, [60])

