import ast
import functools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup, static_schedules, tracking_schedules
from oracles import (
    difference_static_measured,
    difference_tracking_measured,
    sensitivity_static_closed_form,
    sensitivity_tracking_closed_form,
)

from dpopt import privacy
from dpopt.config import build_setup, load_config
from dpopt.difference import _ratio_scan, coupled_difference_trace
from dpopt.errors import RangeError
from dpopt.graphs import ConsensusWeights, PushPullWeights
from dpopt.harness import budget_account
from dpopt.noise import NOISE_CHUNK
from dpopt.objectives import adjacent_variant
from dpopt.privacy import (
    BLOCK,
    asymptotic_budget,
    budget_tail_bound,
    conservative_budget,
    infinite_tail,
    sensitivity_static,
    sensitivity_tracking,
)
from dpopt.schedules import PowerSchedule, ScheduleExpr, ScheduleSet
from dpopt.solvers import RunSetup, effective_schedules

LAM = PowerSchedule.decaying(0.02, 0.1, 1.0)
GAM = PowerSchedule.decaying(1.0, 0.1, 0.9)
NU = PowerSchedule.growing(1.0, 0.1, 0.3)
ALPHA = PowerSchedule.decaying(0.02, 0.1, 1.0)
G1 = PowerSchedule.decaying(1.0, 0.1, 0.9)
G2 = PowerSchedule.decaying(1.0, 0.1, 0.7)
WBAR = 0.4
# Weights that carry only the diagonal magnitudes the budget reads.
W_STATIC = ConsensusWeights(np.zeros((0, 0)), WBAR, 0.0)
W_TRACKING = PushPullWeights(*[np.zeros(0)] * 4, WBAR, WBAR)


def static_budget(nu, gradient_bound, horizon):
    schedules = ScheduleSet(stepsize=LAM, coupling=GAM, noise_scale=nu)
    return conservative_budget(schedules, W_STATIC, gradient_bound, horizon)


class TestSensitivityStatic:
    def test_first_terms_by_hand(self):
        s = sensitivity_static(LAM, GAM, WBAR, 3)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(0.02)
        gamma1 = 1.0 / (1.0 + 0.1)
        lam1 = 0.02 / 1.1
        assert s[2] == pytest.approx((1.0 - WBAR * gamma1) * 0.02 + lam1)

    def test_recursion_matches_closed_form(self):
        s = sensitivity_static(LAM, GAM, WBAR, 50)
        for k in range(1, 51):
            closed = sensitivity_static_closed_form(LAM, GAM, WBAR, k)
            assert abs(s[k] - closed) <= 1e-12

    def test_monotone_in_stepsize_scale(self):
        small = sensitivity_static(LAM, GAM, WBAR, 100)
        big_lam = PowerSchedule.decaying(0.04, 0.1, 1.0)
        big = sensitivity_static(big_lam, GAM, WBAR, 100)
        assert np.all(big[1:] >= small[1:])
        assert np.allclose(big, 2.0 * small)

    def test_rejects_overstrong_coupling(self):
        with pytest.raises(RangeError):
            sensitivity_static(LAM, PowerSchedule.constant(1.0), 1.5, 10)
        with pytest.raises(RangeError):
            sensitivity_static(LAM, GAM, WBAR, 0)


class TestSensitivityTracking:
    def test_first_terms_by_hand(self):
        sx, sy = sensitivity_tracking(LAM, ALPHA, G1, G2, WBAR, WBAR, 2)
        assert sx[0] == 0.0 and sy[0] == 0.0
        assert sy[1] == pytest.approx(2.0 - 0.02)
        # The state difference needs one extra step to pick up the
        # tracker difference through the stepsize.
        assert sx[1] == 0.0
        alpha1 = 0.02 / 1.1
        g2_1 = 1.0 / (1.0 + 0.1)
        lam1 = 0.02 / 1.1
        assert sy[2] == pytest.approx(
            (1.0 - alpha1 - WBAR * g2_1) * 1.98 + (2.0 - alpha1)
        )
        assert sx[2] == pytest.approx(lam1 * 1.98)

    def test_recursion_matches_closed_form(self):
        sx, sy = sensitivity_tracking(LAM, ALPHA, G1, G2, WBAR, WBAR, 50)
        for k in range(1, 51):
            cx, cy = sensitivity_tracking_closed_form(
                LAM, ALPHA, G1, G2, WBAR, WBAR, k
            )
            assert abs(sx[k] - cx) <= 1e-12
            assert abs(sy[k] - cy) <= 1e-12

    def test_none_mix_means_zero_alpha(self):
        sx_a, sy_a = sensitivity_tracking(LAM, None, G1, G2, WBAR, WBAR, 20)
        zero = PowerSchedule.decaying(1e-300, 0.0, 0.0)
        sx_b, sy_b = sensitivity_tracking(LAM, zero, G1, G2, WBAR, WBAR, 20)
        assert np.allclose(sx_a, sx_b, rtol=1e-12)
        assert np.allclose(sy_a, sy_b, rtol=1e-12)


class TestConservativeBudget:
    def test_terms_and_partials(self):
        series = static_budget(NU, 2.0, 100)
        s = sensitivity_static(LAM, GAM, WBAR, 100)[1:]
        nus = NU.values(np.arange(1, 101))
        assert np.allclose(series.per_term, 2.0 * s / nus, rtol=1e-14)
        assert np.allclose(series.epsilon_partial, np.cumsum(series.per_term))
        assert series.epsilon_total == series.epsilon_at(100)
        with pytest.raises(RangeError):
            series.epsilon_at(0)
        with pytest.raises(RangeError):
            series.epsilon_at(101)

    def test_linear_in_gradient_bound(self):
        one = static_budget(NU, 1.0, 50)
        three = static_budget(NU, 3.0, 50)
        assert np.allclose(three.epsilon_partial, 3.0 * one.epsilon_partial)

    def test_inverse_in_noise_scale(self):
        one = static_budget(NU, 1.0, 50)
        double_nu = PowerSchedule.growing(2.0, 0.2, 0.3)
        half = static_budget(double_nu, 1.0, 50)
        assert np.allclose(half.epsilon_partial, 0.5 * one.epsilon_partial)

    def test_static_reference_value(self):
        series = static_budget(NU, 1.0, 10**4)
        assert series.epsilon_total == pytest.approx(105.537579, rel=1e-6)

    def test_tracking_combines_both_sensitivities(self):
        schedules = ScheduleSet(
            stepsize=LAM, tracker_mix=ALPHA, coupling_state=G1,
            coupling_tracker=G2, noise_scale=NU,
        )
        series = conservative_budget(schedules, W_TRACKING, 1.5, 100)
        sx, sy = sensitivity_tracking(LAM, ALPHA, G1, G2, WBAR, WBAR, 100)
        nus = NU.values(np.arange(1, 101))
        expected = 2.0 * 1.5 * (sx + sy)[1:] / nus
        assert np.allclose(series.per_term, expected, rtol=1e-14)

    def test_missing_noise_rejected(self):
        with pytest.raises(RangeError):
            static_budget(None, 1.0, 10)

    @pytest.mark.parametrize("r, first_bad", [(0.999, 742_565), (0.01, 155)])
    def test_non_finite_term_raises_with_its_k(self, r, first_bad):
        # The shipped pdop noise 0.118619 * 0.999^k is 0.0 from
        # k = 742,565; at r = 0.01 it is subnormal by k = 155, where the
        # term overflows.  Up to the k before, every term is finite.
        schedules = ScheduleSet(
            stepsize=PowerSchedule.geometric(0.02, 0.995),
            coupling=PowerSchedule.constant(1.0),
            noise_scale=PowerSchedule.geometric(0.118619, r),
        )
        series = conservative_budget(schedules, W_STATIC, 1.0, first_bad - 1)
        assert np.all(np.isfinite(series.per_term))
        with pytest.raises(RangeError,
                           match=rf"not finite at k = {first_bad}:"):
            conservative_budget(schedules, W_STATIC, 1.0, first_bad + 10)


class TestAsymptoticBudget:
    def test_power_pair_envelope_dominates_terms(self):
        series = asymptotic_budget(LAM, NU, 1.0, 10**6)
        ks = series.ks
        raw = LAM.values(ks.astype(float)) / NU.values(ks.astype(float))
        assert np.all(series.per_term >= raw * (1 - 1e-12))
        # The margin never collapses below 1 but approaches it.
        margin = series.per_term / raw
        assert margin.min() > 1.0 - 1e-12
        assert margin[-1] < 1.35

    def test_power_pair_reference_partials(self):
        for horizon, expected in ((10**3, 7.024741), (10**4, 7.443267),
                                  (10**5, 7.653080)):
            series = asymptotic_budget(LAM, NU, 1.0, horizon)
            assert series.epsilon_total == pytest.approx(expected, rel=1e-6)

    def test_message_factor_and_bound_scale_linearly(self):
        base = asymptotic_budget(LAM, NU, 1.0, 1000)
        scaled = asymptotic_budget(LAM, NU, 2.0 * 3.0, 1000)
        assert np.allclose(scaled.epsilon_partial, 6.0 * base.epsilon_partial)

    def test_geometric_pair_uses_exact_terms(self):
        lam = PowerSchedule.geometric(0.02, 0.995)
        nu = PowerSchedule.geometric(0.118619, 0.999)
        series = asymptotic_budget(lam, nu, 1.0, 500)
        ks = np.arange(1, 501).astype(float)
        raw = lam.values(ks) / nu.values(ks)
        assert np.allclose(series.per_term, raw, rtol=1e-14)


class TestTailBound:
    def test_divergent_pair_has_infinite_tail(self):
        const_nu = PowerSchedule.constant(1.0)
        assert infinite_tail(LAM, const_nu)
        assert budget_tail_bound(LAM, const_nu, 10**4) == math.inf

    def test_convergent_pair_is_finite(self):
        assert not infinite_tail(LAM, NU)
        tail = budget_tail_bound(LAM, NU, 10**5)
        assert tail == pytest.approx(0.210819, rel=1e-5)

    def test_tail_covers_observed_remainder(self):
        # Remainder of the envelope series between 1e5 and 1e6 plus the
        # tail at 1e6 must stay below the tail quoted at 1e5.
        total_5 = asymptotic_budget(LAM, NU, 1.0, 10**5).epsilon_total
        total_6 = asymptotic_budget(LAM, NU, 1.0, 10**6).epsilon_total
        tail_5 = budget_tail_bound(LAM, NU, 10**5)
        assert total_6 - total_5 <= tail_5
        # And it covers the raw series remainder too.
        ks = np.arange(10**5 + 1, 10**6 + 1).astype(float)
        raw_remainder = float(np.sum(LAM.values(ks) / NU.values(ks)))
        assert raw_remainder <= tail_5

    def test_geometric_tail_is_exact_for_pure_ratio(self):
        lam = PowerSchedule.geometric(0.02, 0.995)
        nu = PowerSchedule.geometric(0.118619, 0.999)
        tail = budget_tail_bound(lam, nu, 2000)
        rho = 0.995 / 0.999
        t_last = (0.02 / 0.118619) * rho**2000
        assert tail == pytest.approx(t_last * rho / (1.0 - rho), rel=1e-12)
        ks = np.arange(2001, 20001).astype(float)
        raw_remainder = float(np.sum(lam.values(ks) / nu.values(ks)))
        # Equality holds in exact arithmetic, so allow summation rounding.
        assert raw_remainder <= tail * (1.0 + 1e-12)

    def test_underflowing_pair_raises(self):
        # Both geometric schedules underflow to zero before k = 1e6, so
        # their ratio is 0 / 0 there: a reasoned error, not a NaN tail.
        lam = PowerSchedule.geometric(0.02, 0.995)
        nu = PowerSchedule.geometric(0.118619, 0.999)
        with np.errstate(all="ignore"), pytest.raises(RangeError,
                                                      match="underflows"):
            budget_tail_bound(lam, nu, 10**6)

    def test_geometric_tail_absorbs_power_growth(self):
        lam = PowerSchedule.geometric(1.0, 0.99)
        nu = PowerSchedule.decaying(1.0, 1.0, 2.0)
        # From T' = 400 the ratio bound r exp(2 / T) is at most sqrt(r);
        # before that the early terms get their own bound.  Either way
        # the tail covers the raw remainder within a small factor, also
        # just past the peak k* = 199, where the ratio bound is barely
        # below 1 (the plain geometric tail gave 47,600x at T = 199).
        for horizon in (1, 100, 199, 200, 400):
            tail = budget_tail_bound(lam, nu, horizon)
            ks = np.arange(horizon + 1, 10001).astype(float)
            raw_remainder = float(np.sum(lam.values(ks) / nu.values(ks)))
            assert raw_remainder <= tail <= 3.0 * raw_remainder


@settings(max_examples=100, deadline=None)
@given(a=st.floats(1e-2, 1e2), r=st.floats(0.9, 0.999),
       nu_form=st.sampled_from(("decaying", "growing", "constant")),
       b=st.floats(0.0, 5.0), p=st.floats(0.0, 3.0),
       horizon=st.integers(1, 3000))
def test_tail_bound_covers_numerical_remainder(a, r, nu_form, b, p, horizon):
    lam = PowerSchedule.geometric(a, r)
    nu = PowerSchedule(nu_form, a=1.0, b=b, p=p)
    # Past T' = 2 growth / |log r| the terms fall at least like
    # sqrt(r)^k, so 80 / |log r| further iterations leave out less than
    # e^-40 of the remainder.
    growth = p if nu_form == "decaying" and b > 0 else 0.0
    last = max(horizon, math.ceil(2 * growth / -math.log(r)))
    ks = np.arange(horizon + 1, last + math.ceil(80 / -math.log(r)))
    remainder = float(np.sum(lam.values(ks) / nu.values(ks)))
    assert remainder <= budget_tail_bound(lam, nu, horizon) * (1 + 1e-9)


class TestCoupledDifference:
    def test_static_envelope_mode_bound_holds(self):
        setup = make_setup("static")
        adjacent = adjacent_variant(setup.problem, agent=1, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            "alg1", setup, adjacent, iterations=2000, seed=5, envelope=1.0
        )
        assert trace.ok and trace.violation_k is None
        assert trace.max_ratio <= 1.0 + 1e-9
        assert trace.tracker_diff is None
        assert np.all(trace.state_diff <= trace.state_bound * (1 + 1e-9))

    def test_static_measured_mode_bound_holds(self):
        setup = make_setup("static")
        adjacent = adjacent_variant(setup.problem, agent=1, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            "alg1", setup, adjacent, iterations=2000, seed=5
        )
        assert trace.ok
        assert trace.max_ratio <= 1.0 + 1e-9
        assert np.any(trace.state_diff > 0)

    def test_tracking_envelope_mode_bound_holds(self):
        setup = make_setup("tracking")
        adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            "alg2", setup, adjacent, iterations=2000, seed=5, envelope=1.0
        )
        assert trace.ok and trace.max_ratio <= 1.0 + 1e-9
        assert np.all(trace.state_diff <= trace.state_bound * (1 + 1e-9))
        assert np.all(trace.tracker_diff <= trace.tracker_bound * (1 + 1e-9))

    def test_tracking_measured_mode_bound_holds(self):
        setup = make_setup("tracking")
        adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            "alg2", setup, adjacent, iterations=2000, seed=5
        )
        assert trace.ok
        assert trace.max_ratio <= 1.0 + 1e-9
        assert np.any(trace.tracker_diff > 0)

    def test_argument_errors(self):
        setup = make_setup("static")
        adjacent = adjacent_variant(setup.problem, agent=0, delta=0.5, eta=1.0)
        with pytest.raises(RangeError):
            coupled_difference_trace("alg1", setup, adjacent, 0, seed=1)


# Per-index numpy loops: the recursions as written before they were
# stepped in blocks of Python floats, kept as oracles.

def sensitivity_static_loop(stepsize, coupling, min_coupling, horizon):
    ks = np.arange(horizon)
    lam = stepsize.values(ks)
    shrink = 1.0 - min_coupling * coupling.values(ks)
    out = np.zeros(horizon + 1)
    s = 0.0
    for k in range(horizon):
        s = shrink[k] * s + lam[k]
        out[k + 1] = s
    return out


def sensitivity_tracking_loop(stepsize, tracker_mix, coupling_state,
                              coupling_tracker, min_diag_pull, min_diag_push,
                              horizon):
    ks = np.arange(horizon)
    lam = stepsize.values(ks)
    alpha = np.zeros(horizon) if tracker_mix is None else tracker_mix.values(ks)
    shrink_x = 1.0 - min_diag_pull * coupling_state.values(ks)
    shrink_y = 1.0 - alpha - min_diag_push * coupling_tracker.values(ks)
    sx_out = np.zeros(horizon + 1)
    sy_out = np.zeros(horizon + 1)
    sx, sy = 0.0, 0.0
    for k in range(horizon):
        sx, sy = shrink_x[k] * sx + lam[k] * sy, \
            shrink_y[k] * sy + (2.0 - alpha[k])
        sx_out[k + 1] = sx
        sy_out[k + 1] = sy
    return sx_out, sy_out


def ratio_scan_loop(ks, diffs, bounds, tolerance=1e-9):
    worst = 0.0
    violation = None
    for k in range(1, len(ks)):
        for diff, bound in zip(diffs, bounds):
            d, b = diff[k], bound[k]
            if b > 0:
                ratio = d / b
            else:
                ratio = 0.0 if d == 0.0 else math.inf
            if ratio > worst:
                worst = ratio
            if ratio > 1.0 + tolerance and violation is None:
                violation = int(ks[k])
    return worst, violation


def difference_static_envelope_loop(variant, setup, agent, iterations,
                                    envelope):
    sch = effective_schedules(variant, setup)
    self_mag = abs(float(setup.consensus.matrix[agent, agent]))
    lam = sch.stepsize.values(np.arange(iterations))
    gam = sch.coupling.values(np.arange(iterations))
    s_bound = sensitivity_static_loop(
        sch.stepsize, sch.coupling, setup.consensus.min_diag_mag, iterations
    )
    diff = np.zeros(iterations + 1)
    bound = np.zeros(iterations + 1)
    d = 0.0
    for k in range(iterations):
        d = (1.0 - self_mag * gam[k]) * d + lam[k] * envelope
        diff[k + 1] = d
        bound[k + 1] = envelope * s_bound[k + 1]
    return diff, bound


def difference_tracking_envelope_loop(variant, setup, agent, iterations,
                                      envelope):
    sch = effective_schedules(variant, setup)
    weights = setup.push_pull
    self_pull = abs(float(weights.pull[agent, agent]))
    self_push = abs(float(weights.push[agent, agent]))
    idx = np.arange(iterations)
    lam = sch.stepsize.values(idx)
    g1 = sch.coupling_state.values(idx)
    g2 = sch.coupling_tracker.values(idx)
    alpha = np.zeros(iterations) if sch.tracker_mix is None \
        else sch.tracker_mix.values(idx)
    sx_bound, sy_bound = sensitivity_tracking_loop(
        sch.stepsize, sch.tracker_mix, sch.coupling_state,
        sch.coupling_tracker, weights.min_diag_pull, weights.min_diag_push,
        iterations,
    )
    xdiff, xbound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    ydiff, ybound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    dx, dy = 0.0, 0.0
    for k in range(iterations):
        shrink_y = 1.0 - alpha[k] - self_push * g2[k]
        shrink_x = 1.0 - self_pull * g1[k]
        dx, dy = shrink_x * dx + lam[k] * dy, \
            shrink_y * dy + (2.0 - alpha[k]) * 2.0 * envelope
        xdiff[k + 1] = dx
        ydiff[k + 1] = dy
        xbound[k + 1] = 2.0 * envelope * sx_bound[k + 1]
        ybound[k + 1] = 2.0 * envelope * sy_bound[k + 1]
    return xdiff, xbound, ydiff, ybound


B = BLOCK
# Horizons inside the first block (1 to 3,079: one partial block), on
# its edges, past three blocks, and long.
BLOCK_HORIZONS = (1, 1023, 1024, 1025, 3079, B - 1, B, B + 1, 3 * B + 7,
                  10**5)
# Measured traces draw their noise NOISE_CHUNK iterations at a time.
MEASURED_HORIZONS = (1, NOISE_CHUNK - 1, NOISE_CHUNK, NOISE_CHUNK + 1)


def measured_case(variant):
    """Setup and adjacent problem of a measured-trace check."""
    kind = "tracking" if variant in ("alg2", "push_pull") else "static"
    setup = make_setup(kind, pdop=True)
    agent = 2 if kind == "tracking" else 1
    return setup, adjacent_variant(setup.problem, agent=agent, delta=0.5,
                                   eta=2.0)


@functools.lru_cache(maxsize=None)
def measured_reference(variant):
    """(diffs, bounds) of the one-iteration-at-a-time loop at the longest
    measured horizon; a shorter horizon's arrays are their prefixes."""
    setup, adjacent = measured_case(variant)
    iterations = MEASURED_HORIZONS[-1]
    if setup.push_pull is None:
        diff, bound = difference_static_measured(variant, setup, adjacent,
                                                 iterations, seed=3)
        return [diff], [bound]
    xdiff, xbound, ydiff, ybound = difference_tracking_measured(
        variant, setup, adjacent, iterations, seed=3
    )
    return [xdiff, ydiff], [xbound, ybound]

STATIC_PAIRS = {
    "decaying": (LAM, GAM),
    "growing": (PowerSchedule.growing(0.02, 0.001, 0.5),
                PowerSchedule.growing(1.0, 1e-6, 1.0)),
    "geometric": (PowerSchedule.geometric(0.02, 0.995),
                  PowerSchedule.geometric(1.0, 0.9999)),
}

TRACKING_SETS = {
    "decaying": (LAM, ALPHA, G1, G2),
    "growing": (PowerSchedule.growing(0.02, 0.001, 0.5),
                PowerSchedule.growing(0.01, 1e-7, 1.0),
                PowerSchedule.growing(1.0, 1e-6, 1.0),
                PowerSchedule.growing(1.0, 1e-6, 0.9)),
    "geometric": (PowerSchedule.geometric(0.02, 0.995),
                  PowerSchedule.geometric(0.02, 0.999),
                  PowerSchedule.geometric(1.0, 0.9999),
                  PowerSchedule.geometric(1.0, 0.9995)),
    "no_mix": (LAM, None, G1, G2),
}


class TestBlockedRecursions:
    """The block-stepped recursions equal the per-index loops bit for
    bit, on and off the block boundaries."""

    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    @pytest.mark.parametrize("name", sorted(STATIC_PAIRS))
    def test_static_matches_loop(self, name, horizon):
        lam, gam = STATIC_PAIRS[name]
        got = sensitivity_static(lam, gam, WBAR, horizon)
        assert np.array_equal(
            got, sensitivity_static_loop(lam, gam, WBAR, horizon)
        )

    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    @pytest.mark.parametrize("name", sorted(TRACKING_SETS))
    def test_tracking_matches_loop(self, name, horizon):
        args = TRACKING_SETS[name] + (WBAR, 0.3, horizon)
        sx, sy = sensitivity_tracking(*args)
        ref_x, ref_y = sensitivity_tracking_loop(*args)
        assert np.array_equal(sx, ref_x)
        assert np.array_equal(sy, ref_y)

    @pytest.mark.parametrize("iterations", BLOCK_HORIZONS[:-1])
    @pytest.mark.parametrize("variant", ["alg1", "dgd", "pdop_alg1"])
    def test_static_envelope_trace_matches_loop(self, variant, iterations):
        setup = make_setup("static", pdop=True)
        adjacent = adjacent_variant(setup.problem, agent=1, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            variant, setup, adjacent, iterations, seed=3, envelope=0.7
        )
        diff, bound = difference_static_envelope_loop(
            variant, setup, 1, iterations, 0.7
        )
        assert np.array_equal(trace.state_diff, diff)
        assert np.array_equal(trace.state_bound, bound)
        ks = np.arange(iterations + 1)
        worst, violation = ratio_scan_loop(ks, [diff], [bound])
        assert trace.max_ratio == worst
        assert trace.violation_k == violation

    @pytest.mark.parametrize("iterations", BLOCK_HORIZONS[:-1])
    @pytest.mark.parametrize("variant", ["alg2", "push_pull"])
    def test_tracking_envelope_trace_matches_loop(self, variant, iterations):
        setup = make_setup("tracking")
        adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5, eta=2.0)
        trace = coupled_difference_trace(
            variant, setup, adjacent, iterations, seed=3, envelope=0.3
        )
        xdiff, xbound, ydiff, ybound = difference_tracking_envelope_loop(
            variant, setup, 2, iterations, 0.3
        )
        assert np.array_equal(trace.state_diff, xdiff)
        assert np.array_equal(trace.state_bound, xbound)
        assert np.array_equal(trace.tracker_diff, ydiff)
        assert np.array_equal(trace.tracker_bound, ybound)
        ks = np.arange(iterations + 1)
        worst, violation = ratio_scan_loop(
            ks, [xdiff, ydiff], [xbound, ybound]
        )
        assert trace.max_ratio == worst
        assert trace.violation_k == violation

    @pytest.mark.parametrize("iterations", MEASURED_HORIZONS)
    @pytest.mark.parametrize("variant",
                             ["alg1", "dgd", "pdop_alg1", "alg2", "push_pull"])
    def test_measured_trace_matches_loop(self, variant, iterations):
        setup, adjacent = measured_case(variant)
        trace = coupled_difference_trace(variant, setup, adjacent,
                                         iterations, seed=3)
        diffs, bounds = [[a[:iterations + 1] for a in arrays]
                         for arrays in measured_reference(variant)]
        assert np.array_equal(trace.ks, np.arange(iterations + 1))
        assert np.array_equal(trace.state_diff, diffs[0])
        assert np.array_equal(trace.state_bound, bounds[0])
        if len(diffs) == 1:
            assert trace.tracker_diff is None and trace.tracker_bound is None
        else:
            assert np.array_equal(trace.tracker_diff, diffs[1])
            assert np.array_equal(trace.tracker_bound, bounds[1])
        worst, violation = ratio_scan_loop(trace.ks, diffs, bounds)
        assert trace.max_ratio == worst
        assert trace.violation_k == violation
        assert trace.ok == (violation is None)

    def test_envelope_trace_rejects_strong_self_coupling(self):
        # min |W_ii| = 0.4 keeps the sensitivity bound contracting while
        # agent 0's |W_00| = 0.6 does not.
        base = make_setup("static")
        setup = RunSetup(
            base.problem,
            ScheduleSet(
                stepsize=LAM, coupling=PowerSchedule.constant(2.0),
                noise_scale=NU,
            ),
            consensus=base.consensus,
        )
        adjacent = adjacent_variant(setup.problem, agent=0, delta=0.5, eta=1.0)
        for envelope in (None, 1.0):
            with pytest.raises(RangeError, match="perturbed agent"):
                coupled_difference_trace("alg1", setup, adjacent, 50, seed=1,
                                         envelope=envelope)


STREAM_SCHEDULES = {
    "static": (ScheduleSet(stepsize=LAM, coupling=GAM, noise_scale=NU),
               W_STATIC),
    "tracking": (ScheduleSet(stepsize=LAM, tracker_mix=ALPHA,
                             coupling_state=G1, coupling_tracker=G2,
                             noise_scale=NU), W_TRACKING),
    "geometric": (ScheduleSet(stepsize=PowerSchedule.geometric(0.02, 0.995),
                              coupling=GAM,
                              noise_scale=PowerSchedule.geometric(1.0, 0.9999)),
                  W_STATIC),
}
STREAM_HORIZONS = (B - 1, B, B + 1, 2 * B + 7)


def conservative_budget_whole(schedules, weights, gradient_bound, horizon):
    """(varsigma, per_term, epsilon_partial) over k = 1..horizon from
    whole-horizon arrays and one np.cumsum."""
    sch = schedules
    if isinstance(weights, ConsensusWeights):
        s = sensitivity_static_loop(sch.stepsize, sch.coupling,
                                    weights.min_diag_mag, horizon)[1:]
        scale = gradient_bound
    else:
        sx, sy = sensitivity_tracking_loop(
            sch.stepsize, sch.tracker_mix, sch.coupling_state,
            sch.coupling_tracker, weights.min_diag_pull,
            weights.min_diag_push, horizon,
        )
        s = (sx + sy)[1:]
        scale = 2.0 * gradient_bound
    per = scale * s / sch.noise_scale.values(np.arange(1, horizon + 1))
    return s, per, np.cumsum(per)


def asymptotic_budget_whole(stepsize, nu, gradient_bound, horizon, factor):
    ks = np.arange(1, horizon + 1)
    expr = ScheduleExpr.of(stepsize) / nu
    envelope = expr.power_envelope()
    if envelope is None:
        base = expr.terms(ks)
    else:
        base = envelope[1] * ks.astype(float) ** (-envelope[0])
    per = factor * gradient_bound * base
    return base * nu.values(ks), per, np.cumsum(per)


def edge_keep(horizon):
    """Kept k's on and next to every block edge, plus the horizon."""
    edges = [k + d for k in range(B, horizon + 1, B) for d in (-1, 0, 1)]
    return sorted({1, horizon, *(k for k in edges if 1 <= k <= horizon)})


def assert_series_equal(got, ks, columns):
    assert np.array_equal(got.ks, ks)
    idx = np.asarray(ks) - 1
    for name, column in zip(("varsigma", "per_term", "epsilon_partial"),
                            columns):
        assert np.array_equal(getattr(got, name), column[idx]), name


class TestBudgetStream:
    """The accountant walks k = 1..T in blocks and keeps only the k's a
    caller reads; every value equals the whole-horizon arrays bit for
    bit."""

    @pytest.mark.parametrize("horizon", STREAM_HORIZONS)
    @pytest.mark.parametrize("name", sorted(STREAM_SCHEDULES))
    def test_conservative_kept_equals_whole(self, name, horizon):
        schedules, weights = STREAM_SCHEDULES[name]
        whole = conservative_budget_whole(schedules, weights, 1.3, horizon)
        full = conservative_budget(schedules, weights, 1.3, horizon)
        assert_series_equal(full, np.arange(1, horizon + 1), whole)
        keep = edge_keep(horizon)
        kept = conservative_budget(schedules, weights, 1.3, horizon, keep)
        assert_series_equal(kept, keep, whole)
        assert kept.epsilon_total == full.epsilon_total

    @pytest.mark.parametrize("horizon", STREAM_HORIZONS)
    @pytest.mark.parametrize("name", sorted(STREAM_SCHEDULES))
    def test_envelope_kept_equals_whole(self, name, horizon):
        schedules, _ = STREAM_SCHEDULES[name]
        lam, nu = schedules.stepsize, schedules.noise_scale
        whole = asymptotic_budget_whole(lam, nu, 1.3, horizon, 2.0)
        full = asymptotic_budget(lam, nu, 2.0 * 1.3, horizon)
        assert_series_equal(full, np.arange(1, horizon + 1), whole)
        keep = edge_keep(horizon)
        kept = asymptotic_budget(lam, nu, 2.0 * 1.3, horizon, keep=keep)
        assert_series_equal(kept, keep, whole)

    def test_keep_must_increase_within_the_horizon(self):
        schedules, weights = STREAM_SCHEDULES["static"]
        for keep in ([0, 5], [5, 11], [5, 3], [4, 4]):
            with pytest.raises(RangeError, match="kept k's"):
                conservative_budget(schedules, weights, 1.0, 10, keep)
        empty = conservative_budget(schedules, weights, 1.0, 10, [])
        assert empty.ks.size == empty.epsilon_partial.size == 0

    @pytest.mark.parametrize("keep", [None, [10], [154], [154, 2 * B]])
    def test_underflowing_noise_stops_at_the_same_k(self, keep):
        # pdop noise at r = 0.01 is subnormal by k = 155, where the term
        # overflows, whichever k's the series keeps.
        schedules = ScheduleSet(
            stepsize=PowerSchedule.geometric(0.02, 0.995),
            coupling=PowerSchedule.constant(1.0),
            noise_scale=PowerSchedule.geometric(0.118619, 0.01),
        )
        with pytest.raises(RangeError) as info:
            conservative_budget(schedules, W_STATIC, 1.0, 2 * B, keep)
        assert str(info.value) == (
            "conservative budget term not finite at k = 155: sensitivity "
            "0.0232815 over noise scale 1.18619e-311"
        )

    @pytest.mark.parametrize("kind, first_bad",
                             [("static", 155), ("tracking", 153)])
    def test_later_coupling_error_wins_over_earlier_term(self, kind,
                                                         first_bad):
        # The noise underflows by k = 155, in the first block; the
        # growing coupling stops contracting at k = 15,000, in the
        # second.  As over whole-horizon arrays, the coupling error is
        # raised, and only a horizon short of it reports the term.
        noise = PowerSchedule.geometric(0.118619, 0.01)
        growing = PowerSchedule.growing(1.0, 1e-4, 1.0)
        if kind == "static":
            schedules = ScheduleSet(stepsize=LAM, coupling=growing,
                                    noise_scale=noise)
            weights, message = W_STATIC, "coupling too strong"
        else:
            schedules = ScheduleSet(stepsize=LAM, tracker_mix=ALPHA,
                                    coupling_state=growing,
                                    coupling_tracker=G2, noise_scale=noise)
            weights, message = W_TRACKING, "coupling or mix too strong"
        assert 15_000 > B
        with pytest.raises(RangeError, match=message):
            conservative_budget(schedules, weights, 1.0, 15_001, [10])
        with pytest.raises(RangeError,
                           match=f"not finite at k = {first_bad}:"):
            conservative_budget(schedules, weights, 1.0, 15_000, [10])

    def test_budget_memory_stays_flat_in_the_horizon(self):
        # Whole-horizon arrays traced 0.8 MB at T = 1e4 and 6.9 MB at
        # 1e5; the walk holds one block and the k's that are read.
        configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
        for name in ("alg1", "alg2"):
            config = load_config(str(configs / f"{name}.cfg"))
            setup = build_setup(config)
            peaks = []
            for horizon in (10**4, 10**5):
                tracemalloc.start()
                try:
                    budget_account(config.variant, setup,
                                   config.gradient_bound, [horizon])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # Ten times the horizon, well under twice the peak.
            assert peaks[1] < 2 * peaks[0], (name, peaks)
            assert peaks[1] < 4 * 2**20, (name, peaks)


class TestRatioScan:
    POOL = (0.0, -0.0, 0.5, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 2.0, 3.0,
            -1.0, 1e-300, math.inf, math.nan)

    def test_matches_loop_on_special_values(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            streams = int(rng.integers(1, 3))
            diffs = [rng.choice(self.POOL, n) for _ in range(streams)]
            bounds = [rng.choice(self.POOL, n) for _ in range(streams)]
            ks = np.arange(n) + 5
            got = _ratio_scan(ks, diffs, bounds)
            with np.errstate(invalid="ignore"):
                assert got == ratio_scan_loop(ks, diffs, bounds)

    def test_rules(self):
        ks = np.arange(5)
        nan = math.nan
        # 0/0 counts as 0, NaN ratios are skipped.
        assert _ratio_scan(ks, [np.array([9.0, 0.0, nan, 1.0, 0.5])],
                           [np.array([0.0, 0.0, 1.0, 2.0, 1.0])]) == (0.5, None)
        # A positive difference over a zero bound is infinite.
        assert _ratio_scan(ks, [np.array([0.0, 0.0, 1.0, 0.0, 0.0])],
                           [np.zeros(5)]) == (math.inf, 2)
        # The first violating k over all streams is reported.
        diffs = [np.array([0.0, 0.0, 0.0, 3.0, 0.0]),
                 np.array([0.0, 0.0, 2.0, 0.0, 0.0])]
        assert _ratio_scan(ks, diffs, [np.ones(5)] * 2) == (3.0, 2)


def imported_modules(path):
    """Module names a source file imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            if node.module:
                names.add(prefix + node.module)
            else:
                names.update(prefix + alias.name for alias in node.names)
    return names


def test_privacy_imports_no_solver_side_module():
    # solvers imports privacy; any of these imported back makes a cycle.
    names = imported_modules(pathlib.Path(privacy.__file__))
    for module in ("solvers", "noise", "objectives", "difference"):
        assert "." + module not in names
        assert "dpopt." + module not in names
