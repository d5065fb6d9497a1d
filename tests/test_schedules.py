import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envelopes import recursion_envelope_ratio, recursion_envelope_series

from dpopt.errors import ConditionError, RangeError
from dpopt.noise import NOISE_CHUNK
from dpopt.schedules import (
    PowerSchedule,
    ScheduleExpr,
    ScheduleSet,
    ratio_limit,
    series_class,
    validate_static_schedules,
    validate_tracking_schedules,
)


def static_set(**overrides):
    base = dict(
        stepsize=PowerSchedule.decaying(0.02, 0.1, 1.0),
        coupling=PowerSchedule.decaying(1.0, 0.1, 0.9),
        noise_scale=PowerSchedule.growing(1.0, 0.1, 0.3),
    )
    base.update(overrides)
    return ScheduleSet(**base)


def tracking_set(**overrides):
    base = dict(
        stepsize=PowerSchedule.decaying(0.02, 0.1, 1.0),
        coupling_state=PowerSchedule.decaying(1.0, 0.1, 0.9),
        coupling_tracker=PowerSchedule.decaying(1.0, 0.1, 0.7),
        tracker_mix=PowerSchedule.decaying(0.02, 0.1, 1.0),
        noise_scale=PowerSchedule.growing(1.0, 0.1, 0.1),
    )
    base.update(overrides)
    return ScheduleSet(**base)


class TestEval:
    def test_decaying_at_zero(self):
        assert PowerSchedule.decaying(0.02, 0.1, 1.0).value(0) == 0.02

    def test_decaying_at_ten(self):
        assert PowerSchedule.decaying(0.02, 0.1, 1.0).value(10) == pytest.approx(0.01)

    def test_constant(self):
        s = PowerSchedule.constant(1.0)
        assert s.value(0) == 1.0 and s.value(12345) == 1.0

    def test_growing(self):
        assert PowerSchedule.growing(1.0, 0.1, 0.3).value(0) == 1.0

    def test_geometric(self):
        assert PowerSchedule.geometric(2.0, 0.5).value(3) == pytest.approx(0.25)

    def test_negative_index_rejected(self):
        with pytest.raises(RangeError):
            PowerSchedule.constant(1.0).value(-1)
        with pytest.raises(RangeError):
            PowerSchedule.constant(1.0).values(np.array([0, -2]))

    def test_values_matches_value(self):
        # One formula per form: the scalar and the array evaluation give
        # the same bits (separate formulas differed in the last ulp at
        # 411 of these 1e4 values of the p = 0.9 coupling).
        ks = np.arange(10_000)
        for s in (
            PowerSchedule.decaying(0.02, 0.1, 1.0),
            PowerSchedule.decaying(1.0, 0.1, 0.9),
            PowerSchedule.decaying(1.0, 0.1, 0.7),
            PowerSchedule.growing(1.0, 0.1, 0.3),
            PowerSchedule.geometric(0.5, 0.99),
            PowerSchedule.constant(3.0),
        ):
            expected = np.array([s.value(int(k)) for k in ks])
            assert np.array_equal(s.values(ks), expected)

    @pytest.mark.parametrize("schedule,formula", [
        (PowerSchedule.decaying(1.0, 0.1, 0.9),
         lambda s, ks: s.a / (1.0 + s.b * ks**s.p)),
        (PowerSchedule.growing(1.0, 0.1, 0.3),
         lambda s, ks: s.a + s.b * ks**s.p),
        (PowerSchedule.geometric(0.5, 0.99), lambda s, ks: s.a * s.r**ks),
        (PowerSchedule.constant(3.0),
         lambda s, ks: np.full_like(ks, s.a)),
    ])
    def test_values_hold_one_array(self, schedule, formula):
        # The same bits as each form's formula, at a peak of one array
        # of the length of ks: numpy elides the operators' temporaries
        # except that of a / array, which decaying divides in place.
        ks = np.arange(10**5, dtype=float)
        tracemalloc.start()
        try:
            values = schedule.values(ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tobytes() == formula(schedule, ks).tobytes()
        assert peak < 1.5 * ks.nbytes

    def test_terms_matches_term(self):
        pdop = (PowerSchedule.geometric(0.02, 0.995)
                / PowerSchedule.geometric(0.118619, 0.999))
        attenuated = (PowerSchedule.decaying(0.02, 0.1, 1.0) ** 2
                      / PowerSchedule.growing(1.0, 0.1, 0.3))
        ks = np.arange(1, 5000)
        for expr in (pdop, attenuated):
            expected = np.array([expr.term(int(k)) for k in ks])
            assert np.array_equal(expr.terms(ks), expected)

    def test_monotone_over_ten_thousand(self):
        ks = np.arange(10_001)
        dec = PowerSchedule.decaying(0.02, 0.1, 1.0).values(ks)
        gro = PowerSchedule.growing(1.0, 0.1, 0.3).values(ks)
        assert np.all(np.diff(dec) <= 0)
        assert np.all(np.diff(gro) >= 0)

    def test_peak_bounds_every_value(self):
        ks = np.arange(10_001)
        for s, peak in (
            (PowerSchedule.growing(1.0, 0.1, 0.3), np.inf),
            (PowerSchedule.growing(1.0, 0.0, 0.3), 1.0),
            (PowerSchedule.growing(1.0, 0.5, 0.0), 1.5),
            (PowerSchedule.decaying(2.0, 0.1, 0.9), 2.0),
            (PowerSchedule.geometric(0.5, 0.99), 0.5),
            (PowerSchedule.constant(3.0), 3.0),
        ):
            assert s.peak == peak
            assert np.all(s.values(ks) <= peak)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSchedule(form="weird", a=1.0)
        with pytest.raises(ValueError):
            PowerSchedule.decaying(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            PowerSchedule.decaying(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            PowerSchedule.geometric(1.0, 1.0)


class TestSeriesClass:
    def test_stepsize_sq_over_coupling_convergent(self):
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        gam = PowerSchedule.decaying(1.0, 0.1, 0.9)
        res = series_class(lam**2 / gam)
        assert res.convergent and res.decay_exponent == pytest.approx(1.1)

    def test_coupling_alone_divergent(self):
        res = series_class(ScheduleExpr.of(PowerSchedule.decaying(1.0, 0.1, 0.9)))
        assert not res.convergent and res.decay_exponent == pytest.approx(0.9)

    def test_coupling_sq_noise_sq_convergent(self):
        gam = PowerSchedule.decaying(1.0, 0.1, 0.9)
        nu = PowerSchedule.growing(1.0, 0.1, 0.3)
        res = series_class(gam**2 * nu**2)
        assert res.convergent and res.decay_exponent == pytest.approx(1.2)

    def test_harmonic_boundary_divergent(self):
        res = series_class(ScheduleExpr.of(PowerSchedule.decaying(1.0, 1.0, 1.0)))
        assert not res.convergent

    def test_geometric_decay_dominates_power_growth(self):
        geo = PowerSchedule.geometric(1.0, 0.99)
        nu = PowerSchedule.growing(1.0, 1.0, 5.0)
        assert series_class(ScheduleExpr.of(geo) * nu).convergent

    def test_geometric_growth_in_denominator_diverges(self):
        geo = PowerSchedule.geometric(1.0, 0.5)
        assert not series_class(PowerSchedule.constant(1.0) / geo).convergent

    def test_classification_matches_partial_sums(self):
        # The verdict must match the numeric trend: convergent terms add
        # a smaller relative increment over 1e5..1e6 than divergent
        # terms, and their increment shrinks from decade to decade.
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        gam = PowerSchedule.decaying(1.0, 0.1, 0.9)
        nu = PowerSchedule.growing(1.0, 0.1, 0.3)
        cases = [lam**2 / gam, gam**2 * nu**2, ScheduleExpr.of(lam) / nu,
                 ScheduleExpr.of(gam), ScheduleExpr.of(lam)]
        ks = np.arange(1, 10**6 + 1)
        growth = {}
        for expr in cases:
            partial = np.cumsum(expr.terms(ks))
            g_last = partial[-1] / partial[10**5 - 1] - 1.0
            g_prev = partial[10**5 - 1] / partial[10**4 - 1] - 1.0
            growth[expr] = (g_prev, g_last, series_class(expr).convergent)
        conv_growth = [g for _, g, c in growth.values() if c]
        div_growth = [g for _, g, c in growth.values() if not c]
        assert max(conv_growth) < min(div_growth)
        for g_prev, g_last, convergent in growth.values():
            if convergent:
                assert g_last < g_prev
                assert g_last < 0.15
            else:
                assert g_last > 0.18


class TestPowerEnvelope:
    @pytest.mark.parametrize("sched", [
        PowerSchedule.decaying(0.02, 0.1, 1.0),
        PowerSchedule.decaying(1.0, 0.1, 0.9),
        PowerSchedule.growing(1.0, 0.1, 0.3),
        PowerSchedule.constant(2.5),
        PowerSchedule.decaying(1.0, 0.0, 0.0),
    ])
    def test_bounds_sandwich_values(self, sched):
        e, lo, hi = sched.power_bounds()
        ks = np.arange(1, 10**5, 97)
        vals = sched.values(ks)
        envelope_lo = lo * ks.astype(float) ** (-e)
        envelope_hi = hi * ks.astype(float) ** (-e)
        assert np.all(vals >= envelope_lo * (1 - 1e-12))
        assert np.all(vals <= envelope_hi * (1 + 1e-12))

    def test_geometric_has_no_power_bounds(self):
        assert PowerSchedule.geometric(1.0, 0.9).power_bounds() is None
        lam = PowerSchedule.geometric(1.0, 0.9)
        assert (ScheduleExpr.of(lam) / PowerSchedule.constant(1.0)).power_envelope() is None

    def test_expr_envelope_dominates_terms(self):
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        nu = PowerSchedule.growing(1.0, 0.1, 0.3)
        expr = ScheduleExpr.of(lam) / nu
        e, const = expr.power_envelope()
        assert e == pytest.approx(1.3)
        ks = np.arange(1, 10**5, 11)
        assert np.all(expr.terms(ks) <= const * ks.astype(float) ** (-e) * (1 + 1e-12))

    def test_envelope_tight_in_the_limit(self):
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        nu = PowerSchedule.growing(1.0, 0.1, 0.3)
        expr = ScheduleExpr.of(lam) / nu
        e, const = expr.power_envelope()
        k = 10**14
        assert expr.term(k) / (const * k ** (-e)) > 0.99


@st.composite
def power_schedules(draw):
    """A decaying, growing or constant schedule (no geometric factor)."""
    form = draw(st.sampled_from(("decaying", "growing", "constant")))
    a = draw(st.floats(1e-3, 1e3))
    if form == "constant":
        return PowerSchedule.constant(a)
    return PowerSchedule(form, a=a, b=draw(st.floats(0.0, 10.0)),
                         p=draw(st.floats(0.0, 3.0)))


@settings(max_examples=200, deadline=None)
@given(num=power_schedules(), den=power_schedules(),
       e_num=st.floats(0.25, 3.0), e_den=st.floats(0.25, 3.0))
# A tiny denominator coefficient: the growing envelope passes the float
# range at large k.
@example(num=PowerSchedule.growing(1.0, 1.0, 2.0),
         den=PowerSchedule.growing(1.0, 2.855241161504407e-192, 1.0),
         e_num=2.0, e_den=1.5625)
def test_power_envelope_dominates_terms(num, den, e_num, e_den):
    expr = num ** e_num / den ** e_den
    e, const = expr.power_envelope()
    ks = np.unique(np.logspace(0.0, 6.0, 241).round())
    with np.errstate(over="ignore"):  # a bound past the float range is inf
        bound = const * ks ** (-e) * (1 + 1e-12)
    assert np.all(expr.terms(ks) <= bound)


@st.composite
def any_schedules(draw):
    """A schedule of any of the four forms, its parameters anywhere in
    their valid ranges short of overflow."""
    form = draw(st.sampled_from(("decaying", "growing", "geometric",
                                 "constant")))
    a = draw(st.floats(1e-6, 1e6))
    if form == "constant":
        return PowerSchedule.constant(a)
    if form == "geometric":
        return PowerSchedule.geometric(
            a, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    return PowerSchedule(form, a=a, b=draw(st.floats(0.0, 1e3)),
                         p=draw(st.floats(0.0, 4.0)))


@settings(max_examples=300, deadline=None)
@given(schedule=any_schedules(), first=st.integers(0, 10**7),
       offset=st.integers(0, 300), tail=st.integers(0, 300),
       length=st.sampled_from((1, 7, 8, 9, 16, 17, NOISE_CHUNK // 10,
                               NOISE_CHUNK // 20)))
def test_values_of_a_slice_are_the_slice_of_values(schedule, first, offset,
                                                   tail, length):
    # run_batch evaluates its schedules chunk by chunk: each chunk must
    # read the bits one evaluation over the whole run would give, and
    # those of value() at each index, whatever SIMD width numpy uses.
    ks = np.arange(first, first + offset + length + tail, dtype=float)
    whole = schedule.values(ks)[offset:offset + length]
    part = ks[offset:offset + length]
    assert schedule.values(part).tobytes() == whole.tobytes()
    scalars = np.array([schedule.value(int(k)) for k in part])
    assert scalars.tobytes() == whole.tobytes()


def block_ratio(expr, j=16):
    """Sum of the terms over [2^j, 2^(j+1)) over the sum over
    [2^(j-1), 2^j).  For terms ~ k^(-e) it tends to 2^(1-e) (Cauchy
    condensation), below 1 exactly when the series converges."""
    low = expr.terms(np.arange(2 ** (j - 1), 2 ** j, dtype=float)).sum()
    high = expr.terms(np.arange(2 ** j, 2 ** (j + 1), dtype=float)).sum()
    return high / low


@st.composite
def asymptotic_schedules(draw):
    """A decaying, growing or constant schedule whose b k^p is at least
    100 max(a, 1) from k = 2^15 on, so that blocks 15 and 16 see its
    power law within one percent."""
    form = draw(st.sampled_from(("decaying", "growing", "constant")))
    a = draw(st.floats(0.1, 10.0))
    if form == "constant":
        return PowerSchedule.constant(a)
    p = draw(st.floats(0.25, 3.0))
    b_min = 100.0 * max(a, 1.0) * 2.0 ** (-15.0 * p)
    b = draw(st.floats(b_min, max(10.0, 10.0 * b_min)))
    return PowerSchedule(form, a=a, b=b, p=p)


@settings(max_examples=200, deadline=None)
@given(num=asymptotic_schedules(), den=asymptotic_schedules())
def test_series_class_matches_power_block_ratio(num, den):
    expr = ScheduleExpr.of(num) / den
    # Away from the harmonic boundary 2^(1-e) is outside [0.87, 1.15].
    assume(abs(expr.decay_exponent - 1.0) >= 0.2)
    assert (block_ratio(expr) < 1.0) == series_class(expr).convergent


@settings(max_examples=100, deadline=None)
@given(num=asymptotic_schedules(), den=asymptotic_schedules(),
       r=st.floats(0.996, 0.9995), decays=st.booleans())
def test_series_class_matches_geometric_block_ratio(num, den, r, decays):
    # |log r| >= 5e-4 moves a block sum by e^16 or more, past any power
    # factor; |log r| <= 4e-3 keeps every term inside float range.
    geometric = PowerSchedule.geometric(1.0, r)
    expr = ScheduleExpr.of(num) / den
    expr = expr * geometric if decays else expr / geometric
    assert (block_ratio(expr) < 1.0) == series_class(expr).convergent


class TestRatioLimit:
    def test_strict_decay_is_zero(self):
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        gam = PowerSchedule.decaying(1.0, 0.1, 0.9)
        assert ratio_limit(lam, gam) == "zero"

    def test_equal_exponents_finite(self):
        lam = PowerSchedule.decaying(0.02, 0.1, 1.0)
        alpha = PowerSchedule.decaying(0.05, 0.2, 1.0)
        assert ratio_limit(lam, alpha) == "finite"

    def test_slower_numerator_infinite(self):
        lam = PowerSchedule.decaying(1.0, 0.1, 0.5)
        gam = PowerSchedule.decaying(1.0, 0.1, 0.9)
        assert ratio_limit(lam, gam) == "infinite"

    def test_geometric_ratio(self):
        fast = PowerSchedule.geometric(1.0, 0.9)
        slow = PowerSchedule.geometric(1.0, 0.99)
        assert ratio_limit(fast, slow) == "zero"
        assert ratio_limit(slow, fast) == "infinite"


class TestStaticValidator:
    def test_reference_parameters_pass(self):
        report = validate_static_schedules(static_set())
        assert report.overall
        names = {e.name for e in report.entries}
        assert names == {
            "coupling_sum_diverges", "stepsize_sum_diverges",
            "stepsize_sq_over_coupling_sums", "state_noise_attenuation_sums",
            "budget_sum_finite",
        }

    def test_fast_coupling_flips_coupling_sum(self):
        bad = static_set(coupling=PowerSchedule.decaying(1.0, 0.1, 1.1))
        base = validate_static_schedules(static_set())
        report = validate_static_schedules(bad)
        assert not report.overall
        assert not report.entry("coupling_sum_diverges").passed
        # Entries not involving the coupling keep their verdicts.
        for name in ("stepsize_sum_diverges", "budget_sum_finite"):
            assert report.entry(name).passed == base.entry(name).passed

    def test_constant_noise_flips_budget_sum(self):
        bad = static_set(noise_scale=PowerSchedule.constant(1.0))
        base = validate_static_schedules(static_set())
        report = validate_static_schedules(bad)
        assert not report.overall
        assert not report.entry("budget_sum_finite").passed
        for name in ("coupling_sum_diverges", "stepsize_sum_diverges",
                     "stepsize_sq_over_coupling_sums"):
            assert report.entry(name).passed == base.entry(name).passed

    def test_scale_invariance(self):
        base = validate_static_schedules(static_set())
        scaled = validate_static_schedules(static_set(
            stepsize=PowerSchedule.decaying(17.0 * 0.02, 0.1, 1.0),
            coupling=PowerSchedule.decaying(0.25, 0.1, 0.9),
        ))
        for b, s in zip(base.entries, scaled.entries):
            assert b.name == s.name and b.passed == s.passed

    def test_constant_coupling_warns(self):
        report = validate_static_schedules(static_set(
            coupling=PowerSchedule.constant(1.0),
            noise_scale=PowerSchedule.geometric(1.0, 0.9),
        ))
        assert report.warnings

    def test_zero_noise_passes_noise_entries(self):
        report = validate_static_schedules(static_set(noise_scale=None))
        assert report.overall

    def test_slow_coupling_fails_noise_attenuation(self):
        # gamma^2 nu^2 ~ k^(-0.8 + 0.6) is not summable.
        report = validate_static_schedules(static_set(
            coupling=PowerSchedule.decaying(1.0, 0.1, 0.4),
            noise_scale=PowerSchedule.growing(1.0, 0.1, 0.3),
        ))
        assert not report.overall
        assert not report.entry("state_noise_attenuation_sums").passed


class TestTrackingValidator:
    def test_reference_parameters_pass(self):
        report = validate_tracking_schedules(tracking_set())
        assert report.overall
        assert len(report.entries) == 16

    def test_slow_state_coupling_flips_square_sum(self):
        bad = tracking_set(coupling_state=PowerSchedule.decaying(1.0, 0.1, 0.4))
        base = validate_tracking_schedules(tracking_set())
        report = validate_tracking_schedules(bad)
        assert not report.overall
        assert not report.entry("coupling_state_sq_sums").passed
        for name in ("coupling_tracker_sum_diverges", "tracker_mix_sum_diverges",
                     "stepsize_sum_diverges", "budget_sum_finite",
                     "tracker_mix_sq_over_coupling_tracker_sums"):
            assert report.entry(name).passed == base.entry(name).passed

    def test_slow_tracker_mix_flips_cross_sum(self):
        bad = tracking_set(tracker_mix=PowerSchedule.decaying(0.02, 0.1, 0.5))
        base = validate_tracking_schedules(tracking_set())
        report = validate_tracking_schedules(bad)
        assert not report.overall
        assert not report.entry("tracker_mix_sq_over_coupling_tracker_sums").passed
        for name in ("coupling_state_sum_diverges", "coupling_tracker_sum_diverges",
                     "coupling_state_sq_sums", "stepsize_sum_diverges",
                     "budget_sum_finite"):
            assert report.entry(name).passed == base.entry(name).passed

    def test_slow_tracker_coupling_flips_state_cross_sum(self):
        bad = tracking_set(coupling_tracker=PowerSchedule.decaying(1.0, 0.1, 0.95))
        base = validate_tracking_schedules(tracking_set())
        report = validate_tracking_schedules(bad)
        assert not report.overall
        assert not report.entry("coupling_state_sq_over_coupling_tracker_sums").passed
        for name in ("coupling_state_sum_diverges", "coupling_state_sq_sums",
                     "stepsize_sum_diverges", "budget_sum_finite"):
            assert report.entry(name).passed == base.entry(name).passed

    def test_missing_mix_rejected(self):
        with pytest.raises(ConditionError):
            validate_tracking_schedules(tracking_set(tracker_mix=None))


class TestRecursionEnvelope:
    def test_bounded_ratio_reference_family(self):
        alpha = PowerSchedule.decaying(1.0, 1.0, 0.9)
        beta = PowerSchedule.decaying(1.0, 1.0, 1.8)
        series = recursion_envelope_series(alpha, beta, 1.0, 10**4)
        assert series.shape == (10**4,)
        assert np.all(np.isfinite(series))
        assert series.max() < 10.0

    def test_zero_beta_gives_zero_ratio(self):
        alpha = PowerSchedule.decaying(1.0, 1.0, 0.9)
        series = recursion_envelope_series(alpha, None, 1.0, 1000)
        assert np.max(np.abs(series)) == 0.0

    def test_initial_condition_insensitivity(self):
        alpha = PowerSchedule.decaying(1.0, 1.0, 0.9)
        beta = PowerSchedule.decaying(1.0, 1.0, 1.8)
        r1 = recursion_envelope_ratio(alpha, beta, 1.0, 10**4)
        r0 = recursion_envelope_ratio(alpha, beta, 0.0, 10**4)
        assert abs(r1 - r0) <= 0.10 * r0

    def test_precondition_rejected(self):
        summable = PowerSchedule.decaying(1.0, 1.0, 1.5)
        beta = PowerSchedule.decaying(1.0, 1.0, 1.8)
        with pytest.raises(ConditionError):
            recursion_envelope_series(summable, beta, 1.0, 100)
        # beta must vanish strictly faster than alpha
        with pytest.raises(ConditionError):
            recursion_envelope_series(
                PowerSchedule.decaying(1.0, 1.0, 0.9),
                PowerSchedule.decaying(1.0, 1.0, 0.9), 1.0, 100,
            )
