import numpy as np
import pytest

from ratefit import MIN_DECADES, RateFit, rate_fit

from dpopt.errors import RangeError
from dpopt.schedules import PowerSchedule

LAM = PowerSchedule.decaying(0.02, 0.1, 1.0)
GAM = PowerSchedule.decaying(1.0, 0.1, 0.9)


def ratio(ks):
    return LAM.values(ks.astype(float)) / GAM.values(ks.astype(float))


class TestRateFit:
    def test_recovers_exact_power_law(self):
        ks = np.arange(10, 10**5, 37)
        for target in (0.8, 1.6, 2.0):
            metric = 3.7 * ratio(ks) ** target
            fit = rate_fit(ks, metric, LAM, GAM, 100, 10**5)
            assert fit.slope == pytest.approx(target, abs=1e-10)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noise_lowers_r_squared_not_slope(self):
        ks = np.arange(10, 10**5, 37)
        rng = np.random.default_rng(0)
        metric = ratio(ks) ** 2.0 * np.exp(0.05 * rng.standard_normal(ks.size))
        fit = rate_fit(ks, metric, LAM, GAM, 100, 10**5)
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert 0.9 < fit.r_squared < 1.0

    def test_constant_metric_is_flat_and_exact(self):
        ks = np.arange(10, 10**5, 101)
        metric = np.full(ks.size, 4.2)
        fit = rate_fit(ks, metric, LAM, GAM, 100, 10**5)
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_window_filters_points(self):
        ks = np.arange(1, 10**5)
        metric = ratio(ks)
        fit = rate_fit(ks, metric, LAM, GAM, 50, 10**5)
        assert fit.points == np.sum((ks >= 50) & (ks <= 10**5))

    def test_nonpositive_samples_excluded(self):
        ks = np.arange(10, 10**5, 37).astype(float)
        metric = ratio(ks) ** 1.5
        metric[::10] = 0.0
        metric[5::10] = np.nan
        fit = rate_fit(ks, metric, LAM, GAM, 100, 10**5)
        assert fit.slope == pytest.approx(1.5, abs=1e-10)
        assert fit.points < ks.size

    def test_narrow_window_rejected(self):
        ks = np.arange(10, 10**5, 37)
        metric = ratio(ks)
        with pytest.raises(RangeError):
            rate_fit(ks, metric, LAM, GAM, 1000, 5000)
        # Two decades of selected points is the minimum that passes.
        aligned = np.arange(10, 10**5 + 1, 10)
        fit = rate_fit(aligned, ratio(aligned), LAM, GAM, 1000, 10**5)
        assert isinstance(fit, RateFit)
        assert MIN_DECADES == 2.0

    def test_bad_arguments_rejected(self):
        ks = np.arange(10, 10**5, 37)
        metric = ratio(ks)
        with pytest.raises(RangeError):
            rate_fit(ks, metric[:-1], LAM, GAM, 100, 10**5)
        with pytest.raises(RangeError):
            rate_fit(ks, metric, LAM, GAM, 0, 10**5)
        with pytest.raises(RangeError):
            rate_fit(ks, metric, LAM, GAM, 10**5, 100)

    def test_constant_ratio_rejected(self):
        ks = np.arange(10, 10**5, 37)
        metric = np.linspace(1.0, 2.0, ks.size)
        flat = PowerSchedule.constant(0.5)
        with pytest.raises(RangeError):
            rate_fit(ks, metric, flat, flat, 100, 10**5)
