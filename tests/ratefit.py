"""Log-log trend fitting of trace metrics against the stepsize ratio.

The attenuated solver drives its consensus error like a power of the
stepsize-to-coupling ratio, so a straight line in log-log coordinates
against lam(k)/gamma(k) is the numerical signature of the predicted
rate.  The fit is ordinary least squares over a configured iteration
window and is a trend check, not a constant estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpopt.errors import RangeError
from dpopt.schedules import PowerSchedule

MIN_DECADES = 2.0


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(metric) against log(lam/gamma)."""

    slope: float
    r_squared: float
    points: int


def rate_fit(
    ks: np.ndarray,
    metric: np.ndarray,
    stepsize: PowerSchedule,
    coupling: PowerSchedule,
    k_min: int,
    k_max: int,
) -> RateFit:
    """Fit log(metric) ~ slope * log(lam(k)/gamma(k)) over [k_min, k_max].

    Only strictly positive finite metric samples enter the fit.  The
    selected iteration window must span at least two decades, otherwise
    the slope is not identified and a RangeError is raised.  A constant
    metric fits slope 0 with r_squared 1 (zero residual, zero spread).
    """
    ks = np.asarray(ks, dtype=float)
    metric = np.asarray(metric, dtype=float)
    if ks.shape != metric.shape:
        raise RangeError("iteration and metric arrays must align")
    if k_min <= 0 or k_max <= k_min:
        raise RangeError("need 0 < k_min < k_max")
    keep = (ks >= k_min) & (ks <= k_max) & np.isfinite(metric) & (metric > 0)
    sel_k = ks[keep]
    sel_m = metric[keep]
    if sel_k.size < 2 or sel_k.max() < sel_k.min() * 10.0**MIN_DECADES:
        raise RangeError(
            "rate fit window must span at least two decades of iterations"
        )
    x = np.log(stepsize.values(sel_k) / coupling.values(sel_k))
    y = np.log(sel_m)
    if np.all(y == y[0]):
        # Zero spread fits a flat line exactly; the mean subtraction
        # below would otherwise leave rounding residue in both sums.
        return RateFit(slope=0.0, r_squared=1.0, points=int(sel_k.size))
    x_c = x - x.mean()
    y_c = y - y.mean()
    denom = float(np.dot(x_c, x_c))
    if denom == 0.0:
        raise RangeError("stepsize ratio is constant over the fit window")
    slope = float(np.dot(x_c, y_c)) / denom
    residual = y_c - slope * x_c
    ss_tot = float(np.dot(y_c, y_c))
    ss_res = float(np.dot(residual, residual))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=slope, r_squared=r_squared, points=int(sel_k.size))
