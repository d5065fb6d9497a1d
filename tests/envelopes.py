"""The damped-recursion envelope check of the convergence analysis.

The analysis bounds recursions v^{k+1} = (1 - alpha(k)) v^k + beta(k)
by the envelope v^k = O(beta^k / alpha^k); iterating the recursion and
watching the ratios stay bounded is its numerical signature.
"""

from __future__ import annotations

import numpy as np

from dpopt.errors import ConditionError, RangeError
from dpopt.schedules import ScheduleExpr, ratio_limit, series_class


def recursion_envelope_series(
    alpha,
    beta,
    v0: float,
    k_max: int,
) -> np.ndarray:
    """Per-iteration ratios v^k * alpha(k) / beta(k) for 1 <= k <= k_max.

    Iterates the damped recursion v^{k+1} = (1 - alpha(k)) v^k + beta(k)
    from v0; boundedness of the returned ratios is the numerical
    signature of the envelope v^k = O(beta^k / alpha^k).  beta=None
    means an identically zero forcing term (pure contraction), for which
    the envelope claim is vacuous and every ratio is reported as 0.

    Preconditions (checked symbolically): sum alpha = inf, alpha -> 0,
    and beta/alpha -> 0 with a power-law rate.
    """
    if k_max < 1:
        raise RangeError("k_max must be at least 1")
    if series_class(alpha).convergent:
        raise ConditionError("envelope check needs sum alpha = inf")
    if alpha.decay_exponent <= 0 and alpha.geometric_log_ratio >= 0:
        raise ConditionError("envelope check needs alpha -> 0")
    if beta is None:
        return np.zeros(k_max)
    if ratio_limit(beta, alpha) != "zero":
        raise ConditionError("envelope check needs beta/alpha -> 0")

    ks = np.arange(k_max + 1)
    a = ScheduleExpr.of(alpha).terms(ks)
    b = ScheduleExpr.of(beta).terms(ks)
    ratios = np.empty(k_max)
    v = float(v0)
    for k in range(1, k_max + 1):
        v = (1.0 - a[k - 1]) * v + b[k - 1]
        ratios[k - 1] = v * a[k] / b[k]
    return ratios


def recursion_envelope_ratio(alpha, beta, v0: float, k_max: int) -> float:
    """Max over 1 <= k <= k_max of the recursion envelope ratios."""
    ratios = recursion_envelope_series(alpha, beta, v0, k_max)
    return float(ratios.max()) if ratios.size else 0.0
