"""Iteration-indexed scalar schedules and series convergence tests.

The solvers consume four kinds of scalar sequences: stepsizes, coupling
attenuation factors, tracker mixing factors, and noise scales.  All of
them live in one closed family (power-law decay, power-law growth,
geometric decay, constant), so sums and limits of products and quotients
of schedules can be classified symbolically instead of numerically.
The classification rule is the p-series test: a term behaving like
k^(-e) has a convergent sum iff e > 1, and a geometric decay factor
dominates every power of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ConditionReport
from .errors import ConditionError, RangeError

DECAYING = "decaying"
GROWING = "growing"
GEOMETRIC = "geometric"
CONSTANT = "constant"

_FORMS = (DECAYING, GROWING, GEOMETRIC, CONSTANT)


@dataclass(frozen=True)
class PowerSchedule:
    """A positive scalar sequence indexed by the iteration counter k >= 0.

    Forms:
        decaying   a / (1 + b * k**p)
        growing    a + b * k**p
        geometric  a * r**k
        constant   a
    """

    form: str
    a: float
    b: float = 0.0
    p: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown schedule form {self.form!r}")
        if not self.a > 0:
            raise ValueError("schedule coefficient a must be positive")
        if self.form in (DECAYING, GROWING):
            if self.b < 0:
                raise ValueError("schedule coefficient b must be nonnegative")
            if self.p < 0:
                raise ValueError("schedule exponent p must be nonnegative")
        if self.form == GEOMETRIC and not 0.0 < self.r < 1.0:
            raise ValueError("geometric ratio r must lie in (0, 1)")

    @classmethod
    def decaying(cls, a: float, b: float, p: float) -> "PowerSchedule":
        return cls(DECAYING, a=a, b=b, p=p)

    @classmethod
    def growing(cls, a: float, b: float, p: float) -> "PowerSchedule":
        return cls(GROWING, a=a, b=b, p=p)

    @classmethod
    def geometric(cls, a: float, r: float) -> "PowerSchedule":
        return cls(GEOMETRIC, a=a, r=r)

    @classmethod
    def constant(cls, a: float) -> "PowerSchedule":
        return cls(CONSTANT, a=a)

    def value(self, k: int) -> float:
        """values() at one index, so both give the same bits."""
        return float(self.values([k])[0])

    def values(self, ks: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an integer index array."""
        ks = np.asarray(ks, dtype=float)
        if np.any(ks < 0):
            raise RangeError("iteration indices must be nonnegative")
        if self.form == DECAYING:
            # numpy elides the other forms' temporaries, not a / array.
            denominator = 1.0 + self.b * ks**self.p
            return np.divide(self.a, denominator, out=denominator)
        if self.form == GROWING:
            return self.a + self.b * ks**self.p
        if self.form == GEOMETRIC:
            return self.a * self.r**ks
        return np.full_like(ks, self.a)

    @property
    def peak(self) -> float:
        """Largest value over k >= 0: inf for a growing schedule that
        grows, value(0) for every other, which never increases."""
        if self.form == GROWING and self.b > 0 and self.p > 0:
            return math.inf
        return self.value(0)

    @property
    def decay_exponent(self) -> float:
        """e such that value(k) ~ k**(-e) up to constants; 0 for geometric."""
        if self.form == DECAYING:
            return self.p if self.b > 0 else 0.0
        if self.form == GROWING:
            return -self.p if self.b > 0 else 0.0
        return 0.0

    def power_bounds(self) -> tuple[float, float, float] | None:
        """(e, lo, hi) with lo * k**(-e) <= value(k) <= hi * k**(-e) for
        all k >= 1, hi tight in the limit.  None for geometric schedules,
        which fall outside the power-law family.

        The decaying form satisfies a/((1+b) k^p) <= a/(1+b k^p) <= a/(b k^p)
        and the growing form b k^p <= a + b k^p <= (a+b) k^p, both because
        k^p >= 1 once k >= 1.
        """
        if self.form == GEOMETRIC:
            return None
        if self.form == DECAYING and self.b > 0 and self.p > 0:
            return self.p, self.a / (1.0 + self.b), self.a / self.b
        if self.form == GROWING and self.b > 0 and self.p > 0:
            return -self.p, self.b, self.a + self.b
        c = self.value(1)
        return 0.0, c, c

    @property
    def geometric_log_ratio(self) -> float:
        """log r for geometric schedules, 0 otherwise."""
        return math.log(self.r) if self.form == GEOMETRIC else 0.0

    def __mul__(self, other):
        return ScheduleExpr.of(self) * other

    def __truediv__(self, other):
        return ScheduleExpr.of(self) / other

    def __pow__(self, exponent):
        return ScheduleExpr.of(self) ** exponent


@dataclass(frozen=True)
class SeriesResult:
    convergent: bool
    decay_exponent: float
    geometric_log_ratio: float


@dataclass(frozen=True)
class ScheduleExpr:
    """A product of schedules raised to real powers.

    Built with the *, / and ** operators, e.g. ``lam**2 / gamma``.
    """

    factors: tuple[tuple[PowerSchedule, float], ...]

    @classmethod
    def of(cls, sched) -> "ScheduleExpr":
        if isinstance(sched, ScheduleExpr):
            return sched
        if isinstance(sched, PowerSchedule):
            return cls(((sched, 1.0),))
        raise TypeError(f"cannot build a schedule expression from {type(sched)!r}")

    def _combine(self, other, sign: float) -> "ScheduleExpr":
        other = ScheduleExpr.of(other)
        scaled = tuple((s, sign * e) for s, e in other.factors)
        return ScheduleExpr(self.factors + scaled)

    def __mul__(self, other):
        return self._combine(other, 1.0)

    def __truediv__(self, other):
        return self._combine(other, -1.0)

    def __pow__(self, exponent) -> "ScheduleExpr":
        exponent = float(exponent)
        return ScheduleExpr(tuple((s, e * exponent) for s, e in self.factors))

    def term(self, k: int) -> float:
        """terms() at one index, so both give the same bits."""
        return float(self.terms([k])[0])

    def terms(self, ks: np.ndarray) -> np.ndarray:
        out = np.ones(np.shape(ks), dtype=float)
        for sched, e in self.factors:
            out *= sched.values(ks) ** e
        return out

    @property
    def decay_exponent(self) -> float:
        return sum(e * s.decay_exponent for s, e in self.factors)

    @property
    def geometric_log_ratio(self) -> float:
        return sum(e * s.geometric_log_ratio for s, e in self.factors)

    def power_envelope(self) -> tuple[float, float] | None:
        """(e, A) with term(k) <= A * k**(-e) for all k >= 1.

        Factors raised to positive powers contribute their upper power
        bound, factors in the denominator their lower bound.  None when
        any geometric factor is present (no power-law envelope exists).
        """
        exponent = 0.0
        constant = 1.0
        for sched, e in self.factors:
            bounds = sched.power_bounds()
            if bounds is None:
                return None
            d, lo, hi = bounds
            exponent += e * d
            try:
                constant *= (hi if e > 0 else lo) ** e
            except OverflowError:
                # A subnormal coefficient (b = 5e-324) puts the bound
                # past the float range: the envelope is unbounded.
                constant = math.inf
        return exponent, constant


def series_class(expr) -> SeriesResult:
    """Classify sum_k expr(k) by the p-series test.

    A net geometric decay factor makes the sum convergent regardless of
    power-law factors; net geometric growth makes it divergent.  Pure
    power-law terms ~ k^(-e) converge iff e > 1 (e = 1 is the harmonic
    boundary and diverges).  The closed family never produces the
    logarithmic corrections that would leave the verdict open.
    """
    expr = ScheduleExpr.of(expr)
    e = expr.decay_exponent
    g = expr.geometric_log_ratio
    return SeriesResult(g < 0 or (not g > 0 and e > 1.0), e, g)


def ratio_limit(num, den) -> str:
    """Classify lim_k num(k)/den(k) as 'zero', 'finite' or 'infinite'."""
    expr = ScheduleExpr.of(num) / den
    g = expr.geometric_log_ratio
    if g < 0:
        return "zero"
    if g > 0:
        return "infinite"
    e = expr.decay_exponent
    if e > 0:
        return "zero"
    if e == 0:
        return "finite"
    return "infinite"


@dataclass(frozen=True)
class ScheduleSet:
    """The full schedule bundle for one solver run.

    Static-consensus runs use (stepsize, coupling, noise_scale).
    Gradient-tracking runs use (stepsize, tracker_mix, coupling_state,
    coupling_tracker, noise_scale).  noise_scale may be None for
    noiseless runs; tracker_mix may be None for a plain tracker.
    """

    stepsize: PowerSchedule
    coupling: PowerSchedule | None = None
    coupling_state: PowerSchedule | None = None
    coupling_tracker: PowerSchedule | None = None
    tracker_mix: PowerSchedule | None = None
    noise_scale: PowerSchedule | None = None

    def require_static(self) -> None:
        if self.coupling is None:
            raise ConditionError("schedule set lacks a coupling schedule")

    def require_tracking(self) -> None:
        if self.coupling_state is None or self.coupling_tracker is None:
            raise ConditionError(
                "schedule set lacks the state/tracker coupling pair"
            )


def _sum_entry(report, name, expr, want_convergent, statement):
    res = series_class(expr)
    ok = res.convergent if want_convergent else not res.convergent
    if res.geometric_log_ratio != 0.0:
        rule = f"geometric ratio exp({res.geometric_log_ratio:.4g}) [{statement}]"
    else:
        rule = f"p-series exponent vs 1 [{statement}]"
    report.add(name, rule, res.decay_exponent, ok)


def _limit_entry(report, name, num, den, allowed, statement):
    verdict = ratio_limit(num, den)
    expr = ScheduleExpr.of(num) / den
    report.add(
        name,
        f"limit is {verdict} [{statement}]",
        expr.decay_exponent,
        verdict in allowed,
    )


def _noise_entries(report, gammas, nu):
    # Per-message variance is 2 nu^2, so the attenuated-variance series
    # for coupling gamma is gamma^2 * nu^2 up to the constant factor.
    for name, gamma, statement in gammas:
        if nu is None:
            report.add(name, f"zero noise [{statement}]", 0.0, True)
        else:
            _sum_entry(report, name, gamma**2 * nu**2, True, statement)


def _budget_entry(report, stepsize, nu):
    if nu is None:
        report.add("budget_sum_finite", "zero noise [sum lam/nu < inf]", 0.0, True)
    else:
        _sum_entry(
            report, "budget_sum_finite", ScheduleExpr.of(stepsize) / nu, True,
            "sum lam/nu < inf",
        )


def validate_static_schedules(schedules: ScheduleSet) -> ConditionReport:
    """Check the convergence and privacy conditions for the
    static-consensus solver.

    Conditions: the coupling and stepsize sums must diverge, the
    stepsize-squared-over-coupling sum must converge, the attenuated
    noise variance sum must converge, and the privacy budget series
    must converge.  A constant coupling is legal but draws a warning
    because it leaves the injected noise unattenuated.
    """
    schedules.require_static()
    lam, gamma, nu = schedules.stepsize, schedules.coupling, schedules.noise_scale
    report = ConditionReport("static-consensus schedule conditions")
    _sum_entry(report, "coupling_sum_diverges", gamma, False, "sum gamma = inf")
    _sum_entry(report, "stepsize_sum_diverges", lam, False, "sum lam = inf")
    _sum_entry(
        report, "stepsize_sq_over_coupling_sums", lam**2 / gamma, True,
        "sum lam^2/gamma < inf",
    )
    _noise_entries(
        report, [("state_noise_attenuation_sums", gamma, "sum gamma^2 nu^2 < inf")],
        nu,
    )
    _budget_entry(report, lam, nu)
    if gamma.decay_exponent == 0.0 and gamma.geometric_log_ratio == 0.0:
        report.warnings.append(
            "coupling schedule does not decay; injected noise is never attenuated"
        )
    return report


def validate_tracking_schedules(schedules: ScheduleSet) -> ConditionReport:
    """Check the convergence and privacy conditions for the
    gradient-tracking solver on directed graphs.

    Beyond the static-consensus conditions (applied to each coupling),
    the tracker needs square-summable couplings, a divergent tracker-mix
    sum, a stepsize that vanishes relative to both couplings, a stepsize
    comparable to the tracker mix, and two cross-coupling summability
    conditions.
    """
    schedules.require_tracking()
    lam = schedules.stepsize
    alpha = schedules.tracker_mix
    g1 = schedules.coupling_state
    g2 = schedules.coupling_tracker
    nu = schedules.noise_scale
    if alpha is None:
        raise ConditionError("tracking schedule validation needs a tracker mix")
    report = ConditionReport("gradient-tracking schedule conditions")
    _sum_entry(report, "coupling_state_sum_diverges", g1, False, "sum gamma1 = inf")
    _sum_entry(report, "coupling_tracker_sum_diverges", g2, False, "sum gamma2 = inf")
    _sum_entry(report, "coupling_state_sq_sums", g1**2, True, "sum gamma1^2 < inf")
    _sum_entry(report, "coupling_tracker_sq_sums", g2**2, True, "sum gamma2^2 < inf")
    _sum_entry(report, "tracker_mix_sum_diverges", alpha, False, "sum alpha = inf")
    _sum_entry(report, "stepsize_sum_diverges", lam, False, "sum lam = inf")
    _sum_entry(
        report, "stepsize_sq_over_coupling_state_sums", lam**2 / g1, True,
        "sum lam^2/gamma1 < inf",
    )
    _sum_entry(
        report, "stepsize_sq_over_coupling_tracker_sums", lam**2 / g2, True,
        "sum lam^2/gamma2 < inf",
    )
    _limit_entry(
        report, "stepsize_over_coupling_state_vanishes", lam, g1, ("zero",),
        "lim lam/gamma1 = 0",
    )
    _limit_entry(
        report, "stepsize_over_coupling_tracker_vanishes", lam, g2, ("zero",),
        "lim lam/gamma2 = 0",
    )
    _limit_entry(
        report, "stepsize_over_tracker_mix_bounded", lam, alpha,
        ("zero", "finite"), "lim lam/alpha < inf",
    )
    _sum_entry(
        report, "tracker_mix_sq_over_coupling_tracker_sums", alpha**2 / g2, True,
        "sum alpha^2/gamma2 < inf",
    )
    _sum_entry(
        report, "coupling_state_sq_over_coupling_tracker_sums", g1**2 / g2, True,
        "sum gamma1^2/gamma2 < inf",
    )
    _noise_entries(
        report,
        [
            ("state_noise_attenuation_sums", g1, "sum gamma1^2 nu^2 < inf"),
            ("tracker_noise_attenuation_sums", g2, "sum gamma2^2 nu^2 < inf"),
        ],
        nu,
    )
    _budget_entry(report, lam, nu)
    return report

