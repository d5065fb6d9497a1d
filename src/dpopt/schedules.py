"""Iteration-indexed scalar schedules and series convergence tests.

The solvers consume four kinds of scalar sequences: stepsizes, coupling
attenuation factors, tracker mixing factors, and noise scales.  All of
them live in one closed family (power-law decay, power-law growth,
geometric decay, constant), so sums and limits of products and quotients
of schedules can be classified symbolically instead of numerically.
The classification rule is the p-series test: a term behaving like
k^(-e) has a convergent sum iff e > 1, and a geometric decay factor
dominates every power of k.  A decaying or growing schedule with b = 0
is the constant a.

The validators' conditions are the two tables _STATIC_CONDITIONS and
_TRACKING_CONDITIONS of (name, rule) rows.  A rule is `sum P = inf`,
`sum P < inf`, `lim P = 0` or `lim P < inf`, where the product P is
symbols (lam, gamma, gamma1, gamma2, alpha, nu) in the written order,
each with an optional `^power`, and at most one `/` before the divisor,
as in `sum lam^2/gamma1 < inf`.  The rule a report prints is the
expression that was checked.
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
        for field in ("a", "b", "p", "r"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"schedule coefficient {field} must be finite")
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
        """Vectorized evaluation over an integer index array.  A decaying
        or growing schedule with b = 0 is the constant a, also where k**p
        passes the float range, and a decaying one reads its limit 0 there."""
        ks = np.asarray(ks, dtype=float)
        if np.any(ks < 0):
            raise RangeError("iteration indices must be nonnegative")
        if self.form == GEOMETRIC:
            return self.a * self.r**ks
        if self.form == CONSTANT or self.b == 0:
            return np.full_like(ks, self.a)
        if self.form == DECAYING:
            # numpy elides the other forms' temporaries, not a / array.
            with np.errstate(over="ignore"):
                denominator = 1.0 + self.b * ks**self.p
            return np.divide(self.a, denominator, out=denominator)
        return self.a + self.b * ks**self.p

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


# The condition tables (see the module docstring); two rows are shared.
_STEPSIZE_DIVERGES = ("stepsize_sum_diverges", "sum lam = inf")
_BUDGET_FINITE = ("budget_sum_finite", "sum lam/nu < inf")
_STATIC_CONDITIONS = (
    ("coupling_sum_diverges", "sum gamma = inf"),
    _STEPSIZE_DIVERGES,
    ("stepsize_sq_over_coupling_sums", "sum lam^2/gamma < inf"),
    # Per-message variance is 2 nu^2, so the attenuated-variance series
    # for coupling gamma is gamma^2 nu^2 up to the constant factor.
    ("state_noise_attenuation_sums", "sum gamma^2 nu^2 < inf"),
    _BUDGET_FINITE,
)
_TRACKING_CONDITIONS = (
    ("coupling_state_sum_diverges", "sum gamma1 = inf"),
    ("coupling_tracker_sum_diverges", "sum gamma2 = inf"),
    ("coupling_state_sq_sums", "sum gamma1^2 < inf"),
    ("coupling_tracker_sq_sums", "sum gamma2^2 < inf"),
    ("tracker_mix_sum_diverges", "sum alpha = inf"),
    _STEPSIZE_DIVERGES,
    ("stepsize_sq_over_coupling_state_sums", "sum lam^2/gamma1 < inf"),
    ("stepsize_sq_over_coupling_tracker_sums", "sum lam^2/gamma2 < inf"),
    ("stepsize_over_coupling_state_vanishes", "lim lam/gamma1 = 0"),
    ("stepsize_over_coupling_tracker_vanishes", "lim lam/gamma2 = 0"),
    ("stepsize_over_tracker_mix_bounded", "lim lam/alpha < inf"),
    ("tracker_mix_sq_over_coupling_tracker_sums", "sum alpha^2/gamma2 < inf"),
    ("coupling_state_sq_over_coupling_tracker_sums", "sum gamma1^2/gamma2 < inf"),
    ("state_noise_attenuation_sums", "sum gamma1^2 nu^2 < inf"),
    ("tracker_noise_attenuation_sums", "sum gamma2^2 nu^2 < inf"),
    _BUDGET_FINITE,
)
# The ScheduleSet field each rule symbol names.
_SYMBOLS = {"lam": "stepsize", "gamma": "coupling", "gamma1": "coupling_state",
            "gamma2": "coupling_tracker", "alpha": "tracker_mix",
            "nu": "noise_scale"}


def _product(schedules: ScheduleSet, text: str) -> ScheduleExpr:
    """The product a rule writes as e.g. `gamma1^2 nu^2`, its factors in
    the written order."""
    factors = []
    for factor in text.split():
        symbol, _, power = factor.partition("^")
        factors.append((getattr(schedules, _SYMBOLS[symbol]), float(power or 1)))
    return ScheduleExpr(tuple(factors))


def _check(title: str, schedules: ScheduleSet, rows) -> ConditionReport:
    """Report each (name, rule) row of a condition table: a sum rule
    through series_class, a lim rule through ratio_limit.  A rule naming
    an absent schedule (the noise scale of a noiseless run) passes as
    zero noise."""
    report = ConditionReport(title)
    for name, rule in rows:
        kind, rest = rule.split(" ", 1)
        body, relation, _ = rest.rsplit(" ", 2)
        top, _, bottom = body.partition("/")
        num, den = _product(schedules, top), _product(schedules, bottom)
        expr = num / den
        if any(sched is None for sched, _ in expr.factors):
            report.add(name, f"zero noise [{rule}]", 0.0, True)
        elif kind == "lim":
            verdict = ratio_limit(num, den)
            allowed = ("zero",) if relation == "=" else ("zero", "finite")
            report.add(name, f"limit is {verdict} [{rule}]",
                       expr.decay_exponent, verdict in allowed)
        else:
            res = series_class(expr)
            if res.geometric_log_ratio != 0.0:
                test = f"geometric ratio exp({res.geometric_log_ratio:.4g})"
            else:
                test = "p-series exponent vs 1"
            report.add(name, f"{test} [{rule}]", res.decay_exponent,
                       res.convergent == (relation == "<"))
    return report


def validate_static_schedules(schedules: ScheduleSet) -> ConditionReport:
    """Check the static-consensus solver's convergence and privacy
    conditions, _STATIC_CONDITIONS.  A constant coupling is legal but
    draws a warning because it leaves the injected noise unattenuated.
    """
    schedules.require_static()
    report = _check("static-consensus schedule conditions", schedules,
                    _STATIC_CONDITIONS)
    gamma = schedules.coupling
    if gamma.decay_exponent == 0.0 and gamma.geometric_log_ratio == 0.0:
        report.warnings.append(
            "coupling schedule does not decay; injected noise is never attenuated"
        )
    return report


def validate_tracking_schedules(schedules: ScheduleSet) -> ConditionReport:
    """Check the gradient-tracking solver's convergence and privacy
    conditions, _TRACKING_CONDITIONS: beyond the static ones for each
    coupling, square-summable couplings, a divergent tracker-mix sum, a
    stepsize that vanishes against both couplings and stays comparable
    to the tracker mix, and two cross-coupling sums.
    """
    schedules.require_tracking()
    if schedules.tracker_mix is None:
        raise ConditionError("tracking schedule validation needs a tracker mix")
    return _check("gradient-tracking schedule conditions", schedules,
                  _TRACKING_CONDITIONS)
