"""Reference implementations the tests check the package against.

Each oracle computes a quantity the slow, obvious way: one agent's
cost from its residual, one agent's gradient at one point and the
adjacent problem's gradient and ramp with np.linalg.norm, the
per-agent solver steps (stacked over agents, as the measured
difference traces take them) with per-agent loops to check them, the
accountant's sensitivity walks collected into whole-horizon arrays,
partial-product closed forms for the
sensitivity recursions, the counter hash on Python ints, one word at a
time, for the counter-based noise, and one iteration at a time, with
its own draws and checks, for the measured difference traces, the
SVG line plot built from whole arrays and element lists, and each CSV
cell formatted from its own value.  None of them is used by the
package itself.
"""

import math

import numpy as np

from dpopt.errors import RangeError
from dpopt.noise import laplace_draws, laplace_inverse_cdf
from dpopt.privacy import _static_walk, _tracking_walk
from dpopt.solvers import _off_diagonal, effective_schedules
from dpopt.svgplot import (
    _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH, PALETTE,
    Series, _element, _fmt, _linear_ticks, _log_ticks, _tick_label,
)


def local_cost(problem, agent, theta):
    """f_i(theta) = ||z_i - M_i theta||^2 + reg ||theta||^2 of one agent."""
    resid = problem.observations[agent] - problem.sensing[agent] @ theta
    return float(resid @ resid + problem.reg * (theta @ theta))


def local_gradient(problem, agent, theta):
    """grad f_i(theta) = 2 M_i^T (M_i theta - z_i) + 2 reg theta of one
    agent at one point theta of shape (d,)."""
    Mi = problem.sensing[agent]
    return 2.0 * Mi.T @ (Mi @ theta - problem.observations[agent]) \
        + 2.0 * problem.reg * theta


def gradient_difference(adjacent, theta):
    """The adjacent problem's ramp g_i - g'_i at theta of shape (d,):
    zero inside the ball, eta (r - delta) toward the center outside."""
    offset = theta - adjacent.center
    radius = float(np.linalg.norm(offset))
    ramp = max(0.0, radius - adjacent.delta)
    if ramp == 0.0 or radius == 0.0:
        return np.zeros_like(offset)
    return -adjacent.eta * ramp * offset / radius


def adjacent_gradient(adjacent, agent, theta):
    """grad f'_agent(theta) of the adjacent problem at theta of shape
    (d,)."""
    g = local_gradient(adjacent.base, agent, theta)
    if agent == adjacent.agent:
        g = g - gradient_difference(adjacent, theta)
    return g


def step_static(x, grads, W, W_off, gamma_k, lam_k, zeta):
    """One static-consensus update in the stacked per-agent form, on
    (m, d) states: the arithmetic the measured difference traces step."""
    return x + gamma_k * (W @ x + W_off @ zeta) - lam_k * grads


def step_tracking(x, y, g_prev, problem, R, R_off, C, C_off,
                  gamma1_k, gamma2_k, alpha_k, lam_k, zeta, xi):
    """One gradient-tracking update in the stacked per-agent form;
    returns (x, y, grads)."""
    x_next = x + gamma1_k * (R @ x + R_off @ zeta) - lam_k * y
    g_next = problem.all_gradients(x_next)
    y_next = (1.0 - alpha_k) * (y - g_prev) \
        + gamma2_k * (C @ y + C_off @ xi) + g_next
    return x_next, y_next, g_next


def step_static_per_agent(x, grads, W, gamma_k, lam_k, zeta):
    """Reference per-agent loop for the static-consensus update."""
    m, d = x.shape
    out = np.empty_like(x)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and W[i, j] != 0.0:
                acc += W[i, j] * (x[j] + zeta[j] - x[i])
        out[i] = x[i] + gamma_k * acc - lam_k * grads[i]
    return out


def step_tracking_per_agent(x, y, g_prev, problem, R, C,
                            gamma1_k, gamma2_k, alpha_k, lam_k, zeta, xi):
    """Reference per-agent loop for the gradient-tracking update."""
    m, d = x.shape
    x_next = np.empty_like(x)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and R[i, j] != 0.0:
                acc += R[i, j] * (x[j] + zeta[j])
        x_next[i] = (1.0 + gamma1_k * R[i, i]) * x[i] + gamma1_k * acc \
            - lam_k * y[i]
    g_next = np.array(
        [local_gradient(problem, i, x_next[i]) for i in range(m)]
    )
    y_next = np.empty_like(y)
    for i in range(m):
        acc = np.zeros(d)
        for j in range(m):
            if j != i and C[i, j] != 0.0:
                acc += C[i, j] * (y[j] + xi[j])
        y_next[i] = (1.0 - alpha_k + gamma2_k * C[i, i]) * y[i] \
            + gamma2_k * acc + g_next[i] - (1.0 - alpha_k) * g_prev[i]
    return x_next, y_next, g_next


def _whole(walk):
    """Each part of a walk over the whole horizon, with s[0] = 0."""
    blocks = [parts for _, *parts in walk]
    return [np.concatenate([[0.0], *column]) for column in zip(*blocks)]


def sensitivity_static(stepsize, coupling, min_coupling, horizon):
    """The accountant's static sensitivity s[k], k = 0..horizon, as one
    array (s[0] = 0)."""
    return _whole(_static_walk(stepsize, coupling, min_coupling, horizon))[0]


def sensitivity_tracking(*walk_args):
    """The accountant's tracking pair (s_x, s_y), each k = 0..horizon,
    from _tracking_walk's arguments."""
    return tuple(_whole(_tracking_walk(*walk_args)))


def sensitivity_static_closed_form(stepsize, coupling, min_coupling, k):
    """Partial-product closed form of the static sensitivity at one k.

    s^k = sum_{p=1..k-1} prod_{q=p..k-1}(1 - wbar gamma^q) lam^{p-1}
          + lam^{k-1}.

    Quadratic in k; an independent reference for the recursion.
    """
    if k < 1:
        raise RangeError("closed form defined for k >= 1")
    total = 0.0
    for p in range(1, k):
        prod = 1.0
        for q in range(p, k):
            prod *= 1.0 - min_coupling * coupling.value(q)
        total += prod * stepsize.value(p - 1)
    return total + stepsize.value(k - 1)


def sensitivity_tracking_closed_form(stepsize, tracker_mix, coupling_state,
                                     coupling_tracker, min_diag_pull,
                                     min_diag_push, k):
    """Partial-product closed forms (s_x^k, s_y^k) at one index."""
    if k < 1:
        raise RangeError("closed form defined for k >= 1")

    def alpha(j):
        return 0.0 if tracker_mix is None else tracker_mix.value(j)

    def sy_at(kk):
        if kk < 1:
            return 0.0
        total = 0.0
        for p in range(1, kk):
            prod = 1.0
            for q in range(p, kk):
                prod *= 1.0 - alpha(q) - min_diag_push * coupling_tracker.value(q)
            total += prod * (2.0 - alpha(p - 1))
        return total + (2.0 - alpha(kk - 1))

    total = 0.0
    for p in range(1, k):
        prod = 1.0
        for q in range(p, k):
            prod *= 1.0 - min_diag_pull * coupling_state.value(q)
        total += prod * stepsize.value(p - 1) * sy_at(p - 1)
    sx = total + stepsize.value(k - 1) * sy_at(k - 1)
    return sx, sy_at(k)


# The counter hash of dpopt.noise, restated on Python ints mod 2**64.
_MASK = 2**64 - 1
_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_SALTS = (0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5,
          0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)
_STREAM_TAGS = {"state": 0, "tracker": 1}


def mix64(x):
    """The 64-bit finalizer on one word."""
    m1, m2, m3 = _MULTIPLIERS
    x = (x + m1) & _MASK
    x = ((x ^ (x >> 30)) * m2) & _MASK
    x = ((x ^ (x >> 27)) * m3) & _MASK
    return x ^ (x >> 31)


def counter_word(seed, agent, stream, iteration, coord):
    """The 64-bit word keyed by (seed, agent, stream, iteration, coord):
    each field, plus one and salted, is xored in and mixed, in order."""
    word = seed & _MASK
    for salt, field in zip(_SALTS, (agent, _STREAM_TAGS[stream],
                                    iteration, coord)):
        word = mix64(word ^ (((field + 1) * salt) & _MASK))
    return word


def open_uniform(word):
    """The top 53 bits of a word, offset by half a step, as a float
    below 1: the top word, which rounds to 1.0, is clamped."""
    return min(((word >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def derive_seed_reference(base_seed, index):
    """The per-run seed of a base seed and a run index."""
    word = (base_seed & _MASK) ^ (((index + 1) * _MULTIPLIERS[1]) & _MASK)
    return mix64(word) & (2**63 - 1)


def sample(scale, seed, agent, stream, iteration, dim):
    """The noise vector `agent` attaches to its message at `iteration`
    under a noise-scale schedule and seed, drawn alone, one word at a
    time; zeros for a None scale."""
    if agent < 0 or iteration < 0 or dim < 1:
        raise RangeError("agent, iteration and dim must be nonnegative")
    if scale is None:
        return np.zeros(dim)
    qs = [open_uniform(counter_word(seed, agent, stream, iteration, c))
          for c in range(dim)]
    return laplace_inverse_cdf(np.array(qs), scale.value(iteration))


def variance(scale, iteration):
    """Per-coordinate message noise variance under a noise-scale
    schedule at an iteration; 0 for a None scale."""
    if scale is None:
        return 0.0
    s = scale.value(iteration)
    return 2.0 * s * s


def _draw(scale, seed, m, stream, k, d):
    """The (m, d) message noise of one run at iteration k alone."""
    return laplace_draws(scale, [seed], m, stream, [k], d)[0, 0]


def difference_static_measured(variant, setup, adjacent, iterations, seed):
    """(diff, bound) of a measured static difference trace, stepped one
    iteration at a time with its shrink factor checked at each k."""
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    W = setup.consensus.matrix
    self_mag = abs(float(W[agent, agent]))
    lam = sch.stepsize.values(np.arange(iterations))
    gam = sch.coupling.values(np.arange(iterations))
    s_bound = sensitivity_static(sch.stepsize, sch.coupling,
                                 setup.consensus.min_diag_mag, iterations)
    diff = np.zeros(iterations + 1)
    bound = np.zeros(iterations + 1)
    problem = setup.problem
    m, d = problem.m, problem.dim
    x = setup.init_radius * np.random.default_rng(seed).standard_normal((m, d))
    W_off = _off_diagonal(W)
    grads = problem.all_gradients(x)
    e = np.zeros(d)
    run_env = 0.0
    for k in range(iterations):
        if 1.0 - self_mag * gam[k] <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
        zeta = _draw(sch.noise_scale, seed, m, "state", k, d)
        gdiff = local_gradient(problem, agent, x[agent]) \
            - adjacent_gradient(adjacent, agent, x[agent] - e)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        e = (1.0 - self_mag * gam[k]) * e - lam[k] * gdiff
        x = step_static(x, grads, W, W_off, gam[k], lam[k], zeta)
        grads = problem.all_gradients(x)
        diff[k + 1] = float(np.abs(e).sum())
        bound[k + 1] = run_env * s_bound[k + 1]
    return diff, bound


def difference_tracking_measured(variant, setup, adjacent, iterations, seed):
    """(xdiff, xbound, ydiff, ybound) of a measured tracking difference
    trace, stepped one iteration at a time with its shrink factors
    checked at each k."""
    sch = effective_schedules(variant, setup)
    agent = adjacent.agent
    weights = setup.push_pull
    R, C = weights.pull, weights.push
    self_pull = abs(float(R[agent, agent]))
    self_push = abs(float(C[agent, agent]))
    idx = np.arange(iterations)
    lam = sch.stepsize.values(idx)
    g1 = sch.coupling_state.values(idx)
    g2 = sch.coupling_tracker.values(idx)
    alpha = np.zeros(iterations) if sch.tracker_mix is None \
        else sch.tracker_mix.values(idx)
    sx_bound, sy_bound = sensitivity_tracking(
        sch.stepsize, sch.tracker_mix, sch.coupling_state,
        sch.coupling_tracker, weights.min_diag_pull, weights.min_diag_push,
        iterations,
    )
    xdiff, xbound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    ydiff, ybound = np.zeros(iterations + 1), np.zeros(iterations + 1)
    problem = setup.problem
    m, d = problem.m, problem.dim
    x = setup.init_radius * np.random.default_rng(seed).standard_normal((m, d))
    R_off, C_off = _off_diagonal(R), _off_diagonal(C)
    grads = problem.all_gradients(x)
    y = grads.copy()
    gdiff_prev = local_gradient(problem, agent, x[agent]) \
        - adjacent_gradient(adjacent, agent, x[agent])
    ex = np.zeros(d)
    ey = np.zeros(d)
    run_env = float(np.abs(gdiff_prev).sum())
    for k in range(iterations):
        shrink_y = 1.0 - alpha[k] - self_push * g2[k]
        shrink_x = 1.0 - self_pull * g1[k]
        if shrink_y <= 0.0 or shrink_x <= 0.0:
            raise RangeError("coupling too strong for the perturbed agent")
        zeta = _draw(sch.noise_scale, seed, m, "state", k, d)
        xi = _draw(sch.noise_scale, seed, m, "tracker", k, d)
        ex_next = shrink_x * ex - lam[k] * ey
        x, y, grads = step_tracking(
            x, y, grads, problem, R, R_off, C, C_off,
            g1[k], g2[k], alpha[k], lam[k], zeta, xi,
        )
        gdiff = local_gradient(problem, agent, x[agent]) \
            - adjacent_gradient(adjacent, agent, x[agent] - ex_next)
        run_env = max(run_env, float(np.abs(gdiff).sum()))
        ey = shrink_y * ey + gdiff - (1.0 - alpha[k]) * gdiff_prev
        ex = ex_next
        xdiff[k + 1] = float(np.abs(ex).sum())
        ydiff[k + 1] = float(np.abs(ey).sum())
        xbound[k + 1] = run_env * sx_bound[k + 1]
        ybound[k + 1] = run_env * sy_bound[k + 1]
        gdiff_prev = gdiff
    return xdiff, xbound, ydiff, ybound


def format_value(value) -> str:
    """One CSV cell: a string as it is, an integer's digits, and the
    shortest round-trip decimal form of anything else, as a float."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def line_plot(
    path: str,
    series: list[Series],
    title: str,
    y_label: str = "value",
) -> None:
    """svgplot.line_plot as it was before it streamed point blocks: every
    range from whole concatenated arrays, every element's text kept in
    lists and written at the end."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # The finite values of every curve and band edge set the y range;
    # the x range is that of the curves' points with finite x and y.
    xs_all, ys_all = [], []
    for s in series:
        xs, ys = np.asarray(s.xs, dtype=float), np.asarray(s.ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            xs_all.append(xs[keep])
        for v in (ys, *(() if s.band is None else s.band)):
            v = np.asarray(v, dtype=float)
            ys_all.append(v[np.isfinite(v)])
    if not xs_all:
        raise ValueError("nothing to plot: every series is empty")
    ys_all = np.concatenate(ys_all)
    floor = float(ys_all[ys_all > 0].min(initial=math.inf))
    if not math.isfinite(floor):
        raise ValueError("log axis needs at least one positive value")
    # Nonpositive values are clamped to half the smallest positive value
    # (or to it, where half is 0), so curves that touch zero stay visible.
    floor = floor / 2.0 or floor

    def ty(values: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(values, floor))

    x_lo = min(float(x.min()) for x in xs_all)
    x_hi = max(float(x.max()) for x in xs_all)
    # Rebound, so that one copy of the values stays alive while the series
    # are drawn: the plot step sets the peak memory of `compare --plot`.
    ys_all = ty(ys_all)
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(t: float) -> float:
        return _MARGIN_T + (1.0 - (t - y_lo) / (y_hi - y_lo)) * plot_h

    def points(xs: np.ndarray, ts: np.ndarray) -> str:
        """SVG points of x values against log10 y values, mapped as
        whole arrays (the per-element operations of px and py)."""
        return " ".join(map("{:.2f},{:.2f}".format, px(xs).tolist(),
                            py(ts).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        '<g font-family="sans-serif" font-size="13" fill="#333333">',
        _element("text", title, x=_WIDTH // 2, y=24, text_anchor="middle",
                 font_size=16),
    ]

    # Gridlines and tick labels.
    for t in _log_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        yy = _fmt(py(t))
        parts.append(_element(
            "line", x1=_MARGIN_L, y1=yy, x2=_WIDTH - _MARGIN_R, y2=yy,
            stroke="#dddddd", stroke_width=1))
        parts.append(_element("text", f"1e{int(round(t))}", x=_MARGIN_L - 8,
                              y=_fmt(py(t) + 4), text_anchor="end"))
    for t in _linear_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        xx = _fmt(px(t))
        parts.append(_element(
            "line", x1=xx, y1=_MARGIN_T, x2=xx, y2=_HEIGHT - _MARGIN_B,
            stroke="#eeeeee", stroke_width=1))
        parts.append(_element("text", _tick_label(t), x=xx,
                              y=_HEIGHT - _MARGIN_B + 20, text_anchor="middle"))

    # Axes.
    parts.append(_element(
        "line", x1=_MARGIN_L, y1=_MARGIN_T, x2=_MARGIN_L,
        y2=_HEIGHT - _MARGIN_B, stroke="#333333", stroke_width=1.5))
    parts.append(_element(
        "line", x1=_MARGIN_L, y1=_HEIGHT - _MARGIN_B, x2=_WIDTH - _MARGIN_R,
        y2=_HEIGHT - _MARGIN_B, stroke="#333333", stroke_width=1.5))
    parts.append(_element("text", "iteration", x=_WIDTH // 2, y=_HEIGHT - 14,
                          text_anchor="middle"))
    mid_y = _fmt(_MARGIN_T + plot_h / 2)
    parts.append(_element("text", y_label, x=20, y=mid_y,
                          text_anchor="middle",
                          transform=f"rotate(-90 20 {mid_y})"))

    # One pass per series; bands go beneath every curve, and the legend
    # sits top right inside the plot area.
    bands, curves, legend = [], [], []
    lx = _WIDTH - _MARGIN_R - 170
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs = np.asarray(s.xs, dtype=float)
        if s.band is not None:
            lower, upper = (np.asarray(e, dtype=float) for e in s.band)
            keep = np.isfinite(lower) & np.isfinite(upper) & np.isfinite(xs)
            if keep.any():
                x = xs[keep]
                # Along the upper edge, then back along the lower one.
                pts = points(np.concatenate([x, x[::-1]]),
                             np.concatenate([ty(upper[keep]),
                                             ty(lower[keep])[::-1]]))
                bands.append(_element("polygon", points=pts, fill=color,
                                      fill_opacity=0.15, stroke="none"))
        ys = np.asarray(s.ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            curves.append(_element(
                "polyline", points=points(xs[keep], ty(ys[keep])),
                fill="none", stroke=color, stroke_width=1.8))
        y0 = _MARGIN_T + 10 + 18 * i
        legend.append(_element("line", x1=lx, y1=y0, x2=lx + 26, y2=y0,
                               stroke=color, stroke_width=2.5))
        legend.append(_element("text", s.label, x=lx + 32, y=y0 + 4))

    parts += [*bands, *curves, *legend, "</g>", "</svg>"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{part}\n" for part in parts)
