"""The two-pass measured difference traces and the bit rules they rest on.

A measured block steps the primal states first and runs the difference
recursion along them second, with stacked products and block-wide
reductions in place of per-iteration calls.  Each rule that keeps those
bits equal to the one-iteration-at-a-time loop is pinned here on its
own, and the whole trace is checked against the loop oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import desk_graph, static_schedules, tracking_schedules
import oracles
from oracles import difference_static_measured, difference_tracking_measured

from dpopt import difference, privacy
from dpopt.difference import (
    _messages,
    _running_max,
    coupled_difference_trace,
)
from dpopt.graphs import build_consensus_weights, build_push_pull_weights
from dpopt.noise import NOISE_CHUNK, laplace_draws
from dpopt.objectives import AdjacentVariant, adjacent_variant, random_instance
from dpopt.solvers import RunSetup, _off_diagonal


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes() \
        and np.array_equal(np.signbit(a), np.signbit(b))


def thetas_of(seed, rows, d, magnitude):
    """Rows of mixed signs and sizes up to magnitude, with one zero row."""
    rng = np.random.default_rng(seed)
    thetas = magnitude * rng.standard_normal((rows, d)) \
        * 10.0 ** rng.uniform(-2, 0, (rows, d))
    thetas[0] = 0.0
    return thetas


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
       s=st.integers(1, 6), d=st.integers(1, 9), rows=st.integers(1, 7),
       magnitude=st.sampled_from([1e-8, 1e-3, 1.0, 37.5, 1e3]),
       reg=st.sampled_from([0.0, 0.01, 1.7]))
def test_local_gradient_equals_the_one_point_oracle(seed, m, s, d, rows,
                                                    magnitude, reg):
    # One point, a (rows, d) stack and a (2, rows, d) stack: every
    # point's gradient is the oracle's bits.
    problem, _ = random_instance(seed, m=m, s=s, d=d, reg=reg)
    thetas = thetas_of(seed, rows, d, magnitude)
    for agent in {0, m - 1}:
        stacked = problem.local_gradient(agent, thetas)
        twice = problem.local_gradient(agent, np.stack([thetas,
                                                        thetas[::-1]]))
        for j, theta in enumerate(thetas):
            want = oracles.local_gradient(problem, agent, theta)
            assert same_bits(problem.local_gradient(agent, theta), want)
            assert same_bits(stacked[j], want)
            assert same_bits(twice[0, j], want)
            assert same_bits(twice[1, rows - 1 - j], want)


class TestAdjacentGradient:
    """AdjacentVariant's gradient and ramp equal the oracle's bit for
    bit, inside, on and outside the ball where the ramp switches on;
    its other agents keep the base gradient."""

    def case(self, d=3, agent=1):
        problem, _ = random_instance(seed=5, m=4, s=3, d=d)
        return adjacent_variant(problem, agent=agent, delta=0.5, eta=2.0)

    def check(self, adjacent, theta):
        got = adjacent.local_gradient(adjacent.agent, theta)
        assert same_bits(got, oracles.adjacent_gradient(
            adjacent, adjacent.agent, theta))
        assert same_bits(adjacent.gradient_difference(theta),
                         oracles.gradient_difference(adjacent, theta))
        other = (adjacent.agent + 1) % adjacent.base.m
        assert same_bits(adjacent.local_gradient(other, theta),
                         oracles.local_gradient(adjacent.base, other, theta))
        return got

    def with_delta(self, adjacent, delta):
        return AdjacentVariant(adjacent.base, adjacent.agent, delta,
                               adjacent.eta, adjacent.center)

    def base_gradient(self, adjacent, theta):
        return oracles.local_gradient(adjacent.base, adjacent.agent, theta)

    def test_at_the_center(self):
        adjacent = self.case()
        got = self.check(adjacent, adjacent.center.copy())
        # Radius 0: the base gradient, and a zero ramp.
        assert same_bits(got, self.base_gradient(adjacent, adjacent.center))
        assert same_bits(adjacent.gradient_difference(adjacent.center),
                         np.zeros(3))

    def test_on_the_surface(self):
        adjacent = self.case()
        theta = adjacent.center + np.array([0.3, -0.2, 0.1])
        radius = float(np.linalg.norm(theta - adjacent.center))
        surface = self.with_delta(adjacent, radius)
        got = self.check(surface, theta)
        # Ramp 0 exactly: the base gradient, signed zeros included.
        assert same_bits(got, self.base_gradient(surface, theta))

    def test_just_outside(self):
        adjacent = self.case()
        theta = adjacent.center + np.array([0.3, -0.2, 0.1])
        radius = float(np.linalg.norm(theta - adjacent.center))
        outside = self.with_delta(adjacent, np.nextafter(radius, 0.0))
        got = self.check(outside, theta)
        assert not same_bits(got, self.base_gradient(outside, theta))

    def test_far_outside(self):
        adjacent = self.case()
        theta = adjacent.center + np.array([40.0, -3.0, 1e-7])
        got = self.check(adjacent, theta)
        assert not same_bits(got, self.base_gradient(adjacent, theta))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 0.4, 0.6, 3.0, 1e3]),
           eta=st.sampled_from([0.1, 1.0, 2.0, 7.3]))
    def test_random_points(self, seed, d, scale, eta):
        # Each point (the first at the center) against the ball of
        # radius 0.5, and against balls whose surface it lies on or
        # just outside.
        problem, _ = random_instance(seed, m=3, s=2, d=d)
        adjacent = adjacent_variant(problem, agent=2, delta=0.5, eta=eta)
        for offset in thetas_of(seed, 6, d, scale):
            theta = adjacent.center + offset
            self.check(adjacent, theta)
            radius = float(np.linalg.norm(theta - adjacent.center))
            if radius > 0.0:
                self.check(self.with_delta(adjacent, radius), theta)
                self.check(self.with_delta(
                    adjacent, np.nextafter(radius, 0.0)), theta)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
       magnitude=st.sampled_from([1e-200, 1e-8, 1.0, 1e150, 1e200]))
def test_norm_is_sqrt_of_dot(seed, d, magnitude):
    # Squares past the largest float overflow to inf on both sides.
    with np.errstate(over="ignore"):
        for offset in thetas_of(seed, 5, d, magnitude):
            assert math.sqrt(offset.dot(offset)) \
                == float(np.linalg.norm(offset))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       d=st.integers(1, 9), k=st.integers(1, 9))
def test_stacked_noise_product_equals_each_product(seed, m, d, k):
    rng = np.random.default_rng(seed)
    W_off = _off_diagonal(rng.uniform(-1, 1, (m, m)))
    zetas = rng.laplace(size=(k, m, d))
    for stacked, zeta in zip(np.matmul(W_off, zetas), zetas):
        assert same_bits(stacked, W_off @ zeta)


def test_block_messages_equal_per_iteration_products():
    # A trace's noise blocks, across a block edge, against each
    # iteration's own draw and product.
    W_off = _off_diagonal(build_consensus_weights(desk_graph(), 0.2).matrix)
    scale = static_schedules().noise_scale
    for ks in (np.arange(NOISE_CHUNK), np.arange(NOISE_CHUNK, NOISE_CHUNK + 3)):
        block = _messages(W_off, scale, 8, "state", ks, 2)
        for k, stacked in zip(ks.tolist(), block):
            zeta = laplace_draws(scale, [8], 5, "state", [k], 2)[0, 0]
            assert same_bits(stacked, W_off @ zeta)


@pytest.mark.parametrize("d", range(1, 10))
def test_row_sums_equal_per_row_sums(d):
    rng = np.random.default_rng(d)
    rows = np.abs(rng.standard_normal((300, d))
                  * 10.0 ** rng.integers(-20, 20, (300, d)))
    rows[0] = np.inf
    rows[1, 0] = np.nan
    assert same_bits(rows.sum(axis=1), [row.sum() for row in rows])


RUNNING_POOL = (0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 1e300, math.inf, math.nan)


def running_max_loop(start, values):
    out, run = [], start
    for v in values:
        run = max(run, float(v))
        out.append(run)
    return out


@settings(max_examples=200, deadline=None)
@given(start=st.sampled_from(RUNNING_POOL),
       values=st.lists(st.sampled_from(RUNNING_POOL), min_size=1,
                       max_size=12))
@example(start=math.nan, values=[1.0, 2.0])
@example(start=1.0, values=[math.nan, math.nan, 0.5, 3.0])
def test_running_max_is_pythons_max(start, values):
    got = _running_max(start, np.array(values))
    assert same_bits(got, running_max_loop(start, values))


def random_setup(kind, d):
    problem, _ = random_instance(seed=10 + d, m=5, s=3, d=d)
    graph = desk_graph()
    if kind == "static":
        return RunSetup(problem, static_schedules(),
                        consensus=build_consensus_weights(graph, 0.2))
    return RunSetup(problem, tracking_schedules(),
                    push_pull=build_push_pull_weights(graph, graph, 0.2))


@pytest.mark.parametrize("agent", [0, 4])
@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_measured_trace_equals_the_loop_oracle(variant, d, agent):
    kind = "tracking" if variant == "alg2" else "static"
    setup = random_setup(kind, d)
    adjacent = adjacent_variant(setup.problem, agent=agent, delta=0.5,
                                eta=2.0)
    iterations = NOISE_CHUNK + 3
    trace = coupled_difference_trace(variant, setup, adjacent, iterations,
                                     seed=d + agent)
    if kind == "static":
        diff, bound = difference_static_measured(variant, setup, adjacent,
                                                 iterations, d + agent)
        assert trace.tracker_diff is None
    else:
        diff, bound, ydiff, ybound = difference_tracking_measured(
            variant, setup, adjacent, iterations, d + agent)
        assert same_bits(trace.tracker_diff, ydiff)
        assert same_bits(trace.tracker_bound, ybound)
    assert same_bits(trace.state_diff, diff)
    assert same_bits(trace.state_bound, bound)
    assert np.any(trace.state_diff > 0)


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_measured_trace_memory_grows_only_by_its_outputs(variant,
                                                         monkeypatch):
    # Smaller accountant and noise blocks keep the horizons short.  Both
    # horizons are past one block of each, so every temporary has the
    # same size at both; the outputs (ks and the diff and bound arrays)
    # hold 8 bytes per iteration each.
    monkeypatch.setattr(privacy, "BLOCK", 1024)
    monkeypatch.setattr(difference, "NOISE_CHUNK", 256)
    kind = "tracking" if variant == "alg2" else "static"
    setup = random_setup(kind, 2)
    adjacent = adjacent_variant(setup.problem, agent=2, delta=0.5, eta=2.0)
    horizons = (1024 + 7, 3 * 1024 + 7)
    peaks = []
    for horizon in horizons:
        tracemalloc.start()
        try:
            trace = coupled_difference_trace(variant, setup, adjacent,
                                             horizon, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outputs = 3 if trace.tracker_diff is None else 5
        del trace
    growth = peaks[1] - peaks[0]
    assert growth <= 8 * outputs * (horizons[1] - horizons[0]), peaks
