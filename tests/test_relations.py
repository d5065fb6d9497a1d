"""Exact metamorphic relations of the batched solver.

A known change of the input must give a known change of the output,
bit for bit, with no oracle to restate when the solver's arithmetic
changes.  Both relations here hold under any order of operations: the
record points sample one trajectory, and a run's steps do not depend on
its horizon.

- Stride: the records at stride 10 are every tenth record at stride 1.
- Horizon: the records of a 3,000-iteration run are the first records
  of a 6,000-iteration run.  epsilon_partial is the budget series scaled
  by the whole run's gradient bound, so it is compared only where the
  two runs' gradient bounds are equal.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup

from dpopt.noise import derive_seed
from dpopt.solvers import Variant, run_batch

VARIANTS = ("alg1", "dgd", "alg2", "push_pull")


@functools.lru_cache(maxsize=None)
def setup_at(variant, stride):
    kind = "tracking" if Variant.of(variant).tracking else "static"
    return make_setup(kind, init_radius=10.0, stride=stride)


def batch(variant, stride, iterations, base_seed, n_runs):
    seeds = [derive_seed(base_seed, index) for index in range(n_runs)]
    return run_batch(variant, setup_at(variant, stride), iterations, seeds)


relation = settings(max_examples=15, deadline=None)
cases = dict(variant=st.sampled_from(VARIANTS),
             n_runs=st.sampled_from([1, 3]),
             base_seed=st.integers(0, 2**64 - 1))


@relation
@given(iterations=st.integers(1, 3_000), **cases)
def test_stride_samples_every_record(variant, n_runs, base_seed,
                                     iterations):
    every = batch(variant, 1, iterations, base_seed, n_runs)
    tenth = batch(variant, 10, iterations, base_seed, n_runs)
    for one, ten in zip(every, tenth):
        rows = ten.columns["k"]
        assert np.array_equal(one.columns["k"][rows], rows)
        for name, column in ten.columns.items():
            assert np.array_equal(column, one.columns[name][rows],
                                  equal_nan=True), name
        assert ten.gradient_bound == one.gradient_bound


@relation
@given(**cases)
def test_shorter_horizon_is_a_prefix(variant, n_runs, base_seed):
    short = batch(variant, 10, 3_000, base_seed, n_runs)
    long = batch(variant, 10, 6_000, base_seed, n_runs)
    for a, b in zip(short, long):
        same_bound = a.gradient_bound == b.gradient_bound
        for name, column in a.columns.items():
            if name == "epsilon_partial" and not same_bound:
                continue
            assert np.array_equal(column, b.columns[name][:len(column)],
                                  equal_nan=True), name

