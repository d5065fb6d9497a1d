"""Shared builders for the test suite.

Most tests exercise the same small estimation instance on the same
five-agent graph; these helpers build that fixture in one place so the
numbers quoted in individual tests stay tied to a single construction.
"""

import numpy as np

from dpopt.graphs import (
    DirectedGraph,
    build_consensus_weights,
    build_push_pull_weights,
)
from dpopt.objectives import random_instance
from dpopt.schedules import PowerSchedule, ScheduleSet
from dpopt.solvers import RunSetup

DESK_EDGES = frozenset(
    {(1, 0), (2, 1), (3, 2), (4, 3), (0, 4), (2, 0), (4, 1)}
)


def desk_graph() -> DirectedGraph:
    return DirectedGraph(5, DESK_EDGES)


def static_schedules(noise: bool = True) -> ScheduleSet:
    return ScheduleSet(
        stepsize=PowerSchedule.decaying(0.02, 0.1, 1.0),
        coupling=PowerSchedule.decaying(1.0, 0.1, 0.9),
        noise_scale=PowerSchedule.growing(1.0, 0.1, 0.3) if noise else None,
    )


def tracking_schedules(noise: bool = True) -> ScheduleSet:
    return ScheduleSet(
        stepsize=PowerSchedule.decaying(0.02, 0.1, 1.0),
        coupling_state=PowerSchedule.decaying(1.0, 0.1, 0.9),
        coupling_tracker=PowerSchedule.decaying(1.0, 0.1, 0.7),
        tracker_mix=PowerSchedule.decaying(0.02, 0.1, 1.0),
        noise_scale=PowerSchedule.growing(1.0, 0.1, 0.1) if noise else None,
    )


def make_setup(kind: str = "static", noise: bool = True, pdop: bool = False,
               **kwargs) -> RunSetup:
    problem, _ = random_instance(seed=7, m=5, s=3, d=2)
    graph = desk_graph()
    fields = dict(kwargs)
    if pdop:
        fields.setdefault("pdop_stepsize", PowerSchedule.geometric(0.02, 0.995))
        fields.setdefault("pdop_noise", PowerSchedule.geometric(0.118619, 0.999))
    if kind == "static":
        return RunSetup(
            problem, static_schedules(noise),
            consensus=build_consensus_weights(graph, 0.2), **fields,
        )
    if kind == "tracking":
        return RunSetup(
            problem, tracking_schedules(noise),
            push_pull=build_push_pull_weights(graph, graph, 0.2), **fields,
        )
    raise ValueError(f"unknown kind {kind!r}")
