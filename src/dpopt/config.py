"""Experiment configuration: flat dotted-key text files.

One `key = value` pair per line, full-line comments starting with `#`,
no sections.  Dotted keys group related settings; the full schema is
documented in the README.  Edges are written `sender>receiver` in
config files and stored internally as (receiver, sender) pairs to match
the row-indexes-receivers convention of the coupling matrices.

Unknown keys are rejected so typos fail loudly, and every rejection
carries the offending key and, for a value read from the file, its line
number.  Overrides (`key`, `text`) replace a key's value before it is
read, with the key's own parser, range and messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .errors import ConfigError
from .graphs import (
    DirectedGraph,
    build_consensus_weights,
    build_push_pull_weights,
)
from .objectives import random_instance
from .schedules import PowerSchedule, ScheduleSet
from .solvers import VARIANTS, RunSetup, Variant


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of one experiment config file."""

    variant: str
    problem_seed: int
    agents: int
    measurements: int
    dimension: int
    regularization: float
    measurement_noise_std: float
    edges: tuple[tuple[int, int], ...]
    edge_weight: float
    pull_edges: tuple[tuple[int, int], ...]
    push_edges: tuple[tuple[int, int], ...]
    schedules: ScheduleSet
    pdop_stepsize: PowerSchedule | None
    pdop_noise: PowerSchedule | None
    noise_seed: int
    iterations: int
    monte_carlo: int
    stride: int
    init_radius: float
    output_dir: str
    gradient_bound: float


class _RawConfig:
    """Key-value pairs with line numbers and consumption tracking."""

    def __init__(self, text: str, overrides=()):
        self.pairs: dict[str, tuple[str, int | None]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(
                    "expected `key = value`", line=lineno, key=stripped
                )
            key, _, value = stripped.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError("empty key", line=lineno, key=stripped)
            if key in self.pairs:
                raise ConfigError("duplicate key", line=lineno, key=key)
            self.pairs[key] = (value.strip(), lineno)
        for key, value in overrides:
            self.pairs[key] = (value, None)
        self.consumed: set[str] = set()

    def line(self, key: str) -> int | None:
        pair = self.pairs.get(key)
        return pair[1] if pair else None

    def take(self, key: str, required: bool = False) -> str | None:
        if key not in self.pairs:
            if required:
                raise ConfigError("missing required key", key=key)
            return None
        self.consumed.add(key)
        return self.pairs[key][0]

    def reject_unconsumed(self) -> None:
        for key, (_, lineno) in self.pairs.items():
            if key not in self.consumed:
                raise ConfigError("unknown key", line=lineno, key=key)


def _number(key: str, value: str, line=None) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            f"expected a number, got {value!r}", line=line, key=key
        ) from None


def _to_float(key: str, value: str, line=None) -> float:
    number = _number(key, value, line)
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}",
                          line=line, key=key)
    return number


def _is_whole(literal: str) -> bool:
    """Whether the exact value of a finite float literal is whole, read
    from its digits: as a float, 4503599627370496.5 rounds to a whole
    number.  (decimal would read it too, at 0.5 MB of RSS.)"""
    mantissa, _, exponent = literal.replace("_", "").lower().partition("e")
    whole, _, fraction = mantissa.lstrip("+-").partition(".")
    point = min(max(len(whole) + float(exponent or 0), 0), len(mantissa))
    # float reads a digit string as 0 only when every digit is a zero.
    return float((whole + fraction)[int(point):] or 0) == 0


def _to_int(key: str, value: str, line=None) -> int:
    """An integer below 2**53 in magnitude, where floats hold it exactly;
    1e400 reads as inf, but unlike inf and nan it has digits."""
    number = _number(key, value, line)
    if not any(c.isdigit() for c in value) or not _is_whole(value):
        raise ConfigError(f"expected an integer, got {value!r}", line=line,
                          key=key)
    if not abs(number) < 2**53:
        raise ConfigError(f"expected an integer below 2**53, got {value!r}",
                          line=line, key=key)
    return int(number)


def _check_variant(name: str, line=None) -> str:
    """name, when it names a variant."""
    if name not in VARIANTS:
        raise ConfigError(
            f"unknown variant {name!r}; choose one of {', '.join(VARIANTS)}",
            line=line, key="variant",
        )
    return name


def _parse_edges(key: str, value: str, line=None):
    """`sender>receiver` pairs, comma separated, into (receiver, sender)."""
    edges = []
    if not value:
        return tuple(edges)
    for chunk in value.split(","):
        chunk = chunk.strip()
        if ">" not in chunk:
            raise ConfigError(
                f"edge {chunk!r} must be written sender>receiver",
                line=line, key=key,
            )
        sender_s, _, receiver_s = chunk.partition(">")
        try:
            sender = int(sender_s.strip())
            receiver = int(receiver_s.strip())
        except ValueError:
            raise ConfigError(
                f"edge {chunk!r} must use integer agent indexes",
                line=line, key=key,
            ) from None
        edges.append((receiver, sender))
    return tuple(edges)


def _take_schedule(raw, prefix, required=False, allow_zero=False):
    form = raw.take(f"{prefix}.form", required=required)
    if form is None:
        return None
    if form == "zero":
        if not allow_zero:
            raise ConfigError(
                "form `zero` is only valid for the noise scale",
                line=raw.line(f"{prefix}.form"), key=f"{prefix}.form",
            )
        return None
    kwargs = {}
    for field in ("a", "b", "p", "r"):
        key = f"{prefix}.{field}"
        value = raw.take(key)
        if value is not None:
            kwargs[field] = _to_float(key, value, raw.line(key))
    try:
        return PowerSchedule(form=form, **kwargs)
    except ValueError as exc:
        raise ConfigError(
            str(exc), line=raw.line(f"{prefix}.form"), key=f"{prefix}.form"
        ) from None


def _positive(value, values) -> bool:
    return value > 0


def _non_negative(value, values) -> bool:
    return value >= 0


def _agent_pairs(edges, values) -> bool:
    """Each edge joins two different agents of 0..agents-1."""
    m = values["agents"]
    return all(i != j and 0 <= i < m and 0 <= j < m for i, j in edges)


def _finite_weights(weight, values) -> bool:
    """A positive weight whose row sums, under agents times it, are finite."""
    return weight > 0 and math.isfinite(weight * values["agents"])


# Each plain key in read order: its ExperimentConfig field, parser,
# default (a callable reads it from the values before it) and a range test
# of the value and all values, or None.  The None row reads the schedules.
_KEYS = (
    ("problem.seed", "problem_seed", _to_int, 7, _non_negative),
    ("problem.agents", "agents", _to_int, 5, _positive),
    ("problem.measurements", "measurements", _to_int, 3, _positive),
    ("problem.dimension", "dimension", _to_int, 2, _positive),
    ("problem.regularization", "regularization", _to_float, 0.01,
     _non_negative),
    ("problem.noise_std", "measurement_noise_std", _to_float, 1.0,
     _non_negative),
    ("graph.edges", "edges", _parse_edges, (), _agent_pairs),
    ("graph.edge_weight", "edge_weight", _to_float, 0.2, _finite_weights),
    ("graph.pull_edges", "pull_edges", _parse_edges, itemgetter("edges"),
     _agent_pairs),
    ("graph.push_edges", "push_edges", _parse_edges, itemgetter("edges"),
     _agent_pairs),
    None,
    ("noise.seed", "noise_seed", _to_int, 1, None),
    ("run.iterations", "iterations", _to_int, 10_000, _positive),
    ("run.monte_carlo", "monte_carlo", _to_int, 1, _positive),
    ("run.stride", "stride", _to_int, 10, _positive),
    ("run.init_radius", "init_radius", _to_float, 1.0, _non_negative),
    ("run.output_dir", "output_dir", lambda key, value, line: value, "out",
     None),
    ("budget.gradient_bound", "gradient_bound", _to_float, 1.0, _positive),
)


def parse_config_text(text: str, overrides=()) -> ExperimentConfig:
    raw = _RawConfig(text, overrides)
    values = {"variant": _check_variant(raw.take("variant", required=True),
                                        raw.line("variant"))}
    for row in _KEYS:
        if row is None:
            take = partial(_take_schedule, raw)
            values["schedules"] = ScheduleSet(
                stepsize=take("schedules.stepsize", required=True),
                coupling=take("schedules.coupling"),
                coupling_state=take("schedules.coupling_state"),
                coupling_tracker=take("schedules.coupling_tracker"),
                tracker_mix=take("schedules.tracker_mix"),
                noise_scale=take("noise.scale", required=True,
                                 allow_zero=True),
            )
            values["pdop_stepsize"] = take("pdop.stepsize")
            values["pdop_noise"] = take("pdop.noise")
            continue
        key, field, parse, default, _ = row
        value = raw.take(key)
        if value is not None:
            values[field] = parse(key, value, raw.line(key))
        else:
            values[field] = default(values) if callable(default) else default
    raw.reject_unconsumed()
    for key, field, _, _, in_range in filter(None, _KEYS):
        if in_range and not in_range(values[field], values):
            raise ConfigError("value out of range", line=raw.line(key),
                              key=key)
    return ExperimentConfig(**values)


def load_config(path: str, overrides=()) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", key=path) from None
    return parse_config_text(text, overrides)


def _schedule(config: ExperimentConfig, key: str) -> PowerSchedule | None:
    """The schedule of a `schedules.*` or `pdop.*` block, None if unset."""
    owner = config.schedules if key.startswith("schedules.") else config
    return getattr(owner, key.removeprefix("schedules.").replace(".", "_"))


def _needs(config: ExperimentConfig, specs) -> None:
    """Every schedule block each variant's table row needs (Variant.needs),
    then its family's edge lists."""
    for spec in specs:
        if any(_schedule(config, key) is None for key in spec.needs):
            *rest, last = spec.needs
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"variant {spec.name} needs {listed}",
                              key=f"{spec.needs[0]}.form")
        if config.agents > 1 and not (
            config.pull_edges and config.push_edges if spec.tracking
            else config.edges
        ):
            raise ConfigError(
                "tracking variants need graph.pull_edges and graph.push_edges "
                "(or a shared graph.edges)" if spec.tracking
                else "static variants need graph.edges",
                key="graph.pull_edges" if spec.tracking else "graph.edges",
            )


def build_setup(config: ExperimentConfig, variants=None) -> RunSetup:
    """Materialize the problem and coupling weights for the requested
    variants (default: the config's own variant)."""
    specs = [Variant.of(_check_variant(v))
             for v in ((config.variant,) if variants is None else variants)]
    _needs(config, specs)
    problem, _ = random_instance(
        seed=config.problem_seed,
        m=config.agents,
        s=config.measurements,
        d=config.dimension,
        reg=config.regularization,
        noise_std=config.measurement_noise_std,
    )
    consensus = push_pull = None
    if any(not spec.tracking for spec in specs):
        graph = DirectedGraph(config.agents, frozenset(config.edges))
        consensus = build_consensus_weights(graph, config.edge_weight)
    if any(spec.tracking for spec in specs):
        pull = DirectedGraph(config.agents, frozenset(config.pull_edges))
        push = DirectedGraph(config.agents, frozenset(config.push_edges))
        push_pull = build_push_pull_weights(pull, push, config.edge_weight)
    return RunSetup(
        problem,
        config.schedules,
        consensus=consensus,
        push_pull=push_pull,
        init_radius=config.init_radius,
        stride=config.stride,
        pdop_stepsize=config.pdop_stepsize,
        pdop_noise=config.pdop_noise,
    )
