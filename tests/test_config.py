from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import run

from dpopt.config import build_setup, load_config, parse_config_text
from dpopt.errors import ConfigError
from dpopt.solvers import VARIANTS, Variant

STATIC_TEXT = """
# static consensus experiment
variant = alg1
problem.seed = 7
problem.agents = 5
problem.measurements = 3
problem.dimension = 2

graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4
graph.edge_weight = 0.2

schedules.stepsize.form = decaying
schedules.stepsize.a = 0.02
schedules.stepsize.b = 0.1
schedules.stepsize.p = 1.0
schedules.coupling.form = decaying
schedules.coupling.a = 1.0
schedules.coupling.b = 0.1
schedules.coupling.p = 0.9

noise.scale.form = growing
noise.scale.a = 1.0
noise.scale.b = 0.1
noise.scale.p = 0.3
noise.seed = 1

run.iterations = 200
run.monte_carlo = 3
run.stride = 10
run.init_radius = 10.0
run.output_dir = out/test
budget.gradient_bound = 1.0
"""

TRACKING_TEXT = """
variant = alg2
graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4

schedules.stepsize.form = decaying
schedules.stepsize.a = 0.02
schedules.stepsize.b = 0.1
schedules.stepsize.p = 1.0
schedules.coupling_state.form = decaying
schedules.coupling_state.a = 1.0
schedules.coupling_state.b = 0.1
schedules.coupling_state.p = 0.9
schedules.coupling_tracker.form = decaying
schedules.coupling_tracker.a = 1.0
schedules.coupling_tracker.b = 0.1
schedules.coupling_tracker.p = 0.7
schedules.tracker_mix.form = decaying
schedules.tracker_mix.a = 0.02
schedules.tracker_mix.b = 0.1
schedules.tracker_mix.p = 1.0

noise.scale.form = growing
noise.scale.a = 1.0
noise.scale.b = 0.1
noise.scale.p = 0.1
"""

PDOP_BLOCK = """
pdop.stepsize.form = geometric
pdop.stepsize.a = 0.02
pdop.stepsize.r = 0.995
pdop.noise.form = geometric
pdop.noise.a = 0.118619
pdop.noise.r = 0.999
"""

# Every schedule block any variant reads, on the static config's graph.
ALL_BLOCKS_TEXT = STATIC_TEXT + "\n".join(
    line for line in TRACKING_TEXT.splitlines()
    if line.startswith(("schedules.coupling_", "schedules.tracker_mix."))
) + PDOP_BLOCK
OPTIONAL_BLOCKS = ("schedules.coupling", "schedules.coupling_state",
                   "schedules.coupling_tracker", "schedules.tracker_mix",
                   "pdop.stepsize", "pdop.noise")


def without_blocks(text: str, *blocks: str) -> str:
    """text without the lines of each `block.*` key."""
    prefixes = tuple(f"{block}." for block in blocks)
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(prefixes))


class TestParse:
    def test_static_round_trip(self):
        config = parse_config_text(STATIC_TEXT)
        assert config.variant == "alg1"
        assert config.agents == 5
        assert config.schedules.stepsize.value(0) == 0.02
        assert config.schedules.coupling.value(0) == 1.0
        assert config.schedules.noise_scale.value(0) == 1.0
        assert config.iterations == 200
        assert config.monte_carlo == 3
        assert config.init_radius == 10.0
        assert config.output_dir == "out/test"

    def test_edge_direction_convention(self):
        config = parse_config_text(STATIC_TEXT)
        # `0>1` means agent 0 sends to agent 1: receiver first in the pair.
        assert (1, 0) in config.edges
        assert (2, 0) in config.edges
        assert (0, 4) in config.edges

    def test_defaults(self):
        config = parse_config_text(TRACKING_TEXT)
        assert config.problem_seed == 7
        assert config.measurements == 3
        assert config.dimension == 2
        assert config.regularization == 0.01
        assert config.edge_weight == 0.2
        assert config.noise_seed == 1
        assert config.iterations == 10_000
        assert config.monte_carlo == 1
        assert config.stride == 10
        assert config.init_radius == 1.0
        assert config.output_dir == "out"
        assert config.gradient_bound == 1.0
        # pull/push graphs fall back to the shared edge list.
        assert config.pull_edges == config.edges
        assert config.push_edges == config.edges

    def test_zero_noise_form(self):
        text = STATIC_TEXT.replace(
            "noise.scale.form = growing", "noise.scale.form = zero"
        ).replace("noise.scale.a = 1.0", "").replace(
            "noise.scale.b = 0.1", ""
        ).replace("noise.scale.p = 0.3", "")
        config = parse_config_text(text)
        assert config.schedules.noise_scale is None

    def test_zero_form_rejected_elsewhere(self):
        text = STATIC_TEXT.replace(
            "schedules.coupling.form = decaying", "schedules.coupling.form = zero"
        )
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert info.value.key == "schedules.coupling.form"

    def test_unknown_key_carries_line(self):
        text = "graph.agents = 5\n" + STATIC_TEXT
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert info.value.key == "graph.agents"
        assert info.value.line == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT + "\nvariant = alg1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("variant alg1\n")
        assert info.value.line == 1

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("variant = alg1",
                                                  "variant = alg9"))

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text(STATIC_TEXT.replace("run.iterations = 200",
                                                  "run.iterations = lots"))
        assert info.value.key == "run.iterations"

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("run.iterations = 200",
                                                  "run.iterations = 2.5"))

    @pytest.mark.parametrize("value", ["1e400", "inf", "nan"])
    def test_non_finite_integer_rejected(self, value):
        with pytest.raises(ConfigError, match="expected an integer") as info:
            parse_config_text(STATIC_TEXT.replace(
                "run.iterations = 200", f"run.iterations = {value}"))
        assert info.value.key == "run.iterations"

    @pytest.mark.parametrize("value,reason", [
        ("1e400", "expected an integer below 2**53"),
        ("-1e400", "expected an integer below 2**53"),
        ("inf", "expected an integer"), ("-inf", "expected an integer"),
        ("nan", "expected an integer"),
    ])
    def test_integer_past_float_range_wording(self, value, reason):
        # 1e400 is whole, but reads as inf; inf and nan have no digits.
        line = "run.iterations = 200"
        with pytest.raises(ConfigError) as info:
            parse_config_text(STATIC_TEXT.replace(
                line, f"run.iterations = {value}"))
        lineno = STATIC_TEXT.splitlines().index(line) + 1
        assert str(info.value) == (f"{reason}, got {value!r} "
                                   f"(line {lineno}, key 'run.iterations')")

    @pytest.mark.parametrize("line", [
        "schedules.stepsize.b = 0.1", "run.init_radius = 10.0",
        "budget.gradient_bound = 1.0",
    ])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_rejected(self, line, value):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match="expected a finite number") \
                as info:
            parse_config_text(STATIC_TEXT.replace(line, f"{key} = {value}"))
        assert info.value.key == key
        assert info.value.line == STATIC_TEXT.splitlines().index(line) + 1

    def test_bad_edge_syntax_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("4>0", "4-0"))
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("4>0", "a>b"))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("run.monte_carlo = 3",
                                                  "run.monte_carlo = 0"))
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("graph.edge_weight = 0.2",
                                                  "graph.edge_weight = -1"))

    def test_range_error_names_line(self):
        line = "run.stride = 10"
        with pytest.raises(ConfigError, match="value out of range") as info:
            parse_config_text(STATIC_TEXT.replace(line, "run.stride = 0"))
        assert info.value.key == "run.stride"
        assert info.value.line == STATIC_TEXT.splitlines().index(line) + 1

    def test_integer_past_2_53_rejected(self):
        line = "noise.seed = 1"
        with pytest.raises(ConfigError, match="below 2\\*\\*53") as info:
            parse_config_text(STATIC_TEXT.replace(
                line, "noise.seed = 9007199254740993"))
        assert info.value.key == "noise.seed"
        assert info.value.line == STATIC_TEXT.splitlines().index(line) + 1
        # Below 2**53 every integer reads exactly.
        config = parse_config_text(STATIC_TEXT.replace(
            line, "noise.seed = 9007199254740991"))
        assert config.noise_seed == 2**53 - 1

    def test_fraction_below_2_53_rejected(self):
        # As a float, 4503599627370496.5 rounds to the integer 2**52.
        line = "noise.seed = 1"
        with pytest.raises(ConfigError, match="expected an integer, got "
                           "'4503599627370496.5'") as info:
            parse_config_text(STATIC_TEXT.replace(
                line, "noise.seed = 4503599627370496.5"))
        assert info.value.key == "noise.seed"
        assert info.value.line == STATIC_TEXT.splitlines().index(line) + 1

    def test_bad_schedule_parameters_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(STATIC_TEXT.replace("schedules.stepsize.a = 0.02",
                                                  "schedules.stepsize.a = 0"))

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("variant = alg1\n")


# Float literals: a sign, underscores, a fraction and an exponent.
LITERALS = st.from_regex(r"[+-]?[0-9]{1,3}(_[0-9]{1,3}){0,5}(\.[0-9]{0,20})?"
                         r"([eE][+-]?[0-9]{1,3})?", fullmatch=True)


@settings(max_examples=500, deadline=None)
@given(literal=LITERALS)
@example(literal="3.00000000000000000001")
@example(literal="1e-400")
def test_integer_keys_read_exactly(literal):
    """An integer key takes a literal whose exact value is a whole
    number below 2**53, and reads that number; decimal is the oracle."""
    exact = Decimal(literal)
    text = STATIC_TEXT.replace("noise.seed = 1", f"noise.seed = {literal}")
    if exact == exact.to_integral_value() and abs(exact) < 2**53:
        assert parse_config_text(text).noise_seed == int(exact)
    else:
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_text(text)


class TestLoad:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(STATIC_TEXT, encoding="utf-8")
        config = load_config(str(path))
        assert config.variant == "alg1"

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))


class TestBuildSetup:
    def test_static_setup_runs(self):
        config = parse_config_text(STATIC_TEXT)
        setup = build_setup(config)
        assert setup.consensus is not None
        assert setup.push_pull is None
        trace = run("alg1", setup, iterations=50, seed=1)
        assert trace.columns["k"][-1] == 50

    def test_tracking_setup_runs(self):
        config = parse_config_text(TRACKING_TEXT)
        setup = build_setup(config)
        assert setup.push_pull is not None
        assert setup.consensus is None
        trace = run("alg2", setup, iterations=50, seed=1)
        assert trace.columns["k"][-1] == 50

    def test_multi_variant_setup_builds_both_weight_kinds(self):
        config = parse_config_text(TRACKING_TEXT)
        setup = build_setup(config, variants=("dgd", "push_pull"))
        assert setup.consensus is not None
        assert setup.push_pull is not None

    def test_variant_requirements_enforced(self):
        tracking = parse_config_text(TRACKING_TEXT)
        static = parse_config_text(STATIC_TEXT)
        stepsize_only = parse_config_text(
            STATIC_TEXT + "pdop.stepsize.form = geometric\n"
            "pdop.stepsize.a = 0.02\npdop.stepsize.r = 0.995\n"
        )
        edges = "graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4"
        static_no_edges = parse_config_text(STATIC_TEXT.replace(edges, ""))
        tracking_no_edges = parse_config_text(TRACKING_TEXT.replace(edges, ""))
        cases = (
            (tracking, "alg1", "schedules.coupling.form"),
            (static, "alg2", "schedules.coupling_state.form"),
            (static, "pdop_alg1", "pdop.stepsize.form"),
            (stepsize_only, "pdop_push_pull", "pdop.stepsize.form"),
            (static_no_edges, "dgd", "graph.edges"),
            (tracking_no_edges, "push_pull", "graph.pull_edges"),
            (static, "nonsense", "variant"),
        )
        for config, variant, key in cases:
            with pytest.raises(ConfigError) as info:
                build_setup(config, variants=(variant,))
            assert info.value.key == key, variant

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_needs_suffice(self, variant):
        needs = Variant.of(variant).needs
        text = without_blocks(ALL_BLOCKS_TEXT, *(
            block for block in OPTIONAL_BLOCKS if block not in needs))
        build_setup(parse_config_text(text), [variant])

    @pytest.mark.parametrize("variant,block", [
        (variant, block) for variant in VARIANTS
        for block in Variant.of(variant).needs
    ])
    def test_each_variant_need_is_required(self, variant, block):
        needs = Variant.of(variant).needs
        config = parse_config_text(without_blocks(ALL_BLOCKS_TEXT, block))
        with pytest.raises(ConfigError) as info:
            build_setup(config, [variant])
        assert info.value.key == f"{needs[0]}.form"
        assert str(info.value).startswith(f"variant {variant} needs ")
        assert all(need in str(info.value) for need in needs)

    def test_missing_edges_rejected(self):
        text = STATIC_TEXT.replace(
            "graph.edges = 0>1, 1>2, 2>3, 3>4, 4>0, 0>2, 1>4", ""
        )
        config = parse_config_text(text)
        with pytest.raises(ConfigError):
            build_setup(config)

    def test_setup_carries_run_parameters(self):
        config = parse_config_text(STATIC_TEXT)
        setup = build_setup(config)
        assert setup.init_radius == 10.0
        assert setup.stride == 10
