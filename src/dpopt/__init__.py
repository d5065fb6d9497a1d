"""Differentially private decentralized optimization toolkit.

Solvers for static-consensus and gradient-tracking updates whose
messages carry Laplace noise, schedule validators for the convergence
and finite-budget conditions, a privacy budget accountant, and a
reproducible Monte Carlo experiment harness with a CLI.
"""

from .cli import main
from .conditions import ConditionEntry, ConditionReport
from .config import ExperimentConfig, build_setup, load_config, parse_config_text
from .difference import DifferenceTrace, coupled_difference_trace
from .errors import (
    ConditionError,
    ConfigError,
    ConnectivityError,
    DegenerateProblemError,
    DpoptError,
    RangeError,
    SpectralError,
    StructureError,
)
from .graphs import (
    ConsensusWeights,
    DirectedGraph,
    PushPullWeights,
    build_consensus_weights,
    build_push_pull_weights,
    spanning_roots,
    validate_consensus_matrix,
    validate_push_pull_graphs,
)
from .harness import (
    Aggregate,
    aggregate,
    budget_account,
    monte_carlo,
    write_breakdown,
    write_csv,
)
from .noise import derive_seed, laplace_inverse_cdf
from .objectives import (
    AdjacentVariant,
    QuadraticEstimationProblem,
    adjacent_variant,
    optimal_solution,
    random_instance,
)
from .privacy import (
    BudgetSeries,
    asymptotic_budget,
    budget_tail_bound,
    conservative_budget,
    infinite_tail,
)
from .schedules import (
    PowerSchedule,
    ScheduleExpr,
    ScheduleSet,
    SeriesResult,
    ratio_limit,
    series_class,
    validate_static_schedules,
    validate_tracking_schedules,
)
from .solvers import (
    RunSetup,
    Trace,
    VARIANTS,
    Variant,
    effective_schedules,
    run_batch,
    validate_for_variant,
)
from .svgplot import Series, line_plot, std_band

__version__ = "0.1.0"
