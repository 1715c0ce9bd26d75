"""Deterministic multipath path-selection simulator with axiomatic scoring."""

from .engine import (
    AgentState,
    AimdParams,
    EngineParams,
    SimConfig,
    StepRecord,
    Telemetry,
    run,
    step,
    timeseries_csv,
)
from .experiment import (
    DEFAULT_AGENT_COUNTS,
    EpsilonPoint,
    SummaryRow,
    SweepSpec,
    all_strategies,
    cell_seed,
    emit_epsilon,
    emit_summary,
    parse_summary_csv,
    sweep_agents,
    sweep_epsilon,
)
from .metrics import (
    AxiomScores,
    jain_fairness,
    loss_avoidance,
    score,
    stability,
)
from .strategy import (
    STRATEGY_NAMES,
    StrategyKind,
    select_attribute_aware,
    select_min_load,
    select_min_rtt,
    wrr_schedule,
)
from .topology import (
    HIGH_COST_TAG,
    PathSpec,
    Topology,
    TopologyError,
    default_topology,
    parse_topology,
    serialize_topology,
)

__version__ = "0.1.0"
