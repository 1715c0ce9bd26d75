"""Layer benchmark: one run() per strategy and agent count, on pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py \
        --benchmark-json=bench.json
    python3 benchmarks/bench_summary.py before.json after.json > BENCH_<n>.json

The file name does not match pytest's test_*.py pattern, so the tier-1
run never collects it. It imports only mpsim's public API, so the same
file times any checkout put on PYTHONPATH. Each cell is the default
topology, 300 steps, seed 0, default AIMD; N = 100,000 runs only for the
strategies whose agents run() steps as one state.
"""

import pytest

from mpsim import STRATEGY_NAMES, EngineParams, SimConfig, StrategyKind, default_topology, run

COHORT_STRATEGIES = ("min_rtt", "min_load", "attribute_aware", "blest", "round_robin")
CELLS = [(name, agents) for agents in (10, 500, 5000) for name in STRATEGY_NAMES] + \
        [(name, 100_000) for name in COHORT_STRATEGIES]


@pytest.mark.parametrize("strategy, agents", CELLS,
                         ids=[f"{name}-{agents}" for name, agents in CELLS])
def test_run(benchmark, strategy, agents):
    config = SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                       num_agents=agents, engine=EngineParams(steps=300))
    telemetry = benchmark(run, config)
    assert len(telemetry.final_cwnds) == agents
