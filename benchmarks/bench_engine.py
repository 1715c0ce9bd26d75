"""Layer benchmark on pytest-benchmark: run(), score(), emit_summary() and
the serial reproduction sweep.

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py \
        --benchmark-json=bench.json
    python3 benchmarks/bench_summary.py before.json after.json > BENCH_<n>.json

The file name does not match pytest's test_*.py pattern, so the tier-1
run never collects it. It imports only mpsim's public API, so the same
file times any checkout put on PYTHONPATH. Each cell is the default
topology, 300 steps, seed 0, default AIMD:
- ``test_run``: one run() per strategy at N = 10, 500 and 5000, plus
  N = 100,000 for the strategies whose agents run() steps as one state;
- ``test_score``: one score() of a telemetry built outside the timed
  call, for min_rtt (one distinct window) and epsilon_greedy (many), at
  N = 10 and 500;
- ``test_emit_summary``: the raw CSV of the 49 rows of the sweep below,
  built outside the timed call;
- ``test_sweep_serial``: sweep_agents over the 49-cell reproduction grid
  (every strategy at the default agent counts) with MPSIM_THREADS unset.
"""

import pytest

from mpsim import (
    STRATEGY_NAMES,
    EngineParams,
    SimConfig,
    StrategyKind,
    SweepSpec,
    all_strategies,
    default_topology,
    emit_summary,
    run,
    score,
    sweep_agents,
)

COHORT_STRATEGIES = ("min_rtt", "min_load", "attribute_aware", "blest", "round_robin")
CELLS = [(name, agents) for agents in (10, 500, 5000) for name in STRATEGY_NAMES] + \
        [(name, 100_000) for name in COHORT_STRATEGIES]
SCORE_CELLS = [(name, agents) for agents in (10, 500) for name in ("min_rtt", "epsilon_greedy")]


def cell_config(strategy, agents):
    return SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                     num_agents=agents, engine=EngineParams(steps=300))


def reproduction_grid():
    return SweepSpec(topology=default_topology(), strategies=all_strategies())


@pytest.mark.parametrize("strategy, agents", CELLS,
                         ids=[f"{name}-{agents}" for name, agents in CELLS])
def test_run(benchmark, strategy, agents):
    telemetry = benchmark(run, cell_config(strategy, agents))
    assert len(telemetry.final_cwnds) == agents


@pytest.mark.parametrize("strategy, agents", SCORE_CELLS,
                         ids=[f"{name}-{agents}" for name, agents in SCORE_CELLS])
def test_score(benchmark, strategy, agents):
    telemetry = run(cell_config(strategy, agents))
    scores = benchmark(score, telemetry)
    assert scores.efficiency > 0.0


def test_emit_summary(benchmark, monkeypatch):
    monkeypatch.delenv("MPSIM_THREADS", raising=False)
    rows = sweep_agents(reproduction_grid())
    text = benchmark(emit_summary, rows, raw=True)
    assert text.count("\n") == len(rows) + 1


def test_sweep_serial(benchmark, monkeypatch):
    monkeypatch.delenv("MPSIM_THREADS", raising=False)
    rows = benchmark(sweep_agents, reproduction_grid())
    assert len(rows) == 49
