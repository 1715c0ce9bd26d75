"""The benchmark's four workloads.

Each workload is built once from the benchmark seed and the parsed
topology (that is the set-up the benchmark times), then run as many
passes as the measuring window allows. A pass returns the text the user
would get: a full-precision CSV. All workloads are serial
(MPSIM_THREADS unset), single-process, default topology, 300 steps.

Calls into mpsim go through module attributes looked up at call time
(``mpsim.run``, ``mpsim.cli.main``, ...) so that the instrumentation in
``instrument.py`` can rebind them.
"""

import io
import time
from contextlib import redirect_stdout

import mpsim
from mpsim.experiment import SummaryRow

STEPS = 300
SHARED_CHOICE = ("min_rtt", "min_load", "attribute_aware", "blest")
EPSILONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
SMALL_POP_SEEDS = 16


class ReproGrid:
    """`mpsim sweep --all-strategies --raw`, driven in-process through the CLI.

    The paper's reproduction command: 49 cells, N = 10..500. No single
    module dominates, so it shows whether a gain in one layer reaches the
    user. The only workload that goes through ``cli``.
    """

    name = "repro_grid"

    def __init__(self, seed, topology):
        import mpsim.cli  # noqa: F401  (part of this workload's set-up)
        self.argv = ["sweep", "--all-strategies", "--raw", "--seed", str(seed)]
        counts = mpsim.DEFAULT_AGENT_COUNTS
        self.cells = len(mpsim.STRATEGY_NAMES) * len(counts)
        self.agent_steps = len(mpsim.STRATEGY_NAMES) * sum(counts) * STEPS

    def run_pass(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = mpsim.cli.main(self.argv)
        if status != 0:
            raise RuntimeError(f"mpsim {' '.join(self.argv)} exited {status}")
        return buffer.getvalue()


class Herd2000:
    """run() + score() for the four shared-choice strategies at N = 2000.

    The choice is computed once per step, so ``strategy`` is called 300
    times per cell while ``engine`` aggregates and updates 600 k
    agent-steps: the workload a cohort engine should win. At N = 5000 the
    agents outgrow a core's own cache, and on a shared host the fastest
    pass then varied 2x between runs; at N = 2000 it stays steady.
    """

    name = "herd_2000"
    agents = 2000

    def __init__(self, seed, topology):
        self.configs = [
            mpsim.SimConfig(
                topology=topology,
                strategy=mpsim.StrategyKind(name),
                num_agents=self.agents,
                engine=mpsim.EngineParams(steps=STEPS),
                seed=mpsim.cell_seed(seed, name, self.agents),
            )
            for name in SHARED_CHOICE
        ]
        self.cells = len(self.configs)
        self.agent_steps = self.cells * self.agents * STEPS

    def run_pass(self):
        rows = []
        for config in self.configs:
            scores = mpsim.score(mpsim.run(config))
            rows.append(SummaryRow(
                strategy=config.strategy.name,
                agents=config.num_agents,
                oscillation=scores.oscillation,
                loss=scores.loss,
                fairness=scores.fairness,
                efficiency=scores.efficiency,
                stability=scores.stability,
                loss_avoidance=scores.loss_avoidance,
            ))
        return mpsim.emit_summary(rows, raw=True)


class Explore500:
    """sweep_epsilon + emit_epsilon for six epsilons at N = 500.

    Every agent draws from its own RNG and calls the selector every step,
    so ``strategy`` and per-agent RNG seeding in run() dominate; a cohort
    engine that keeps per-agent draws should gain little here.
    """

    name = "explore_500"
    agents = 500

    def __init__(self, seed, topology):
        self.seed = seed
        self.topology = topology
        self.cells = len(EPSILONS)
        self.agent_steps = self.cells * self.agents * STEPS

    def run_pass(self):
        points = mpsim.sweep_epsilon(EPSILONS, self.agents, self.topology,
                                     steps=STEPS, seed=self.seed)
        return mpsim.emit_epsilon(points, raw=True)


class SmallPop:
    """All 7 strategies at N = 10 over 16 seeds via sweep_agents + emit_summary.

    Per-agent work is tiny, so per-step and per-cell fixed costs dominate:
    an engine that adds per-step overhead shows up here first.
    """

    name = "small_pop"
    agents = 10

    def __init__(self, seed, topology):
        self.specs = [
            mpsim.SweepSpec(topology=topology, strategies=mpsim.all_strategies(),
                            agent_counts=(self.agents,), steps=STEPS,
                            seed=seed * SMALL_POP_SEEDS + k)
            for k in range(SMALL_POP_SEEDS)
        ]
        self.cells = len(self.specs) * len(mpsim.STRATEGY_NAMES)
        self.agent_steps = self.cells * self.agents * STEPS

    def run_pass(self):
        return "".join(mpsim.emit_summary(mpsim.sweep_agents(spec), raw=True)
                       for spec in self.specs)


WORKLOADS = {w.name: w for w in (ReproGrid, Herd2000, Explore500, SmallPop)}


def set_up(name, seed):
    """The timed set-up after importing mpsim: parse the topology
    (serialize_topology -> parse_topology) and build the workload's
    configs. Returns (workload, milliseconds spent parsing)."""
    text = mpsim.serialize_topology(mpsim.default_topology())
    start = time.perf_counter()
    topology = mpsim.parse_topology(text)
    parse_ms = (time.perf_counter() - start) * 1e3
    return WORKLOADS[name](seed, topology), parse_ms
