"""Instrumentation installed from outside mpsim, one pass at a time.

Nothing here edits mpsim: each recorder rebinds public functions in the
modules that call them and restores the originals when the pass ends.

- ``Probe`` is the end-to-end instrumentation of untraced passes. It
  times each run() call and each cell, and cuts the pass into chunks
  between which the calibration kernel measures the host's speed: a few
  clock reads per cell. With ``capture`` it also keeps every Telemetry
  and counts distinct (cwnd, chosen_path) cohorts after each step;
  capture passes are never timed and never calibrated.
- ``Tracer`` records spans with parent ids at the pass, cli, sweep,
  cell, run, step, score and emit boundaries, and call counts plus
  summed nanoseconds for the calls made per agent or per path
  (selectors, update_cwnd, rtt_instantaneous).
"""

import sys
import time
from contextlib import contextmanager

import calibrate
import mpsim
import mpsim.engine

ns = time.perf_counter_ns

# Modules whose bindings of the cell-level functions are replaced: the
# package (used by the benchmark itself), the CLI and the sweeps.
CALLER_MODULES = ("mpsim", "mpsim.cli", "mpsim.experiment")
SWEEPS = ("sweep_agents", "sweep_epsilon")
EMITTERS = ("emit_summary", "emit_epsilon")


def _rebind(name, wrapper):
    """Map every caller binding of the public mpsim function ``name`` to ``wrapper``."""
    original = getattr(mpsim, name)
    modules = (sys.modules.get(module_name) for module_name in CALLER_MODULES)
    return {(module, name): wrapper for module in modules
            if module is not None and getattr(module, name, None) is original}


@contextmanager
def installed(wrappers):
    """Rebind each (module, name) to its wrapper for the duration of the block."""
    saved = [(module, name, getattr(module, name)) for module, name in wrappers]
    try:
        for (module, name), wrapper in wrappers.items():
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


class Probe:
    """Raw time per chunk of an untraced pass, with the host's speed around it.

    A pass is cut into chunks of whole cells, each at least
    ``calibrate.CHUNK_NS`` long. After each chunk, outside its time, the
    calibration kernel runs (``calibrate.block``), and measure.py runs it
    before and after the pass too. Each chunk keeps its wall time, its
    time inside run() and its cells' latencies (from the previous cell's
    score() exit, the sweep entry or the chunk start, whichever is last,
    to the cell's own score() exit), so every figure can be scaled by the
    calibrations on either side of its chunk. This costs a few clock
    reads per cell.
    """

    def __init__(self, capture=False):
        self.capture = capture
        self.runs = 0
        self.scores = 0
        self.agent_steps = 0
        self.chunks = []
        self.calibrations = []
        self.telemetries = []
        self.cohorts = 0
        self.cohort_steps = 0
        self._chunk = None
        self._boundary = 0

    def _open_chunk(self):
        self._chunk = {"start": ns(), "wall_ns": 0, "run_ns": 0, "cell_ns": []}
        self._boundary = self._chunk["start"]

    def _close_chunk(self):
        chunk = self._chunk
        chunk["wall_ns"] = ns() - chunk.pop("start")
        self.chunks.append(chunk)

    @contextmanager
    def pass_scope(self):
        self._open_chunk()
        yield
        self._close_chunk()

    def wrappers(self):
        real_run, real_score, real_step = mpsim.run, mpsim.score, mpsim.engine.step

        def run(config):
            start = ns()
            telemetry = real_run(config)
            self._chunk["run_ns"] += ns() - start
            self.runs += 1
            self.agent_steps += config.num_agents * config.engine.steps
            if self.capture:
                self.telemetries.append(telemetry)
            return telemetry

        def score(telemetry):
            result = real_score(telemetry)
            now = ns()
            chunk = self._chunk
            chunk["cell_ns"].append(now - self._boundary)
            self._boundary = now
            self.scores += 1
            if not self.capture and now - chunk["start"] >= calibrate.CHUNK_NS:
                self._close_chunk()
                self.calibrations.append(calibrate.block())
                self._open_chunk()
            return result

        def sweep(original):
            def wrapped(*args, **kwargs):
                self._boundary = ns()
                return original(*args, **kwargs)
            return wrapped

        def step(agents, *args, **kwargs):
            record = real_step(agents, *args, **kwargs)
            self.cohorts += len({(agent.cwnd, agent.chosen_path) for agent in agents})
            self.cohort_steps += 1
            return record

        wrappers = {**_rebind("run", run), **_rebind("score", score)}
        for name in SWEEPS:
            wrappers.update(_rebind(name, sweep(getattr(mpsim, name))))
        if self.capture:
            wrappers[(mpsim.engine, "step")] = step
        return wrappers

    def scaled(self, before, after):
        """The pass's wall time, time inside run() and cell latencies, each
        chunk scaled to the reference host speed by the mean of the
        calibrations on either side of it (``before`` and ``after`` are
        those taken just before and after the pass)."""
        calibrations = [before, *self.calibrations, after]
        wall = run = 0.0
        cells = []
        for index, chunk in enumerate(self.chunks):
            factor = 2 * calibrate.REFERENCE_NS / (calibrations[index] + calibrations[index + 1])
            wall += chunk["wall_ns"] * factor
            run += chunk["run_ns"] * factor
            cells.extend(cell * factor for cell in chunk["cell_ns"])
        return wall, run, cells


SELECTORS = ("select_min_rtt", "select_min_load", "select_attribute_aware",
             "select_blest", "select_round_robin", "select_wrr",
             "select_epsilon_greedy")

# Span names, one per boundary.
PASS, MAIN, SWEEP, CELL, RUN, STEP, SCORE, EMIT = (
    "pass", "cli.main", "experiment.sweep", "cell", "engine.run",
    "engine.step", "metrics.score", "experiment.emit")


class Tracer:
    """Spans with parent ids plus per-call counters, kept in memory.

    A span is ``[name, parent_index, start_ns, end_ns]``; the parent of a
    top-level span is -1. Cells are not a function boundary inside
    sweep_agents, so a cell span opens at run() entry with its start
    backdated to the previous cell's end (or the sweep's start) and
    closes at the matching score() exit.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.telemetries = []
        self.agent_steps = 0
        self._stack = []
        self._boundary = 0
        self._cell = None

    def _open(self, name, start):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, start, 0])
        self._stack.append(index)
        return index

    def _close(self, index, end):
        self.spans[index][3] = end
        self._stack.pop()

    @contextmanager
    def pass_scope(self):
        self._boundary = start = ns()
        index = self._open(PASS, start)
        try:
            yield
        finally:
            self._close(index, ns())

    def _span(self, name, original):
        def wrapped(*args, **kwargs):
            index = self._open(name, ns())
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, ns())
        return wrapped

    def _counter(self, name, original):
        tally = self.counters.setdefault(name, [0, 0])

        def wrapped(*args, **kwargs):
            start = ns()
            result = original(*args, **kwargs)
            tally[1] += ns() - start
            tally[0] += 1
            return result
        return wrapped

    def wrappers(self):
        real_run, real_score = mpsim.run, mpsim.score

        def run(config):
            if self._cell is None:
                self._cell = self._open(CELL, self._boundary)
            self.agent_steps += config.num_agents * config.engine.steps
            index = self._open(RUN, ns())
            try:
                telemetry = real_run(config)
            finally:
                self._close(index, ns())
            self.telemetries.append(telemetry)
            return telemetry

        def score(telemetry):
            index = self._open(SCORE, ns())
            try:
                return real_score(telemetry)
            finally:
                end = ns()
                self._close(index, end)
                if self._cell is not None:
                    self._close(self._cell, end)
                    self._cell = None
                self._boundary = end

        def sweep(original):
            traced = self._span(SWEEP, original)

            def wrapped(*args, **kwargs):
                self._boundary = ns()
                return traced(*args, **kwargs)
            return wrapped

        wrappers = {**_rebind("run", run), **_rebind("score", score)}
        for name in SWEEPS:
            wrappers.update(_rebind(name, sweep(getattr(mpsim, name))))
        for name in EMITTERS:
            wrappers.update(_rebind(name, self._span(EMIT, getattr(mpsim, name))))
        cli = sys.modules.get("mpsim.cli")
        if cli is not None:
            wrappers[(cli, "main")] = self._span(MAIN, cli.main)
        engine = mpsim.engine
        wrappers[(engine, "step")] = self._span(STEP, engine.step)
        # Counted where engine calls them, so a selector that calls another
        # selector inside mpsim.strategy is counted once.
        for name in ("update_cwnd", "rtt_instantaneous") + SELECTORS:
            if hasattr(engine, name):
                wrappers[(engine, name)] = self._counter(name, getattr(engine, name))
        return wrappers

    def layer_metrics(self):
        """Per-layer totals for the traced pass(es) recorded so far."""
        spans = self.spans
        total = dict.fromkeys((MAIN, SWEEP, CELL, RUN, STEP, SCORE, EMIT), 0)
        calls = dict.fromkeys(total, 0)
        children = [0] * len(spans)   # summed duration of direct children
        in_sweep = [False] * len(spans)
        sweep_cell_work = 0           # run + score time inside sweeps
        sweep_cells = 0
        for index, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            if parent >= 0:
                children[parent] += duration
                in_sweep[index] = in_sweep[parent] or spans[parent][0] == SWEEP
            if name in total:
                total[name] += duration
                calls[name] += 1
            if in_sweep[index]:
                if name in (RUN, SCORE):
                    sweep_cell_work += duration
                elif name == CELL:
                    sweep_cells += 1
        main_self = sum(end - start - children[i]
                        for i, (name, _, start, end) in enumerate(spans) if name == MAIN)

        def tally(*names):
            pairs = [self.counters.get(name, (0, 0)) for name in names]
            return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

        select_calls, select_ns = tally(*SELECTORS)
        update_calls, update_ns = tally("update_cwnd")
        rtt_calls, rtt_ns = tally("rtt_instantaneous")
        return {
            "engine.step_calls": calls[STEP],
            "engine.step_s": total[STEP] / 1e9,
            "engine.step_self_s": (total[STEP] - select_ns - update_ns - rtt_ns) / 1e9,
            "engine.update_cwnd_calls": update_calls,
            "engine.update_cwnd_s": update_ns / 1e9,
            "engine.rtt_calls": rtt_calls,
            "engine.rtt_s": rtt_ns / 1e9,
            "engine.agent_steps": self.agent_steps,
            "engine.ns_per_agent_step": total[STEP] / self.agent_steps,
            "engine.run_init_s": (total[RUN] - total[STEP]) / 1e9,
            "strategy.select_calls": select_calls,
            "strategy.select_s": select_ns / 1e9,
            "strategy.select_ns_per_call": select_ns / select_calls if select_calls else 0.0,
            "metrics.score_calls": calls[SCORE],
            "metrics.score_s": total[SCORE] / 1e9,
            "experiment.cells": sweep_cells,
            "experiment.sweep_s": total[SWEEP] / 1e9,
            "experiment.sweep_self_s": (total[SWEEP] - sweep_cell_work) / 1e9,
            "experiment.emit_s": total[EMIT] / 1e9,
            "cli.self_s": main_self / 1e9,
        }
