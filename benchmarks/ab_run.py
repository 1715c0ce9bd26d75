"""Interleaved before/after timing of mpsim, both sides in one interpreter.

    python3 benchmarks/ab_run.py BEFORE AFTER [--rounds 20] [--min-ms 20]
        [--only SUBSTRING] > BENCH_<n>.json

Run from the root of a checkout. BEFORE and AFTER each name a git
revision, whose src/ is extracted with `git archive` into a temporary
directory, or a directory that holds the mpsim package (`src` for the
working tree). Both packages are imported into this interpreter under
their own names. Every round times each cell on both sides back to
back, alternating which side goes first, so a slow spell of the host
slows both samples of a pair. Each round visits the cells in the order
`random.Random(round index)` shuffles them into, so a slow spell falls
across strategies instead of on one strategy's block of cells (one run
in the fixed order read every weighted round robin cell at 1.02-1.08 on
identical steps). A sample is the fastest of enough calls
to fill --min-ms, and at least 100 ms for the `run()` cells at
N = 100,000: when a call took about 1.2 ms, their 20 ms samples read
median ratios up to 1.06-1.08 on identical code, their 100 ms samples
0.96-1.04 (12 rounds). A tree timed against itself reads every median
ratio within 0.97-1.03, but two different trees read wider: a copy whose
step() was byte for byte its parent's, only docstrings and two
dataclasses differing, read 1.02-1.04 on the epsilon 0.1 cells at
N = 50-250 (16 rounds, quartiles up to 1.046), so a 2-4% ratio in one
cell is within the noise. Per cell the JSON gives the median and quartiles
over rounds of the paired ratio after/before (below 1 is faster), each
side's median sample, and whether both sides' outputs are equal. The side
medians (`before_ms`, `after_ms`) are unpaired, and the top-level
`unpaired` key lists them: on a host whose speed shifts during a run they
can disagree with the ratio (a cell that computes the same steps on both
sides read 0.783 -> 1.210 ms with a ratio of 1.010), so a change is read
off the ratio only. Files written before that key existed hold the same
fields. It also records nproc, the CPU, the Python version and both
commits.
--only times just the cells whose name contains SUBSTRING (say
`epsilon_greedy[0.1]`), leaving out, among others, the N = 100,000 cells.

Cells use the default topology, 300 steps, seed 0 and default AIMD:
- `run()` of weighted round robin at N = 10, 25, 50, 100, 150, 250 and
  500, epsilon-greedy at epsilon 0, 0.1 and 0.5 with N = 10 and 500 and
  at epsilon 0.1 with N = 25, 50, 100 and 250 and at epsilon 0.2, 0.3
  and 0.4 with N = 500 (perfbench's `explore_500` runs epsilon 0 to 0.5
  in steps of 0.1 at N = 500), min_rtt and round robin at N = 10 and
  500, min_rtt at N = 25,
  min_load, min_rtt, attribute_aware and blest at N = 50, min_load,
  attribute_aware and blest at N = 10 (cells that never recur, so
  run() computes every step: min-load's rule runs on each, while
  attribute-aware's and blest's path is chosen once per config); every
  strategy at
  N = 5000, and at N = 100,000 the five that run() steps as one state
  and epsilon-greedy at epsilon 0.1, stepped as cohorts. Each cell
  reuses one config, whose per-run constants (`SimConfig._constants`,
  the constant rules' path among them) its untimed first call derives.
  A run without an rng stops stepping once its state recurs (see
  mpsim.engine): the N = 10 cells never recur and pay only the check,
  min_rtt at N = 25 recurs with a 154-step cycle that the check cannot
  catch within 300 steps, and the N = 50 herds and weighted round
  robin at N = 150 are the smallest grid counts at which they recur.
  A cell that recurs spends its time on the few steps it computes (2 of
  300 for min_rtt, attribute_aware, blest and epsilon 0 at N = 500 and
  above, 4 for min_load there and for the N = 50 herds, 6 for round
  robin at N = 500 and above and for min_load at N = 50, 24 for weighted
  round robin from N = 250 on and 47 at N = 150. Up to BENCH_28.json,
  while every rule's cycle had to be a multiple of the path count, the
  2-step cells computed 6 and the 4- and 6-step min_load and N = 50
  cells 12; up to BENCH_22.json, while the cycle search's first reaches
  were 1 and 2 steps, those computing 6 and 12 then computed 18 and
  weighted round robin 70); it keeps the rest
  as a count of cycle repeats and builds no copy (up to BENCH_19.json each
  copy was built, its slots set in bulk at about 0.25 us a copy). Its
  final windows are one tuple repetition per cohort or cursor class, so
  a herd's run() at N = 100,000 takes about twice what it takes at
  N = 5000, against about eight times while the windows were listed
  agent by agent (BENCH_19.json);
- `score()` of a telemetry built outside the timed call (epsilon 0.1),
  for min_rtt (one distinct window) and epsilon-greedy (many) at N = 10
  and 500, min_rtt, weighted round robin and epsilon-greedy at N = 2000
  and 100,000, and weighted round robin at N = 150, whose loads cycle
  with period 23 after an 8-step prefix (run() computes 47 of its 300
  steps and keeps the rest as cycle repeats). score() adds a kept
  cycle's step values per repeat, or at once where they are all equal,
  without building its copies; the N = 10 cells never recur;
- `emit_summary()` of the raw CSV of the 49 rows of the sweep below,
  built outside the timed call;
- `sweep_agents()` over the 49-cell reproduction grid (every strategy
  at the default agent counts).
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SHARED = ("min_rtt", "min_load", "attribute_aware", "blest", "round_robin")
STRATEGIES = SHARED + ("weighted_round_robin", "epsilon_greedy")
RUN_CELLS = ([("weighted_round_robin", 0.1, n) for n in (10, 25, 50, 100, 150, 250, 500)]
             + [("epsilon_greedy", eps, n) for eps in (0.0, 0.1, 0.5) for n in (10, 500)]
             + [("epsilon_greedy", 0.1, n) for n in (25, 50, 100, 250)]
             + [("epsilon_greedy", eps, 500) for eps in (0.2, 0.3, 0.4)]
             + [(name, 0.1, n) for name in ("min_rtt", "round_robin") for n in (10, 500)]
             + [("min_rtt", 0.1, 25)]
             + [(name, 0.1, 50) for name in ("min_load", "min_rtt", "attribute_aware", "blest")]
             + [(name, 0.1, 10) for name in ("min_load", "attribute_aware", "blest")]
             + [(name, 0.1, 5000) for name in STRATEGIES]
             + [(name, 0.1, 100_000) for name in SHARED]
             + [("epsilon_greedy", 0.1, 100_000)])
# the sample floor of the run() cells at N = 100,000, in ms
LONG_SAMPLE_MS = 100.0
SCORE_CELLS = ([(name, n) for n in (10, 500) for name in ("min_rtt", "epsilon_greedy")]
               + [(name, n) for n in (2000, 100_000)
                  for name in ("min_rtt", "weighted_round_robin", "epsilon_greedy")]
               + [("weighted_round_robin", 150)])


def _git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _source(spec, scratch):
    """(directory holding the mpsim package, provenance) for one side."""
    if os.path.isdir(os.path.join(spec, "mpsim")):
        path = os.path.abspath(spec)
        try:
            commit = _git("-C", path, "rev-parse", "HEAD")
            dirty = bool(_git("-C", path, "status", "--porcelain", "--", "."))
        except subprocess.CalledProcessError:
            # a directory outside any git checkout
            commit = dirty = None
        return path, {"tree": spec, "commit": commit, "dirty": dirty}
    commit = _git("rev-parse", "--verify", f"{spec}^{{commit}}")
    target = os.path.join(scratch, commit)
    archive = subprocess.run(["git", "archive", "--format=tar", commit, "src"],
                             check=True, capture_output=True).stdout
    archive_path = target + ".tar"
    with open(archive_path, "wb") as handle:
        handle.write(archive)
    with tarfile.open(archive_path) as tar:
        tar.extractall(target, filter="data")
    return os.path.join(target, "src"), {"tree": spec, "commit": commit, "dirty": False}


def _load(src, alias):
    """Import the mpsim package under `src` as module `alias`."""
    package = os.path.join(src, "mpsim")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def _config(mpsim, strategy, epsilon, agents):
    return mpsim.SimConfig(topology=mpsim.default_topology(),
                           strategy=mpsim.StrategyKind(strategy, epsilon=epsilon),
                           num_agents=agents, engine=mpsim.EngineParams(steps=300))


def _grid(mpsim):
    return mpsim.SweepSpec(topology=mpsim.default_topology(),
                           strategies=mpsim.all_strategies())


def _run_cell(strategy, epsilon, agents):
    def build(mpsim):
        config = _config(mpsim, strategy, epsilon, agents)
        return lambda: mpsim.run(config)
    return f"{strategy}[{epsilon}]-{agents}", build, lambda telemetry: (
        [(r.step, r.loads, r.overflows, r.inst_rtts) for r in telemetry.records],
        telemetry.final_cwnds), LONG_SAMPLE_MS if agents == 100_000 else 0.0


def _score_cell(strategy, agents):
    def build(mpsim):
        telemetry = mpsim.run(_config(mpsim, strategy, 0.1, agents))
        return lambda: mpsim.score(telemetry)
    return f"score:{strategy}-{agents}", build, dataclasses.astuple, 0.0


def _emit_cell():
    def build(mpsim):
        rows = mpsim.sweep_agents(_grid(mpsim))
        return lambda: mpsim.emit_summary(rows, raw=True)
    return "emit_summary:raw-49", build, str, 0.0


def _sweep_cell():
    def build(mpsim):
        spec = _grid(mpsim)
        return lambda: mpsim.sweep_agents(spec)
    return ("sweep_agents:serial-49", build,
            lambda rows: [dataclasses.astuple(r) for r in rows], 0.0)


# each cell is (name, build, output, floor): build(mpsim) makes the call a
# sample times, output turns its result into a value compared across
# sides, and a sample fills at least max(--min-ms, floor) ms
CELLS = ([_run_cell(*cell) for cell in RUN_CELLS]
         + [_score_cell(*cell) for cell in SCORE_CELLS] + [_emit_cell(), _sweep_cell()])


def _sample(call, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e6


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--min-ms", type=float, default=20.0,
                        help="fill each sample with this many ms of calls")
    parser.add_argument("--only", metavar="SUBSTRING", default="",
                        help="time only the cells whose name contains SUBSTRING")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.min_ms <= 0:
        parser.error("--rounds and --min-ms must be positive")
    if not any(args.only in name for name, _, _, _ in CELLS):
        parser.error(f"no cell name contains {args.only!r}")

    with tempfile.TemporaryDirectory() as scratch:
        summary = _measure(args, scratch)
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def _measure(args, scratch):
    before_src, before_info = _source(args.before, scratch)
    after_src, after_info = _source(args.after, scratch)
    sides = (_load(before_src, "mpsim_before"), _load(after_src, "mpsim_after"))

    cells = []
    for name, build, output, floor in CELLS:
        if args.only not in name:
            continue
        calls = [build(side) for side in sides]
        outputs = [output(call()) for call in calls]
        once = max(_sample(call, 1) for call in calls)
        repeats = max(1, round(max(args.min_ms, floor) / max(once, 1e-3)))
        cells.append((name, calls, repeats, outputs[0] == outputs[1], [[], []]))

    for index in range(args.rounds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        visits = cells[:]
        random.Random(index).shuffle(visits)
        for _, calls, repeats, _, samples in visits:
            for side in order:
                samples[side].append(_sample(calls[side], repeats))

    report = {}
    for name, _, repeats, identical, (before, after) in cells:
        ratios = [a / b for a, b in zip(after, before)]
        q1, q3 = _quartiles(ratios)
        report[name] = {
            "before_ms": statistics.median(before),
            "after_ms": statistics.median(after),
            "ratio_median": statistics.median(ratios),
            "ratio_q1": q1,
            "ratio_q3": q3,
            "calls_per_sample": repeats,
            "identical": identical,
        }
    return {
        "harness": "benchmarks/ab_run.py",
        "unit": "ms",
        "unpaired": ["before_ms", "after_ms"],
        "rounds": args.rounds,
        "cell_order": "shuffled each round by random.Random(round index)",
        "min_ms": args.min_ms,
        "only": args.only,
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "before": before_info,
        "after": after_info,
        "cells": report,
    }


if __name__ == "__main__":
    main()
