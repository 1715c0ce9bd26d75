"""Byte-identity check of two mpsim trees: SHA-256 digests of their outputs.

    python3 benchmarks/digest.py BEFORE AFTER

Run from the root of a checkout. BEFORE and AFTER are what
benchmarks/ab_run.py takes: a git revision, whose src/ is extracted with
`git archive`, or a directory that holds the mpsim package (`src` for the
working tree); both packages are imported into this interpreter under
their own names. Each side runs `run()` and `score()` on every config of
the grid below and hashes, per config, the step records (step index and
the repr of each load, overflow and RTT), the final windows (their
IEEE-754 bytes) and the scores (repr). A group's digest is the SHA-256 of
its configs' digests in grid order. The raw reproduction-grid CSV
(`sweep --all-strategies --raw`) and the raw epsilon-line CSV (epsilon 0
to 1 in steps of 0.1 at N = 500) are one group each. It prints each
group's digests, the first 16 hex digits of each, naming the first config
that differs, and exits 1 if any group differs. Beside them it prints
each side's total of computed steps over the group's configs
(`len(telemetry.records.computed)`: the steps that a recurring run
replays are not computed) and the number of configs whose count rose
from BEFORE to AFTER; a rise alone does not change the exit status.

The grid (2,240 configs): the six strategies that never draw and
epsilon-greedy at epsilon 0, 0.1, 0.5 and 1; N = 1, 2, 3, 7, 10, 23, 24,
47, 100, 250, 500, 701, 2000 and 5000 (23 is weighted round robin's
schedule length on the default topology; from 250 on its later rounds
are summed as columns where each path's windows are equal); the default
topology and topologies of 1, 2 and 5 paths, the five-path one tagging
its min-RTT path high-cost so that attribute-aware differs from min-RTT;
the default AIMD constants and one non-dyadic set; seeds 0 and 1; 300
steps. Both sides take about 17 s on a 2-vCPU x86_64 host under CPython
3.11.7.
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
import time
from array import array

from ab_run import _load, _source

AGENTS = (1, 2, 3, 7, 10, 23, 24, 47, 100, 250, 500, 701, 2000, 5000)
SEEDS = (0, 1)


def _topologies(mpsim):
    path = mpsim.PathSpec
    return (mpsim.default_topology(),
            mpsim.Topology("one-path", (path(1, 40.0, 30.0),)),
            mpsim.Topology("two-paths", (path(1, 30.0, 15.0), path(2, 70.0, 45.0))),
            mpsim.Topology("five-paths", (
                path(1, 20.0, 10.0, frozenset({mpsim.HIGH_COST_TAG})), path(2, 35.0, 25.0),
                path(3, 50.0, 40.0), path(4, 65.0, 55.0), path(5, 90.0, 70.0))))


def _strategies(mpsim):
    return ([mpsim.StrategyKind(name) for name in mpsim.STRATEGY_NAMES
             if name != "epsilon_greedy"]
            + [mpsim.StrategyKind("epsilon_greedy", epsilon=eps) for eps in (0.0, 0.1, 0.5, 1.0)])


def _aimds(mpsim):
    return (mpsim.AimdParams(),
            mpsim.AimdParams(initial_cwnd=0.37, alpha=0.73, beta=0.61, cwnd_floor=0.29))


def _sha(text):
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def _digests(mpsim):
    """{group: [(config label, {kind: digest}, computed steps or None)]} in
    grid order."""
    groups = {}
    for kind in _strategies(mpsim):
        label = kind.name if kind.name != "epsilon_greedy" else f"epsilon_greedy[{kind.epsilon}]"
        rows = groups.setdefault(label, [])
        for topology in _topologies(mpsim):
            for aimd_index, aimd in enumerate(_aimds(mpsim)):
                for agents in AGENTS:
                    for seed in SEEDS:
                        config = mpsim.SimConfig(topology=topology, strategy=kind,
                                                 num_agents=agents, aimd=aimd, seed=seed)
                        telemetry = mpsim.run(config)
                        records = repr([(r.step, r.loads, r.overflows, r.inst_rtts)
                                        for r in telemetry.records])
                        rows.append((f"{topology.name} aimd{aimd_index} N={agents} seed={seed}", {
                            "records": _sha(records),
                            "windows": _sha(array("d", telemetry.final_cwnds).tobytes()),
                            "scores": _sha(repr(dataclasses.astuple(mpsim.score(telemetry)))),
                        }, len(telemetry.records.computed)))
    grid = mpsim.sweep_agents(mpsim.SweepSpec(topology=mpsim.default_topology(),
                                              strategies=mpsim.all_strategies()))
    groups["csv:grid"] = [("raw", {"csv": _sha(mpsim.emit_summary(grid, raw=True))}, None)]
    line = mpsim.sweep_epsilon([i / 10 for i in range(11)], 500, mpsim.default_topology())
    groups["csv:epsilon"] = [("raw", {"csv": _sha(mpsim.emit_epsilon(line, raw=True))}, None)]
    return groups


def _group_digest(rows, kind):
    return _sha("".join(digests[kind] for _, digests, _ in rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        sides = [_load(_source(spec, scratch)[0], alias)
                 for spec, alias in ((args.before, "mpsim_before"), (args.after, "mpsim_after"))]
        start = time.perf_counter()
        before, after = (_digests(side) for side in sides)
        seconds = time.perf_counter() - start
    differ = rose = computed_before = computed_after = 0
    for group, rows in before.items():
        other = after[group]
        kinds = list(rows[0][1])
        line = [f"{group:<24} {len(rows):>4}"]
        for kind in kinds:
            first, second = _group_digest(rows, kind), _group_digest(other, kind)
            line.append(f"{kind} {first[:16]}" if first == second
                        else f"{kind} {first[:16]} != {second[:16]}")
        if rows[0][2] is not None:
            counts = [(a, b) for (_, _, a), (_, _, b) in zip(rows, other)]
            group_before, group_after = map(sum, zip(*counts))
            group_rose = sum(b > a for a, b in counts)
            computed_before += group_before
            computed_after += group_after
            rose += group_rose
            line.append(f"computed {group_before} -> {group_after} ({group_rose} rose)")
        mismatch = next((label for (label, a, _), (_, b, _) in zip(rows, other) if a != b), None)
        if mismatch is not None or len(rows) != len(other):
            differ += 1
            line.append(f"DIFFERENT from {mismatch}")
        print("  ".join(line))
    configs = sum(len(rows) for group, rows in before.items() if not group.startswith("csv:"))
    print(f"{configs} run() + score() configs per side, 2 CSVs; {seconds:.1f} s; "
          f"{differ} of {len(before)} groups differ; computed steps {computed_before} -> "
          f"{computed_after}, {rose} configs compute more")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
