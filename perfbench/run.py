"""mpsim benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload repro_grid --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. Every number is host time, i.e. the time
the simulator itself takes; simulated quantities only appear in the
output checks and in ``ref_cells_within_5pct``. The end-to-end times are
scaled to a reference host speed by a calibration kernel timed between
chunks of each pass (see calibrate.py); the results file keeps the raw
times too. The workloads, metrics and bounds are declared in
BENCHMARK.json.

The run starts fresh child interpreters (see child.py): several that only
time the set-up, and one that times the set-up, runs the passes and
checks their output. With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` every per-layer metric, from traced passes.
Either way it prints a table and then, as the last stdout line, one JSON
object with the keys correct, attempted, failed and metrics. A results
file with provenance goes to perfbench/results/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
REQUIRED = ("src/mpsim/__init__.py", "tests/reference.py", "tests/test_acceptance.py")
SETUP_CHILDREN = 14     # plus the measuring child: 15 set-up samples
RUN_LIMIT_S = 170       # the whole run must end well within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def spawn(args, timeout):
    """Run one child interpreter to completion; returns its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "MPSIM_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"child {args[:2]} did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        fail(f"child {args[:2]} exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(result, setups):
    """Medians over the passes of times scaled to the reference host speed;
    see README.md and calibrate.py for why."""
    untraced = result["untraced"]
    cells = sorted(statistics.median(samples) for samples in result["cell_ns"])
    values = {
        "wall_s": statistics.median(u["wall_ns"] for u in untraced) / 1e9,
        "agent_steps_per_s": statistics.median(u["agent_steps"] * 1e9 / u["run_ns"]
                                               for u in untraced),
        "cell_ms_p50": statistics.median(cells) / 1e6,
        "cell_ms_p90": statistics.quantiles(cells, n=10, method="inclusive")[8] / 1e6,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    passes = f"median of {len(untraced)} scaled passes"
    samples = {"wall_s": passes, "agent_steps_per_s": passes,
               "cell_ms_p50": f"{len(cells)} cells, each the {passes}",
               "cell_ms_p90": f"{len(cells)} cells, each the {passes}",
               "setup_s": f"median of {len(setups)} scaled interpreters",
               "peak_rss_mb": "1 pass"}
    return values, samples


def per_layer(result, setups):
    """The layers of the fastest traced pass, plus counts and checks."""
    traced = result["traced"]
    fastest = min(traced, key=lambda t: t["wall_ns"])
    values = dict(fastest["layers"])
    untraced_wall = min(u["raw_wall_ns"] for u in result["untraced"])
    values.update({
        "engine.cohorts_per_step": result["cohorts_per_step"],
        "topology.parse_ms": statistics.median(s["parse_ms"] for s in setups),
        "trace_overhead_frac": fastest["wall_ns"] / untraced_wall - 1.0,
        "failed_frac": result["failed"] / result["attempted"],
        "ref_cells_within_5pct": result["ref_cells_within_5pct"],
    })
    samples = dict.fromkeys(values, f"fastest of {len(traced)} traced passes")
    samples.update({
        "engine.cohorts_per_step": "capture pass A",
        "topology.parse_ms": f"median of {len(setups)} interpreters",
        "trace_overhead_frac": f"best of {len(traced)} traced / best of "
                               f"{len(result['untraced'])} untraced passes",
        "failed_frac": f"{result['attempted']} cells",
        "ref_cells_within_5pct": f"{result['ref_cells_comparable']} cells with a reference row",
    })
    return values, samples


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(config, args, workload):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": dict(workload, name=args.workload,
                         why=next(w["why"] for w in config["workloads"]
                                  if w["name"] == args.workload)),
    }


def main(argv=None):
    config_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing or not os.path.isfile(config_path):
        fail(f"not an mpsim checkout (missing {', '.join(missing) or 'BENCHMARK.json'})")
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    base = [args.workload, str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(RESULTS, f"{tag}-spans.json")
    # set-up samples before and after the measuring child, so that a
    # slow spell of the host does not hit all of them
    setups = [spawn(["setup"] + base, deadline - time.monotonic())
              for _ in range(SETUP_CHILDREN // 2)]
    result = spawn(["measure"] + base + [str(args.seconds), str(args.trace), spans_path],
                   deadline - time.monotonic())
    setups.append({key: result[key] for key in ("setup_s", "raw_setup_s", "parse_ms")})
    setups += [spawn(["setup"] + base, deadline - time.monotonic())
               for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]

    declared = config["per_layer"] if args.trace else config["end_to_end"]
    values, samples = (per_layer if args.trace else end_to_end)(result, setups)
    if set(values) != {m["name"] for m in declared}:
        fail(f"measured metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = result["failed"] == 0 and all(math.isfinite(v) for v in values.values())

    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance(config, args, result["workload"]), "metrics": metrics,
                   "samples": samples, "correct": correct,
                   "attempted": result["attempted"], "failed": result["failed"],
                   "problems": result["problems"], "digests": result["digests"],
                   "ref_cells_comparable": result["ref_cells_comparable"],
                   "spans": spans_path if args.trace else None,
                   "raw": {"setup": setups, "untraced": result["untraced"],
                           "cell_ns": result["cell_ns"],
                           "traced_wall_ns": [t["wall_ns"] for t in result["traced"]]}},
                  handle, indent=2)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for m in declared:
        name = m["name"]
        print(f"  {name:28s} {values[name]:>16.6g} {m['unit']:6s} {samples[name]}")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
