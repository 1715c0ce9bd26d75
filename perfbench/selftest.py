"""Self-tests of the benchmark, kept out of the repo's pytest suite.

    python3 perfbench/selftest.py        (from the root of a checkout, ~2 min)

- every metric the benchmark prints is named in BENCHMARK.json;
- a traced pass and an untraced pass give identical output and telemetry
  digests (observability must not change an output byte);
- a run on a seed drawn fresh for this test passes the output check,
  on every workload;
- the output check does catch a broken cell;
- without the program next to it, the benchmark exits non-zero and
  prints no result.
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
FRESH_SEED = random.SystemRandom().randrange(10**6, 10**9)


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def results_file(workload, seed, trace):
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


class PrintedMetrics(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        declared_all = config()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench("small_pop", 7, trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            declared = {m["name"]: m["unit"] for m in declared_all[key]}
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, declared)
            all_names = {m["name"]
                         for m in declared_all["end_to_end"] + declared_all["per_layer"]}
            table = [line.split()[0] for line in lines[1:-1] if not line.startswith("  FAILED")]
            self.assertTrue(set(table) <= all_names, set(table) - all_names)


class TracingChangesNoByte(unittest.TestCase):
    def test_traced_and_untraced_digests_match(self):
        done = bench("repro_grid", 11, 1)
        self.assertEqual(done.returncode, 0, done.stderr)
        digests = results_file("repro_grid", 11, 1)["digests"]
        self.assertEqual(digests["traced"]["csv"], digests["untraced"]["csv"])
        self.assertEqual(digests["traced"]["csv"], digests["capture"]["csv"])
        self.assertEqual(digests["traced"]["telemetry"], digests["capture"]["telemetry"])
        self.assertEqual(len(digests["traced"]["csv"]), 1)


class FreshSeed(unittest.TestCase):
    def test_every_workload_passes_the_output_check(self):
        print(f"fresh seed {FRESH_SEED}", file=sys.stderr)
        for workload in (w["name"] for w in config()["workloads"]):
            with self.subTest(workload=workload):
                done = bench(workload, FRESH_SEED, 0)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], done.stdout)
                self.assertEqual(result["failed"], 0)
                digests = results_file(workload, FRESH_SEED, 0)["digests"]
                self.assertEqual(digests["capture B"], digests["capture"])


class OutputCheckCatchesFaults(unittest.TestCase):
    def test_broken_cells_are_reported(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
        import mpsim
        import checks
        good = mpsim.run(mpsim.SimConfig(topology=mpsim.default_topology(),
                                         strategy=mpsim.StrategyKind("min_rtt"),
                                         num_agents=60))
        first = good.records[0]
        shifted = dataclasses.replace(first, loads=(first.loads[0] + 1.0,) + first.loads[1:])
        wrong_overflow = dataclasses.replace(first, overflows=(-1.0,) + first.overflows[1:])
        cells = [good,
                 dataclasses.replace(good, records=(shifted,) + good.records[1:]),
                 dataclasses.replace(good, records=(wrong_overflow,) + good.records[1:]),
                 dataclasses.replace(good, records=good.records[1:]),
                 dataclasses.replace(good, final_cwnds=(0.5,) + good.final_cwnds[1:])]
        bad, problems, _, _ = checks.check_cells(cells)
        self.assertEqual(bad, {1, 2, 3, 4}, problems)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(RESULTS, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            done = bench("small_pop", 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
