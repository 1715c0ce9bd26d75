"""Merge two pytest-benchmark JSON files into one BENCH_*.json.

    python3 benchmarks/bench_summary.py BEFORE.json AFTER.json > BENCH_<n>.json

Keeps, per benchmark and side, the min, median, mean and round count in
seconds, plus the speed-up of the median, with the host's core count,
CPU and Python version from the second file's machine_info, and each
side's commit.
"""

import json
import sys


def _side(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    stats = {bench["name"]: {key: bench["stats"][key]
                             for key in ("min", "median", "mean", "rounds")}
             for bench in doc["benchmarks"]}
    return doc, stats


def _commit(doc):
    """The checked-out commit, and whether the tree had uncommitted changes."""
    info = doc.get("commit_info", {})
    return {"id": info.get("id"), "dirty": info.get("dirty")}


def main(before_path, after_path):
    before_doc, before = _side(before_path)
    after_doc, after = _side(after_path)
    machine = after_doc["machine_info"]
    summary = {
        "harness": "benchmarks/bench_engine.py",
        "unit": "s",
        "nproc": machine["cpu"]["count"],
        "cpu": machine["cpu"].get("brand_raw"),
        "python": machine["python_version"],
        "before": {"commit": _commit(before_doc), "cells": before},
        "after": {"commit": _commit(after_doc), "cells": after},
        "median_speedup": {name: before[name]["median"] / after[name]["median"]
                           for name in after if name in before},
    }
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
