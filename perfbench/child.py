"""One fresh interpreter of the benchmark; run.py starts it.

    python3 perfbench/child.py setup   WORKLOAD SEED
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE SPANS_PATH

Both modes first time the set-up: importing mpsim, parsing the topology
and building the workload's configs. Only modules loaded at interpreter
start, and the calibration kernel, are imported before the clock starts,
so the benchmark's own imports cannot pre-load what mpsim imports. The
set-up time is scaled to the reference host speed by calibration blocks
just before and after it (see calibrate.py). The last stdout line is one
JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    mode, name, seed = argv[1], argv[2], int(argv[3])
    import calibrate
    calibrate.block()   # warm-up: the first blocks in a fresh interpreter run slow
    before = calibrate.block()
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mpsim
    import workloads
    workload, parse_ms = workloads.set_up(name, seed)
    raw_setup_s = time.perf_counter() - start
    after = calibrate.block()
    setup_s = raw_setup_s * 2 * calibrate.REFERENCE_NS / (before + after)

    import json
    if not os.path.abspath(mpsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"mpsim was imported from {mpsim.__file__}, not from {src}")
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "parse_ms": parse_ms,
              "workload": {"definition": " ".join(type(workload).__doc__.split()),
                           "cells_per_pass": workload.cells,
                           "agent_steps_per_pass": workload.agent_steps}}
    if mode == "measure":
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        import measure
        result.update(measure.measure(workload, float(argv[4]), argv[5] == "1", argv[6]))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
