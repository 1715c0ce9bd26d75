"""The passes of one measuring run, in the child interpreter.

In order:

1. a warm-up pass, after which ``ru_maxrss`` is the peak RSS of one pass;
2. timed untraced passes while the next one still fits the window (all
   of the run's seconds, or half of them with tracing), with the
   calibration kernel timed before, after and within each pass, every
   chunk of a pass scaled by the calibrations on either side of it;
3. capture pass A: every cell's telemetry is kept and checked against
   the invariants, the oracle and the reference table, and cohorts are
   counted;
4. without tracing, capture pass B; with tracing, traced passes for the
   other half of the window, the first one's spans written out.

Every pass after A must reproduce A's output and, where telemetry is
kept, A's telemetry byte for byte. A cell counts as failed in every pass
where it failed a check or differed from A.
"""

import gc
import json
import os
import resource
import time

import calibrate
import checks
from instrument import Probe, Tracer, installed


def run_pass(workload, recorder):
    """One pass with ``recorder`` installed; returns (output text, wall ns)."""
    gc.collect()
    with installed(recorder.wrappers()), recorder.pass_scope():
        start = time.perf_counter_ns()
        text = workload.run_pass()
        wall = time.perf_counter_ns() - start
    return text, wall


def probe_pass(workload, capture=False):
    probe = Probe(capture=capture)
    text, wall = run_pass(workload, probe)
    if probe.runs != workload.cells or probe.scores != workload.cells:
        raise RuntimeError(
            f"instrumentation saw {probe.runs} run() and {probe.scores} score() "
            f"calls; {workload.name} has {workload.cells} cells per pass")
    return probe, text, wall


class Verdict:
    """Cells attempted and failed across the passes of one run."""

    def __init__(self, capture, text):
        self.csv = checks.text_digest(text)
        self.telemetry = [checks.telemetry_digest(t) for t in capture.telemetries]
        self.bad, self.problems, self.ref_within, self.ref_comparable = (
            checks.check_cells(capture.telemetries))
        self.cells = len(self.telemetry)
        self.attempted = self.cells
        self.failed = len(self.bad)
        # distinct output and telemetry digests seen, by kind of pass
        self.digests = {"capture": {"csv": {self.csv},
                                    "telemetry": {checks.text_digest("".join(self.telemetry))}}}

    def add(self, kind, index, text, telemetries=None):
        """Count one more pass, comparing it with capture pass A."""
        label = f"{kind} pass {index}"
        seen = self.digests.setdefault(kind, {"csv": set(), "telemetry": set()})
        csv = checks.text_digest(text)
        seen["csv"].add(csv)
        self.attempted += self.cells
        if csv != self.csv:
            self.failed += self.cells
            self.problems.append(f"{label}: output differs from capture pass A")
            return
        mismatched = set()
        if telemetries is not None:
            digests = [checks.telemetry_digest(t) for t in telemetries]
            seen["telemetry"].add(checks.text_digest("".join(digests)))
            mismatched = {i for i in range(self.cells)
                          if i >= len(digests) or digests[i] != self.telemetry[i]}
            if mismatched:
                self.problems.append(
                    f"{label}: telemetry of {len(mismatched)} cells differs from capture pass A")
        self.failed += len(self.bad | mismatched)


def fits(window_start, window_ns, last_ns):
    return time.perf_counter_ns() - window_start + last_ns <= window_ns


def measure(workload, seconds, trace, spans_path):
    window_ns = seconds * 1e9 / (2 if trace else 1)
    window_start = time.perf_counter_ns()
    _, warm_text, _ = probe_pass(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced, cells = [], [[] for _ in range(workload.cells)]
    after = calibrate.block()
    while not untraced or fits(window_start, window_ns, untraced[-1]["window_ns"]):
        start, before = time.perf_counter_ns(), after
        probe, text, _ = probe_pass(workload)
        after = calibrate.block()
        wall, run, cell_ns = probe.scaled(before, after)
        for samples, cell in zip(cells, cell_ns):
            samples.append(cell)
        untraced.append({"text": text, "window_ns": time.perf_counter_ns() - start,
                         "raw_wall_ns": sum(chunk["wall_ns"] for chunk in probe.chunks),
                         "wall_ns": wall, "run_ns": run, "agent_steps": probe.agent_steps,
                         "chunks": len(probe.chunks),
                         "calibration_ns": [before, *probe.calibrations, after]})

    capture, text, _ = probe_pass(workload, capture=True)
    verdict = Verdict(capture, text)
    capture.telemetries.clear()
    verdict.add("warm-up", 0, warm_text)
    for index, sample in enumerate(untraced):
        verdict.add("untraced", index, sample.pop("text"))

    traced = []
    if trace:
        window_start = time.perf_counter_ns()
        while not traced or fits(window_start, window_ns, traced[-1]["wall_ns"]):
            tracer = Tracer()
            text, wall = run_pass(workload, tracer)
            verdict.add("traced", len(traced), text, tracer.telemetries)
            if not traced:
                write_spans(spans_path, tracer)
            traced.append({"wall_ns": wall, "layers": tracer.layer_metrics()})
    else:
        again, text, _ = probe_pass(workload, capture=True)
        verdict.add("capture B", 0, text, again.telemetries)

    return {
        "peak_rss_mb": peak_rss_mb,
        "untraced": untraced,
        "cell_ns": cells,
        "traced": traced,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "digests": {kind: {key: sorted(values) for key, values in seen.items()}
                    for kind, seen in verdict.digests.items()},
        "ref_cells_within_5pct": verdict.ref_within,
        "ref_cells_comparable": verdict.ref_comparable,
        "cohorts_per_step": capture.cohorts / capture.cohort_steps,
    }


def write_spans(path, tracer):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "parent", "start_ns", "end_ns"],
                   "spans": tracer.spans,
                   "counters": {name: {"calls": calls, "ns": total}
                                for name, (calls, total) in tracer.counters.items()}},
                  handle)
