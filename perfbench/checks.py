"""Output checks, run outside every timed region.

A cell passes when its telemetry holds the engine's invariants, matches
the independent oracle ``tests/reference.py::naive_run`` bit for bit and
scores to finite values. Digests make the byte-identity checks between
passes cheap. ``tests/`` is imported read-only.
"""

import hashlib
import math
from array import array

import mpsim
from reference import naive_run
from test_acceptance import REFERENCE_TABLE, within

REFERENCE = {(row[0], row[1]): row[2:6] for row in REFERENCE_TABLE}
REFERENCE_TOLERANCE = 0.05


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def telemetry_digest(telemetry):
    digest = hashlib.sha256()
    for record in telemetry.records:
        digest.update(record.step.to_bytes(8, "little", signed=True))
        digest.update(array("d", record.loads + record.overflows + record.inst_rtts).tobytes())
    digest.update(array("d", telemetry.final_cwnds).tobytes())
    return digest.hexdigest()


def invariant_problems(telemetry):
    """Per-cell engine invariants; returns a list of failure descriptions."""
    config = telemetry.config
    paths = config.topology.paths
    problems = []
    if len(telemetry.records) != config.engine.steps:
        problems.append(f"{len(telemetry.records)} records for {config.engine.steps} steps")
    for record in telemetry.records:
        for path, load, overflow, rtt in zip(paths, record.loads, record.overflows,
                                             record.inst_rtts):
            where = f"step {record.step} path {path.id}"
            if not all(map(math.isfinite, (load, overflow, rtt))):
                problems.append(f"{where}: non-finite value")
            elif overflow != max(0.0, load - path.capacity_mbps):
                problems.append(f"{where}: overflow {overflow!r} != max(0, load - cap)")
            elif rtt < path.base_rtt_ms:
                problems.append(f"{where}: inst_rtt {rtt!r} below base")
    floor = config.aimd.cwnd_floor
    if not all(math.isfinite(c) and c >= floor for c in telemetry.final_cwnds):
        problems.append("a final cwnd is non-finite or below the floor")
    scores = mpsim.score(telemetry)
    if not all(math.isfinite(v) for v in vars(scores).values()):
        problems.append(f"non-finite score {scores}")
    return problems


def oracle_problems(telemetry):
    """Differences between the engine's telemetry and the naive oracle's."""
    config = telemetry.config
    aimd, engine, strategy = config.aimd, config.engine, config.strategy
    if aimd.initial_cwnd != 1.0 or aimd.mbps_per_cwnd != 1.0:
        return ["the oracle models only initial_cwnd = mbps_per_cwnd = 1"]
    paths = [{"id": p.id, "cap": p.capacity_mbps, "rtt": p.base_rtt_ms,
              "attrs": tuple(sorted(p.attributes))} for p in config.topology.paths]
    records, cwnds = naive_run(
        paths, strategy.name, config.num_agents, engine.steps, config.seed,
        epsilon=strategy.epsilon, filter_factor=strategy.filter_factor,
        forbidden=tuple(sorted(config.forbidden_tags)), step_ms=engine.step_ms,
        queue_scale=engine.queue_scale_ms, alpha=aimd.alpha, beta=aimd.beta,
        floor=aimd.cwnd_floor)
    problems = []
    if tuple(cwnds) != telemetry.final_cwnds:
        problems.append("final cwnds differ from the oracle")
    for ref, record in zip(records, telemetry.records):
        if (tuple(ref["loads"]) != record.loads or tuple(ref["overflows"]) != record.overflows
                or tuple(ref["rtts"]) != record.inst_rtts):
            problems.append(f"step {record.step} differs from the oracle")
            break
    return problems


def within_reference(telemetry):
    """True when the cell's oscillation, loss, fairness and efficiency all lie
    within 5% of its REFERENCE_TABLE row; None when the table has no row
    for this configuration."""
    config = telemetry.config
    kind = config.strategy
    row = REFERENCE.get((kind.name, config.num_agents))
    if (row is None or config.engine.steps != 300 or kind != mpsim.StrategyKind(kind.name)
            or config.topology != mpsim.default_topology()):
        return None
    s = mpsim.score(telemetry)
    values = (s.oscillation, s.loss, s.fairness, s.efficiency)
    return all(within(v, ref, REFERENCE_TOLERANCE) for v, ref in zip(values, row))


def check_cells(telemetries):
    """Check every captured cell; returns (bad cell indices, problem lines,
    cells within 5% of the reference table, cells that have a reference row)."""
    bad, problems = set(), []
    within_count = comparable = 0
    for index, telemetry in enumerate(telemetries):
        config = telemetry.config
        found = invariant_problems(telemetry) + oracle_problems(telemetry)
        if found:
            bad.add(index)
            label = f"cell {index} ({config.strategy.name}, N={config.num_agents})"
            problems.extend(f"{label}: {p}" for p in found[:3])
        close = within_reference(telemetry)
        if close is not None:
            comparable += 1
            within_count += close
    return bad, problems, within_count, comparable
