"""Straight-line reference simulator used as an oracle in tests.

Deliberately naive: plain dicts and per-agent loops, no code shared
with mpsim.engine. Selection rules, the smooth-WRR schedule, and the
window update are re-spelled here from scratch so the production
engine has an independent implementation to be checked against.
"""

import math
import random

HIGH_COST = "high-cost"


def smooth_wrr_slots(capacities):
    weights = [int(round(c)) for c in capacities]
    divisor = math.gcd(*(w for w in weights if w > 0))
    weights = [w // divisor if w > 0 else 0 for w in weights]
    period = sum(weights)
    credits = [0] * len(weights)
    slots = []
    for _ in range(period):
        for i in range(len(weights)):
            credits[i] += weights[i]
        best = 0
        for i in range(1, len(weights)):
            if credits[i] > credits[best]:
                best = i
        credits[best] -= period
        slots.append(best + 1)
    return slots


def naive_run(paths, strategy, num_agents, steps, seed,
              epsilon=0.1, filter_factor=1.5, forbidden=(HIGH_COST,),
              step_ms=10.0, queue_scale=10.0, alpha=1.0, beta=0.5, floor=1.0,
              initial_cwnd=1.0, mbps_per_cwnd=1.0):
    """Run the simulation the slow, obvious way.

    paths: list of dicts {"id", "cap", "rtt", "attrs"}.
    Returns (records, cwnds) where each record is a dict with "loads",
    "overflows", "rtts" lists indexed by path position.
    """
    n_paths = len(paths)
    cwnd = [float(initial_cwnd)] * num_agents
    cursor = [0] * num_agents
    rngs = None
    if strategy == "epsilon_greedy":
        rngs = [random.Random(f"{seed}:{i}") for i in range(num_agents)]
    slots = None
    if strategy == "weighted_round_robin":
        slots = smooth_wrr_slots([p["cap"] for p in paths])
        for i in range(num_agents):
            cursor[i] = i % len(slots)

    prev_loads = [0.0] * n_paths
    prev_rtts = [p["rtt"] for p in paths]
    records = []

    for t in range(steps):
        chosen = [0] * num_agents
        for i in range(num_agents):
            if strategy == "min_rtt":
                pick = 0
                for j in range(1, n_paths):
                    if prev_rtts[j] < prev_rtts[pick]:
                        pick = j
                chosen[i] = paths[pick]["id"]
            elif strategy == "min_load":
                pick = 0
                for j in range(1, n_paths):
                    if prev_loads[j] < prev_loads[pick]:
                        pick = j
                chosen[i] = paths[pick]["id"]
            elif strategy == "attribute_aware":
                allowed = [j for j in range(n_paths)
                           if not (set(paths[j]["attrs"]) & set(forbidden))]
                pick = allowed[0]
                for j in allowed[1:]:
                    if prev_rtts[j] < prev_rtts[pick]:
                        pick = j
                chosen[i] = paths[pick]["id"]
            elif strategy == "round_robin":
                chosen[i] = 1 + cursor[i] % n_paths
                cursor[i] += 1
            elif strategy == "weighted_round_robin":
                chosen[i] = slots[cursor[i] % len(slots)]
                cursor[i] += 1
            elif strategy == "epsilon_greedy":
                if rngs[i].random() < epsilon:
                    chosen[i] = paths[rngs[i].randrange(n_paths)]["id"]
                else:
                    pick = 0
                    for j in range(1, n_paths):
                        if prev_rtts[j] < prev_rtts[pick]:
                            pick = j
                    chosen[i] = paths[pick]["id"]
            elif strategy == "blest":
                best = min(prev_rtts)
                allowed = [j for j in range(n_paths)
                           if prev_rtts[j] <= filter_factor * best]
                pick = allowed[0]
                for j in allowed[1:]:
                    if prev_rtts[j] < prev_rtts[pick]:
                        pick = j
                chosen[i] = paths[pick]["id"]
            else:
                raise ValueError(strategy)

        loads = [0.0] * n_paths
        for i in range(num_agents):
            loads[chosen[i] - 1] += cwnd[i] * mbps_per_cwnd

        overflows = [0.0] * n_paths
        rtts = [0.0] * n_paths
        for j in range(n_paths):
            overflows[j] = max(0.0, loads[j] - paths[j]["cap"])
            carried = min(loads[j], paths[j]["cap"])
            rtts[j] = paths[j]["rtt"] + max(
                0.0, queue_scale * (carried / paths[j]["cap"] - 1.0))

        for i in range(num_agents):
            j = chosen[i] - 1
            if overflows[j] > 0.0:
                cwnd[i] = max(floor, beta * cwnd[i])
            else:
                cwnd[i] = cwnd[i] + alpha * (step_ms / rtts[j])

        records.append({"step": t, "loads": list(loads),
                        "overflows": list(overflows), "rtts": list(rtts)})
        prev_loads = loads
        prev_rtts = rtts

    return records, cwnd


def oracle_agrees(telemetry):
    """True when naive_run, given the same config, produces the same
    per-step loads, overflows and RTTs and the same final windows bit for
    bit. Reads the engine's Telemetry and its config by attribute only."""
    config = telemetry.config
    aimd, engine, strategy = config.aimd, config.engine, config.strategy
    paths = [{"id": p.id, "cap": p.capacity_mbps, "rtt": p.base_rtt_ms,
              "attrs": tuple(p.attributes)} for p in config.topology.paths]
    records, cwnds = naive_run(
        paths, strategy.name, config.num_agents, engine.steps, config.seed,
        epsilon=strategy.epsilon, filter_factor=strategy.filter_factor,
        forbidden=tuple(config.forbidden_tags), step_ms=engine.step_ms,
        queue_scale=engine.queue_scale_ms, alpha=aimd.alpha, beta=aimd.beta,
        floor=aimd.cwnd_floor, initial_cwnd=aimd.initial_cwnd,
        mbps_per_cwnd=aimd.mbps_per_cwnd)
    return (tuple(cwnds) == telemetry.final_cwnds
            and len(records) == len(telemetry.records)
            and all(tuple(ref["loads"]) == rec.loads
                    and tuple(ref["overflows"]) == rec.overflows
                    and tuple(ref["rtts"]) == rec.inst_rtts
                    for ref, rec in zip(records, telemetry.records)))
