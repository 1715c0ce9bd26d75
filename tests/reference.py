"""Straight-line reference simulator used as an oracle in tests.

Deliberately naive: plain dicts and per-agent loops. Selection rules,
the smooth-WRR schedule, the window update and epsilon-greedy's
cohort draws are re-spelled here from scratch so the production engine
has an independent implementation to be checked against. It shares no
code with mpsim.engine: the binomial sampler `binomialvariate` is its
own straight-line copy of the engine's, computing every constant on
each call, which the unit tests check draw for draw against the
engine's cached one and against the binomial pmf.

It also keeps the single-agent formulas that the engine inlines and
the package therefore no longer exports: the RTT view, pro-rata loss,
the AIMD update, the cursor walks, epsilon-greedy's selector and draw,
and goodput. The unit tests check them as the model's specification.
The cursor walks and epsilon-greedy's selector advance one agent's
`SelectorState`; the engine keeps no such state, since its cursors
follow from the step index.
"""

import math
import random

HIGH_COST = "high-cost"


def binomialvariate(random, n, p):
    """A draw of Bin(n, p) from the uniforms of `random`: by symmetry
    p <= 0.5, below n * p = 10 Devroye's geometric method, above it
    Hörmann's BTRS, as CPython 3.12's random.binomialvariate draws it,
    except that n = 0 draws nothing and a uniform of 0.0 reaches no log
    or division."""
    if not n or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return 1 if random() < p else 0
    if p > 0.5:
        return n - binomialvariate(random, n, 1.0 - p)
    if n * p < 10.0:
        c = math.log2(1.0 - p)
        if not c:
            return 0
        x = y = 0
        while True:
            y += math.floor(math.log2(1.0 - random()) / c) + 1
            if y > n:
                return x
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = lpq = m = h = None
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if not us:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random()
        if us >= 0.07 and v <= vr:
            return k
        if alpha is None:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
        v *= alpha / (a / (us * us) + b)
        if not v or (math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     + (k - m) * lpq):
            return k


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
              initial_cwnd=1.0):
    """Run the simulation the slow, obvious way.

    paths: list of dicts {"id", "cap", "rtt", "attrs"}.
    Returns (records, cwnds) where each record is a dict with "loads",
    "overflows", "rtts" lists indexed by path position. One window unit
    carries 1 Mbps. The engine fixes the step at 10 ms; `step_ms` stays
    a parameter because perfbench/checks.py passes it.

    Every strategy but weighted round robin groups its agents by window
    into cohorts each step, taken in ascending window order: each path's
    load adds its agents' windows cohort by cohort, and the final windows
    come back in ascending order. Weighted round robin adds them in
    agent order and returns them so.

    Epsilon-greedy at epsilon > 0 draws from one stream seeded with
    str(seed), cohort by cohort. A cohort of one draws as an agent:
    explore with probability epsilon, then a uniform path by randrange.
    A cohort of k draws X ~ Bin(k, epsilon) explorers and spreads them
    over the paths in path order by Bin(left, 1 / paths left); the other
    k - X agents exploit the min-RTT path.
    """
    n_paths = len(paths)
    cwnd = [float(initial_cwnd)] * num_agents
    cursor = [0] * num_agents
    rng = None
    if strategy == "epsilon_greedy" and epsilon > 0:
        rng = random.Random(str(seed))
    slots = None
    if strategy == "weighted_round_robin":
        slots = smooth_wrr_slots([p["cap"] for p in paths])
        for i in range(num_agents):
            cursor[i] = i % len(slots)

    prev_loads = [0.0] * n_paths
    # step 0 ranks the base RTTs as floats, as every later step ranks them
    prev_rtts = [float(p["rtt"]) for p in paths]
    records = []

    for t in range(steps):
        chosen = [0] * num_agents
        cohorts = None
        if slots is None:
            by_window = {}
            for i in range(num_agents):
                by_window.setdefault(cwnd[i], []).append(i)
            cohorts = [by_window[w] for w in sorted(by_window)]
        if rng is not None:
            pick = 0
            for j in range(1, n_paths):
                if prev_rtts[j] < prev_rtts[pick]:
                    pick = j
            for members in cohorts:
                shares = [0] * n_paths
                if len(members) == 1:
                    if rng.random() < epsilon:
                        shares[rng.randrange(n_paths)] = 1
                    else:
                        shares[pick] = 1
                else:
                    explorers = binomialvariate(rng.random, len(members), epsilon)
                    left = explorers
                    for j in range(n_paths - 1):
                        shares[j] = binomialvariate(rng.random, left, 1.0 / (n_paths - j))
                        left -= shares[j]
                    shares[n_paths - 1] = left
                    shares[pick] += len(members) - explorers
                start = 0
                for j in range(n_paths):
                    for i in members[start:start + shares[j]]:
                        chosen[i] = paths[j]["id"]
                    start += shares[j]
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
                if rng is not None:
                    continue  # drawn by its cohort above
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
        for i in (range(num_agents) if cohorts is None
                  else [i for members in cohorts for i in members]):
            loads[chosen[i] - 1] += cwnd[i]

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

    return records, (cwnd if slots is not None else sorted(cwnd))


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
        epsilon=strategy.epsilon, forbidden=tuple(config.forbidden_tags),
        step_ms=engine.step_ms, alpha=aimd.alpha, beta=aimd.beta,
        floor=aimd.cwnd_floor, initial_cwnd=aimd.initial_cwnd)
    return (tuple(cwnds) == telemetry.final_cwnds
            and len(records) == len(telemetry.records)
            and all(tuple(ref["loads"]) == rec.loads
                    and tuple(ref["overflows"]) == rec.overflows
                    and tuple(ref["rtts"]) == rec.inst_rtts
                    for ref, rec in zip(records, telemetry.records)))


def rtt_instantaneous(base_rtt_ms, load_mbps, capacity_mbps, queue_scale_ms):
    """Base RTT plus a queueing term that activates above capacity."""
    if capacity_mbps <= 0:
        raise ValueError("capacity must be positive")
    if queue_scale_ms < 0:
        raise ValueError("queue scale must be >= 0")
    return base_rtt_ms + max(0.0, queue_scale_ms * (load_mbps / capacity_mbps - 1.0))


def apportion_loss(agent_loads, capacity_mbps):
    """Split a path's overflow across its senders, pro rata by contribution.

    Returns (per-agent losses, overflow). Losses sum to the overflow
    exactly (within float additive error).
    """
    total = sum(agent_loads)
    overflow = max(0.0, total - capacity_mbps)
    if overflow == 0.0 or total == 0.0:
        return [0.0] * len(agent_loads), overflow
    return [overflow * load / total for load in agent_loads], overflow


def update_cwnd(cwnd, lost, path_rtt_ms, step_ms, params):
    """One AIMD reaction: halve (clamped at the floor) on loss, otherwise
    grow by alpha per path RTT, accrued fractionally each step."""
    if lost:
        return max(params.cwnd_floor, params.beta * cwnd)
    return cwnd + params.alpha * (step_ms / path_rtt_ms)


class SelectorState:
    """One agent's cyclic cursor and seeded rng, for the helpers below."""

    def __init__(self, rr_cursor=0, rng=None):
        self.rr_cursor = rr_cursor
        self.rng = rng


def select_round_robin(state, path_count):
    """Fixed rotation over path ids; advances the cursor by one."""
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    path_id = 1 + state.rr_cursor % path_count
    state.rr_cursor += 1
    return path_id


def select_wrr(state, schedule):
    """Walk the precomputed smooth-WRR schedule; advances the cursor."""
    if not schedule:
        raise ValueError("empty schedule")
    path_id = schedule[state.rr_cursor % len(schedule)]
    state.rr_cursor += 1
    return path_id


def epsilon_explore(rng, epsilon, path_count):
    """The position of a uniformly random path to explore with
    probability epsilon, or None to exploit."""
    if rng.random() < epsilon:
        return rng.randrange(path_count)
    return None


def select_epsilon_greedy(state, rtts, epsilon):
    """Explore a uniformly random path with probability epsilon, else
    exploit min-RTT (lowest path id on ties). `rtts` holds one RTT per
    path, path id i at index i - 1, as the package's selectors take
    them. Both draws come from the agent's own seeded stream."""
    if not rtts:
        raise ValueError("cannot select from no paths")
    if state.rng is None:
        raise ValueError("epsilon-greedy needs a seeded rng in SelectorState")
    explored = epsilon_explore(state.rng, epsilon, len(rtts))
    if explored is not None:
        return explored + 1
    return min(range(len(rtts)), key=lambda i: (rtts[i], i)) + 1


def goodput(telemetry):
    """Mean over steps of the capacity-limited delivered load."""
    records = telemetry.records
    if not records:
        raise ValueError("telemetry has no records")
    caps = telemetry.config.topology.capacities()
    return sum(
        sum(min(load, cap) for load, cap in zip(r.loads, caps)) for r in records
    ) / len(records)
