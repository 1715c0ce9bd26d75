"""Discrete-time multipath congestion simulation.

Each step: every agent commits its full window to one selected path,
per-path loads are aggregated, overload is shed proportionally across
the senders on that path, and every agent's congestion window reacts
(multiplicative decrease on loss, RTT-paced additive increase
otherwise). Telemetry records per-step per-path load/overflow/RTT plus
the final windows; the metrics layer consumes nothing else.

A step computes once whatever is the same for every agent: the choice
of the shared-choice strategies, epsilon-greedy's exploit target, and,
in one pass over the paths, each path's overflow, RTT, loss flag and
loss-free window increment. The path views a selector reads are built
only for those two choices; round robin and weighted round robin read
none, so their steps build none. The loops over agents only pick a
path, add the window to that path's load in agent order (the same float
sum as one addition per agent) and apply their path's outcome, with no
function call per agent. Shared-choice steps apply one outcome to every
window.

Cohorts: an AgentState stands for `count` consecutive agents that share
a window, a cursor and a choice. A shared-choice strategy picks a pure
function of the shared path view, so agents that start equal make the
same choice and get the same update on every step; the same holds for
round robin, whose cursors all start at 0. run() therefore steps those
five strategies as one state of count N, and keeps N singletons for
weighted round robin (staggered cursors) and epsilon-greedy (one rng per
agent). A state still adds its window to its path's load `count` times
in agent order, so the load is bit for bit the per-agent float sum;
`_repeated_add` computes that sum in O(log count) instead of O(count).

Runs are pure functions of their SimConfig: all randomness flows from
the config seed through per-agent streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .strategy import (
    PathView,
    StrategyKind,
    StrategyState,
    epsilon_explore,
    select_attribute_aware,
    select_blest,
    select_min_load,
    select_min_rtt,
    wrr_schedule,
)
from .topology import HIGH_COST_TAG, PathSpec, Topology

# strategies whose choice is a pure function of the shared view, hence
# identical for every agent within a step
_STATELESS = frozenset({"min_rtt", "min_load", "attribute_aware", "blest"})
# strategies whose agents stay identical for the whole run: run() steps
# them as one state of count N
_COHORT = _STATELESS | {"round_robin"}

# below this count a plain loop of additions beats the binade walk of
# _repeated_add. Summing four non-dyadic windows from 0.0 (best of 5 x 200
# calls, 2-vCPU x86_64 host, CPython 3.11.7), the loop against the walk
# took 5.4-6.3 us against 5.8-8.9 us at 300 additions, 8.3-8.6 us against
# 6.7-7.1 us at 400, and 49-52 us against 8.3-9.1 us at 2000
_PLAIN_LOOP_BELOW = 300
_UNITS_PER_BINADE = 2 ** 53


@dataclass(frozen=True)
class AimdParams:
    """Congestion controller constants; windows are real-valued packets."""

    initial_cwnd: float = 1.0
    alpha: float = 1.0
    beta: float = 0.5
    cwnd_floor: float = 1.0
    mbps_per_cwnd: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.cwnd_floor <= 0:
            raise ValueError("cwnd_floor must be positive")
        if self.mbps_per_cwnd <= 0:
            raise ValueError("mbps_per_cwnd must be positive")


@dataclass(frozen=True)
class EngineParams:
    steps: int = 300
    step_ms: float = 10.0
    queue_scale_ms: float = 10.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_ms <= 0:
            raise ValueError("step_ms must be positive")
        if self.queue_scale_ms < 0:
            raise ValueError("queue_scale_ms must be >= 0")


@dataclass(slots=True)
class AgentState:
    """The mutable state of `count` consecutive agents, starting at
    `agent_id`, that share a window, a cursor and a choice.

    step() adds the window to the chosen path's load once per agent and
    applies one AIMD update to the state, whatever its count. Agents stay
    identical only while they choose alike: run() builds one state of
    count N for the shared-choice strategies and round robin, and
    singletons for weighted round robin and epsilon-greedy. step() takes
    the states of all `config.num_agents` agents, and refuses
    epsilon-greedy states that are not singletons.
    """

    agent_id: int
    cwnd: float
    strategy_state: StrategyState
    chosen_path: int | None = None
    count: int = 1


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    strategy: StrategyKind
    num_agents: int
    aimd: AimdParams = AimdParams()
    engine: EngineParams = EngineParams()
    seed: int = 0
    forbidden_tags: frozenset[str] = frozenset({HIGH_COST_TAG})

    def __post_init__(self):
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """Aggregate outcome of one step; overflow_p == max(0, load_p - cap_p)."""

    step: int
    loads: tuple[float, ...]
    overflows: tuple[float, ...]
    inst_rtts: tuple[float, ...]


@dataclass(frozen=True)
class Telemetry:
    records: tuple[StepRecord, ...]
    final_cwnds: tuple[float, ...]
    config: SimConfig


def rtt_instantaneous(base_rtt_ms: float, load_mbps: float, capacity_mbps: float,
                      queue_scale_ms: float) -> float:
    """Base RTT plus a queueing term that activates above capacity."""
    if capacity_mbps <= 0:
        raise ValueError("capacity must be positive")
    if queue_scale_ms < 0:
        raise ValueError("queue scale must be >= 0")
    return base_rtt_ms + max(0.0, queue_scale_ms * (load_mbps / capacity_mbps - 1.0))


def apportion_loss(agent_loads: list[float], capacity_mbps: float) -> tuple[list[float], float]:
    """Split a path's overflow across its senders, pro rata by contribution.

    Returns (per-agent losses, overflow). Losses sum to the overflow
    exactly (within float additive error).
    """
    total = sum(agent_loads)
    overflow = max(0.0, total - capacity_mbps)
    if overflow == 0.0 or total == 0.0:
        return [0.0] * len(agent_loads), overflow
    return [overflow * load / total for load in agent_loads], overflow


def update_cwnd(cwnd: float, lost: bool, path_rtt_ms: float, step_ms: float,
                params: AimdParams) -> float:
    """One AIMD reaction: halve (clamped at the floor) on loss, otherwise
    grow by alpha per path RTT, accrued fractionally each step."""
    if lost:
        return max(params.cwnd_floor, params.beta * cwnd)
    return cwnd + params.alpha * (step_ms / path_rtt_ms)


def _repeated_add(total: float, x: float, count: int) -> float:
    """`total` after `count` sequential `total += x`, bit for bit, for
    finite `total >= 0` and `x > 0`.

    Inside one binade (floats of one ulp, `unit`) each addition rounds
    `total + x` to the nearest multiple of `unit`, ties to even. Once one
    addition has stayed inside the binade, `total` is even on a tie, and
    every further addition that stays inside adds the same exact step,
    `x` rounded to a multiple of `unit` with ties to even. So the walk
    takes, per binade, the longest run of steps that stays below the
    binade's top in one multiply, and crosses into the next binade by
    plain additions. It never takes the step from an addition that
    crossed a binade: that one rounds on the lower binade's grid, and the
    parity it leaves is not yet settled.
    """
    if count < _PLAIN_LOOP_BELOW:
        for _ in range(count):
            total += x
        return total
    exact = total + count * x
    unit = math.ulp(exact)
    if x % unit == 0.0 and total % unit == 0.0:
        # x and total are multiples of exact's ulp: so are count * x and
        # every partial sum, all below 2**53 units, hence floats, so each
        # addition is exact
        return exact
    while count:
        before = total
        total += x
        count -= 1
        unit = math.ulp(total)
        if unit != math.ulp(before):
            continue
        steps = round(x / unit)
        if not steps:
            return total
        # the binade spans 2**53 units from 0 (subnormals) or from its
        # lower power of two; stay at least one unit below its top
        leap = min(count, (_UNITS_PER_BINADE - 1 - int(total / unit)) // steps)
        total += leap * steps * unit
        count -= leap
    return total


def _views(paths: tuple[PathSpec, ...], prev: StepRecord | None) -> list[PathView]:
    if prev is None:
        return [PathView(path.id, path.capacity_mbps, path.base_rtt_ms, 0.0, path.attributes)
                for path in paths]
    return [PathView(path.id, path.capacity_mbps, rtt, load, path.attributes)
            for path, rtt, load in zip(paths, prev.inst_rtts, prev.loads)]


def _stateless_choice(strategy: StrategyKind, views: list[PathView],
                      forbidden_tags: frozenset[str]) -> int:
    if strategy.name == "min_rtt":
        return select_min_rtt(views)
    if strategy.name == "min_load":
        return select_min_load(views)
    if strategy.name == "attribute_aware":
        return select_attribute_aware(views, forbidden_tags)
    return select_blest(views, strategy.filter_factor)


def step(agents: list[AgentState], topology: Topology, prev_record: StepRecord | None,
         config: SimConfig, schedule: tuple[int, ...] | None = None,
         step_index: int = 0) -> StepRecord:
    """Advance the simulation one step, mutating the states in place.

    `agents` holds the states of all `config.num_agents` agents, in agent
    order."""
    strategy = config.strategy
    aimd = config.aimd
    mbps_per_cwnd = aimd.mbps_per_cwnd
    paths = topology.paths
    loads = [0.0] * len(paths)

    shared = strategy.name in _STATELESS
    if shared:
        choice = _stateless_choice(strategy, _views(paths, prev_record), config.forbidden_tags)
        total = 0.0
        for agent in agents:
            agent.chosen_path = choice
            total = _repeated_add(total, agent.cwnd * mbps_per_cwnd, agent.count)
        loads[choice - 1] = total
    elif strategy.name == "epsilon_greedy":
        if len(agents) != config.num_agents:
            raise ValueError("epsilon_greedy needs one state per agent: each draws "
                             "from its own rng")
        exploit = select_min_rtt(_views(paths, prev_record))
        epsilon, path_count = strategy.epsilon, len(paths)
        for agent in agents:
            explored = epsilon_explore(agent.strategy_state.rng, epsilon, path_count)
            # path ids run 1..P in topology order
            path = exploit if explored is None else explored + 1
            agent.chosen_path = path
            loads[path - 1] += agent.cwnd * mbps_per_cwnd
    else:
        # the cursor walk of select_round_robin / select_wrr: round robin
        # cycles through the path ids, WRR through its smooth schedule
        slots = schedule if strategy.name == "weighted_round_robin" else \
            range(1, len(paths) + 1)
        if not slots:
            raise ValueError("weighted_round_robin needs its non-empty wrr_schedule")
        period = len(slots)
        for agent in agents:
            state = agent.strategy_state
            path = slots[state.rr_cursor % period]
            state.rr_cursor += 1
            agent.chosen_path = path
            if agent.count == 1:
                loads[path - 1] += agent.cwnd * mbps_per_cwnd
            else:
                loads[path - 1] = _repeated_add(loads[path - 1], agent.cwnd * mbps_per_cwnd,
                                                agent.count)

    # one pass over the paths. The RTT is rtt_instantaneous's expression,
    # with max and min spelled as comparisons that pick the same operand
    # (the topology and EngineParams have already validated its inputs);
    # queue delay follows the traffic the path actually carries, so shed
    # overload does not keep adding delay. update_cwnd's per-path parts
    # are hoisted here: any positive overflow gives every sender on that
    # path a positive pro-rata share, so the loss flag needs no per-agent
    # division, and a loss-free path grows each of its windows by the
    # same increment
    queue_scale, step_ms, alpha = config.engine.queue_scale_ms, config.engine.step_ms, aimd.alpha
    overflows = []
    inst_rtts = []
    lost = []
    growth = []
    for path, load in zip(paths, loads):
        capacity = path.capacity_mbps
        excess = load - capacity
        overflows.append(excess if excess > 0.0 else 0.0)
        lost.append(excess > 0.0)
        delivered = capacity if capacity < load else load
        queue = queue_scale * (delivered / capacity - 1.0)
        rtt = path.base_rtt_ms + (queue if queue > 0.0 else 0.0)
        inst_rtts.append(rtt)
        growth.append(alpha * (step_ms / rtt))

    floor, beta = aimd.cwnd_floor, aimd.beta
    if shared and lost[choice - 1]:
        for agent in agents:
            cwnd = beta * agent.cwnd
            agent.cwnd = cwnd if cwnd > floor else floor
    elif shared:
        increment = growth[choice - 1]
        for agent in agents:
            agent.cwnd += increment
    else:
        for agent in agents:
            i = agent.chosen_path - 1
            if lost[i]:
                cwnd = beta * agent.cwnd
                agent.cwnd = cwnd if cwnd > floor else floor
            else:
                agent.cwnd += growth[i]

    return StepRecord(step=step_index, loads=tuple(loads), overflows=tuple(overflows),
                      inst_rtts=tuple(inst_rtts))


def run(config: SimConfig) -> Telemetry:
    """Execute a full simulation; same config and seed give identical telemetry."""
    schedule = None
    if config.strategy.name == "weighted_round_robin":
        schedule = wrr_schedule(config.topology.capacities())

    initial_cwnd = float(config.aimd.initial_cwnd)
    if config.strategy.name in _COHORT:
        agents = [AgentState(agent_id=0, cwnd=initial_cwnd, strategy_state=StrategyState(),
                             count=config.num_agents)]
    else:
        agents = []
        for i in range(config.num_agents):
            state = StrategyState()
            if schedule is not None:
                # stagger start slots so concurrent windows spread over the
                # schedule instead of marching on one path per step
                state.rr_cursor = i % len(schedule)
            if config.strategy.name == "epsilon_greedy":
                state.rng = random.Random(f"{config.seed}:{i}")
            agents.append(AgentState(agent_id=i, cwnd=initial_cwnd, strategy_state=state))

    records: list[StepRecord] = []
    prev: StepRecord | None = None
    for t in range(config.engine.steps):
        prev = step(agents, config.topology, prev, config, schedule, step_index=t)
        records.append(prev)
    final_cwnds: list[float] = []
    for agent in agents:
        final_cwnds += [agent.cwnd] * agent.count
    return Telemetry(records=tuple(records), final_cwnds=tuple(final_cwnds), config=config)


def timeseries_csv(telemetry: Telemetry) -> str:
    """Per-(step, path) load/overflow/RTT rows for plotting."""
    lines = ["step,path_id,load_mbps,overflow_mbps,inst_rtt_ms"]
    for record in telemetry.records:
        for i in range(len(record.loads)):
            lines.append(
                f"{record.step},{i + 1},{record.loads[i]:.6f},"
                f"{record.overflows[i]:.6f},{record.inst_rtts[i]:.6f}"
            )
    return "\n".join(lines) + "\n"
