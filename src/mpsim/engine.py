"""Discrete-time multipath congestion simulation.

Each step: every agent commits its full window to one selected path,
per-path loads are aggregated, overload is shed proportionally across
the senders on that path, and every agent's congestion window reacts
(multiplicative decrease on loss, RTT-paced additive increase
otherwise). Telemetry records per-step per-path load/overflow/RTT plus
the final windows; the metrics layer consumes nothing else.

A path's RTT is its base RTT on every step: the delay that queues add
above capacity follows the load a path carries, which never exceeds
its capacity, so it is always 0. The RTTs, and with them each path's
loss-free window increment, alpha per RTT, are constants of the run,
and every record shares the one tuple of base RTTs as floats.

The constants a step reads of its config are derived on first use and
cached on it (`SimConfig._constants`), among them the path of a rule in
`_SHARED_CHOICE` that ranks only the base RTTs (min-RTT's and
attribute-aware's). A step computes once whatever else is the same for
every agent: the path of a rule that reads the previous record's loads
or the step index, and, in one pass over the paths, each path's
overflow and loss flag. The loops over states only pick a path, put
the state on that path's list of senders and add the window to that
path's load in agent order (the same float sum as one addition per
agent), with no function call per state beyond the appends and
epsilon-greedy's draws. The path pass then applies each path's outcome
to its list, so the AIMD update is one loop for every strategy. On a
lost path it skips the windows already at the floor:
beta * floor < floor, so the clamp would write the floor back.

The path pass skips a path without senders: its load is exactly 0.0,
so its overflow is 0.0. Where every state takes the rule's path, it
visits only that path. Records are slotted frozen dataclasses whose
slots step() fills through their descriptors.

Layouts: run() lays the N agents out as S states, each standing for
`count` agents that share a window and a choice; agents that start
equal and always choose alike stay identical. Weighted round robin
staggers agent i's cursor to slot i mod L of its L-slot schedule and
advances it once a step, so it picks slot (i + t) mod L at step t and
the agents of one cursor class stay identical: S = min(N, L), state k
standing for agents k, k + S, k + 2S, ... No state holds a cursor; it
follows from the state's index in the list and the step index, which
step() reads off the previous record. Agent order visits the states
round by round, so a path's load is the sequential float sum over that
periodic sequence, bit for bit the per-agent sum; `_repeated_add`
computes a run of equal windows in O(log count) instead of O(count).
run() lists the final windows the same way, by tuple repetition: each
state's one float object repeated for its agents, the S cursor classes
round by round or the cohorts one after another, with no Python step per
agent; `metrics.jain_fairness` finds the runs of that object by identity.

Every other strategy keeps its agents as cohorts: the distinct windows
with their agent counts, in ascending window order (agents with equal
windows are exchangeable). Each path's load adds its senders' windows
cohort by cohort in that order. The AIMD update applies once per
(cohort, path) state, and one sort-and-merge after the path pass
restores the layout, making the states whose windows come out equal one
cohort; a step that holds a single state, with nothing split off, skips
it. The rule gives the path every agent takes, a function of the
previous record and the step index t: min-RTT (and BLEST, whose filter
always keeps the min-RTT path) and attribute-aware read the base RTTs,
min-load the record, and round robin's cursors all start at 0, so every
agent picks path 1 + t mod P; the N agents that run() starts as one
cohort stay one. Epsilon-greedy's rule is min-RTT's, the path its
exploiters take; at epsilon > 0 some agents explore, all drawing from
one stream per run. Each step a cohort of k agents draws X ~ Bin(k,
epsilon) explorers, exact in distribution (`binomialvariate`), and
spreads them over the P paths in path order by Bin(left, 1 / (P - j)),
the sequential form of a multinomial with equal cells; its k - X
exploiters take the rule's path. A cohort of one draws as a single
agent: one uniform against epsilon, then the explored index. So the
counts on each path have exactly the law of k independent agents'
choices, and each path's load adds its share of each cohort's window. A
step costs O(cohorts x P) instead of O(N): at N = 500 and epsilon 0.1
about 5 cohorts, most agents sitting on the floor.

Recurrence: a greedy herd settles into a fixed point or a short cycle,
and run() then stops recomputing it. Step t reads only the states'
windows, the previous record's loads (min-load's rule reads
them), the step index through the cursors' t mod phase (the schedule
length L for weighted round robin, the path count P otherwise) and
`chosen_path`, which it writes before it reads it. So once that state
after step t equals the state after an earlier step m, with t - m a
multiple of the phase, the records from step t + 1 on repeat those
from step m + 1 with period t - m, bit for bit. run() compares each
step's state with a mark that it moves at doubling distances (Brent,
"An improved Monte Carlo factorization algorithm", BIT 20, 1980),
testing the loads first: one tuple compare per step on a run that
never recurs. On a match it keeps the remaining whole cycles of
records, which end in the same state, as a count (`Records`), builds
the record of the last copied step for the leftover steps to read, and
steps those. `metrics.score` adds the cycle's values per repeat; a
copy is built only when the records are read, sharing its cycle
record's tuples.
Epsilon-greedy at epsilon > 0 is excluded: the run's rng is part of
its state, and its stream never repeats within a run.

Runs are pure functions of their SimConfig: all randomness flows from
the config seed through one stream per run, seeded from the seed's
string (so seeds s and -s draw apart).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .strategy import (
    StrategyKind,
    select_attribute_aware,
    select_min_load,
    select_min_rtt,
    wrr_schedule,
)
from .topology import HIGH_COST_TAG, Topology

DEFAULT_STEPS = 300

_floor, _lgamma, _log, _log2, _sqrt = math.floor, math.lgamma, math.log, math.log2, math.sqrt

# below this count a plain loop of additions beats the binade walk of
# _repeated_add. Summing four non-dyadic windows from 0.0 (best of 5 x 200
# calls, 2-vCPU x86_64 host, CPython 3.11.7), the loop against the walk
# took 5.4-6.3 us against 5.8-8.9 us at 300 additions, 8.3-8.6 us against
# 6.7-7.1 us at 400, and 49-52 us against 8.3-9.1 us at 2000
_PLAIN_LOOP_BELOW = 300
# from this count on, _repeated_add first tests whether every partial sum
# is exact (windows on a coarse grid, such as a herd at the floor), which
# costs about as much as this many plain additions
_EXACT_TEST_FROM = 16
_UNITS_PER_BINADE = 2 ** 53
# from this many rounds of states on, _later_rounds tests whether each
# path's column of windows is equal before it walks round by round. Timed
# as run() of weighted round robin, 300 steps, on the default topology (23
# cursor classes; benchmarks/ab_run.py's interleaving, 15 rounds, median
# ratio to always walking, 2-vCPU x86_64 host, CPython 3.11.7): testing
# from 6 rounds on took 1.16-1.18x at N = 150 (6 rounds) and 1.08-1.13x at
# N = 184 and 200 (8 rounds), where some column differs on 299, 299 and 150
# of the 300 steps, and 0.84-0.85x at N = 250 (10 rounds), 0.77x at N = 276
# and 0.66x at N = 500, where none does
_COLUMNS_FROM_ROUND = 10


def _index(owner, name: str) -> None:
    """Store `owner`'s field `name` as what operator.index makes of it;
    refuse a bool, which operator.index takes but is not a count."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    object.__setattr__(owner, name, operator.index(value))


@dataclass(frozen=True)
class AimdParams:
    """Congestion controller constants; windows are real-valued packets.

    `cwnd_floor` bounds only the multiplicative decrease: a loss sets the
    window to max(floor, beta * cwnd). Any positive `initial_cwnd` is
    accepted, also one below the floor; such a window grows until its
    first loss, which leaves it at the floor or above.
    """

    initial_cwnd: float = 1.0
    alpha: float = 1.0
    beta: float = 0.5
    cwnd_floor: float = 1.0
    mbps_per_cwnd: float = 1.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        for name in ("initial_cwnd", "alpha", "cwnd_floor", "mbps_per_cwnd"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass(frozen=True)
class EngineParams:
    steps: int = DEFAULT_STEPS
    step_ms: float = 10.0
    # not an option: only perfbench/checks.py's oracle call reads it (ROADMAP item 5)
    queue_scale_ms: ClassVar[float] = 10.0

    def __post_init__(self):
        _index(self, "steps")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.step_ms < math.inf:
            raise ValueError("step_ms must be positive and finite")


@dataclass(slots=True)
class AgentState:
    """The mutable state of `count` agents that share a window and, for
    the step, a choice.

    step() adds the window to the chosen path's load once per agent and
    applies one AIMD update to the state, whatever its count. For
    weighted round robin run() builds one state per cursor class: state
    k of its S states stands for agents k, k + S, k + 2S, ..., and its
    cursor is k plus the step index. Every other strategy keeps one
    cohort per distinct window, in ascending window order (see the
    module docstring); run() starts it as one cohort of count N.
    """

    cwnd: float
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
        _index(self, "num_agents")
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")
        # frozenset("high-cost") would be a set of characters
        tags = frozenset(self.forbidden_tags)
        if isinstance(self.forbidden_tags, str) or not all(isinstance(tag, str) for tag in tags):
            raise TypeError("forbidden_tags must be a collection of str tags")
        object.__setattr__(self, "forbidden_tags", tags)

    @cached_property
    def _constants(self) -> tuple:
        """What step() reads of this config, derived on first use (the
        config is frozen, so these are constants of its run), in step()'s
        order: the base RTTs as floats, which every record holds; the path
        of a rule that reads only them, or 0; a rule that step() calls
        every step, or None (both 0 and None for weighted round robin);
        whether it draws (epsilon-greedy at epsilon > 0), epsilon,
        mbps_per_cwnd, the capacities, each path's loss-free increment,
        beta and the floor. Attribute-aware's rule raises here, on the
        run's first step, when every path is forbidden."""
        strategy, aimd, paths = self.strategy, self.aimd, self.topology.paths
        rtts = tuple(float(path.base_rtt_ms) for path in paths)
        rule, constant = _SHARED_CHOICE.get(strategy.name, (None, False))
        return (
            rtts, rule(self, rtts) if constant else 0, None if constant else rule,
            strategy.name == "epsilon_greedy" and strategy.epsilon > 0, strategy.epsilon,
            aimd.mbps_per_cwnd, self.topology.capacities(),
            tuple(aimd.alpha * (self.engine.step_ms / rtt) for rtt in rtts),
            aimd.beta, aimd.cwnd_floor)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Aggregate outcome of one step; overflow_p == max(0, load_p - cap_p)."""

    step: int
    loads: tuple[float, ...]
    overflows: tuple[float, ...]
    inst_rtts: tuple[float, ...]


def _record(step: int, loads: tuple[float, ...], overflows: tuple[float, ...],
            inst_rtts: tuple[float, ...]) -> StepRecord:
    """StepRecord(step, loads, overflows, inst_rtts) built without the
    constructor: its four slots are filled through their descriptors,
    which bypass the frozen class's __setattr__. It builds every computed
    record and every copy that Records reads, 0.54 against 0.82 us for the
    unslotted record's object.__setattr__ calls and 1.0 us for the
    constructor (medians of 40 interleaved samples, 2-vCPU x86_64 host,
    CPython 3.11.7). A slotted record has no __dict__, so vars() does
    not apply to it."""
    record = _new_record(StepRecord)
    _set_step(record, step)
    _set_loads(record, loads)
    _set_overflows(record, overflows)
    _set_inst_rtts(record, inst_rtts)
    return record


_new_record = object.__new__
_set_step, _set_loads, _set_overflows, _set_inst_rtts = (
    StepRecord.__dict__[name].__set__ for name in ("step", "loads", "overflows", "inst_rtts"))


class Records:
    """A run's step records, read as their tuple: the `computed` ones, the
    first `split` of which are followed by `cycles` repeats of their last
    `period` (see the module docstring's "Recurrence"), then the rest. A
    copy is built when read, sharing its cycle record's tuples under its
    own step index; a slice is a tuple, and ==, hash and repr are the
    tuple's."""

    __slots__ = ("computed", "split", "period", "cycles")

    def __init__(self, computed: tuple[StepRecord, ...], split: int, period=0, cycles=0):
        for name, value in zip(Records.__slots__, (computed, split, period, cycles)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Records, (self.computed, self.split, self.period, self.cycles)

    def parts(self) -> tuple[tuple[StepRecord, ...], tuple[StepRecord, ...], int, tuple]:
        """(the records before the copies, the cycle they end in, its number
        of repeats, the records after them)."""
        computed, split = self.computed, self.split
        return computed[:split], computed[split - self.period:split], self.cycles, computed[split:]

    def _tuple(self) -> tuple[StepRecord, ...]:
        if not self.cycles:
            return self.computed
        before, cycle_records, cycles, after = self.parts()
        copies = (_record(step, record.loads, record.overflows, record.inst_rtts)
                  for step, record in enumerate(cycle_records * cycles, self.split))
        return before + tuple(copies) + after

    def __len__(self) -> int:
        return len(self.computed) + self.period * self.cycles

    def __iter__(self):
        return iter(self._tuple())

    def __getitem__(self, index):
        split, period, copies = self.split, self.period, self.period * self.cycles
        if not copies or isinstance(index, slice):
            return self._tuple()[index]
        i = range(len(self))[index]  # refuses an index out of range
        if 0 <= i - split < copies:
            source = self.computed[split - period + (i - split) % period]
            return _record(i, source.loads, source.overflows, source.inst_rtts)
        return self.computed[i if i < split else i - copies]

    def __eq__(self, other):
        return self._tuple() == (other._tuple() if isinstance(other, Records) else other)

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


@dataclass(frozen=True)
class Telemetry:
    """A run's records, final windows in agent order and config; records
    given as a tuple or list are kept as Records without copies."""

    records: Records
    final_cwnds: tuple[float, ...]
    config: SimConfig

    def __post_init__(self):
        if not isinstance(self.records, Records):
            records = tuple(self.records)
            object.__setattr__(self, "records", Records(records, len(records)))


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
    if count >= _EXACT_TEST_FROM:
        exact = total + count * x
        unit = math.ulp(exact)
        if x % unit == 0.0 and total % unit == 0.0:
            # x and total are multiples of exact's ulp: so are count * x and
            # every partial sum, all below 2**53 units, hence floats, so
            # each addition is exact
            return exact
    if count < _PLAIN_LOOP_BELOW:
        for _ in range(count):
            total += x
        return total
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


def binomialvariate(random, n: int, p: float) -> int:
    """A draw of Bin(n, p), exact in distribution, from the uniforms of
    `random` (a `random.Random`'s bound method): CPython 3.12's
    `random.binomialvariate`, which 3.11 lacks. By symmetry p <= 0.5;
    below n * p = 10 Devroye's geometric method (Non-Uniform Random
    Variate Generation, 1986, ch. X), above it Hörmann's BTRS (J. Stat.
    Comput. Simul. 46, 1993). Unlike CPython, n = 0 draws nothing and a
    uniform of 0.0 reaches no log or division."""
    if not n or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return 1 if random() < p else 0
    if p > 0.5:
        return n - binomialvariate(random, n, 1.0 - p)
    if n * p < 10.0:
        # the gaps between successes are geometric: count the successes
        # whose trial index stays within n
        c = _log2(1.0 - p)
        if not c:
            return 0
        x = y = 0
        while True:
            y += _floor(_log2(1.0 - random()) / c) + 1
            if y > n:
                return x
            x += 1
    spq = _sqrt(n * p * (1.0 - p))
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
        k = _floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random()
        if us >= 0.07 and v <= vr:
            return k
        if alpha is None:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = _log(p / (1.0 - p))
            m = _floor((n + 1) * p)
            h = _lgamma(m + 1) + _lgamma(n - m + 1)
        v *= alpha / (a / (us * us) + b)
        if not v or (_log(v) <= h - _lgamma(k + 1) - _lgamma(n - k + 1)
                     + (k - m) * lpq):
            return k


_by_cwnd = operator.attrgetter("cwnd")


# the rules of the strategies stepped as cohorts give the path every
# agent takes, under epsilon-greedy the path its exploiters take.
# Min-RTT and attribute-aware rank the base RTTs, every step's RTTs, so
# SimConfig._constants calls them once per config: rule(config, base
# RTTs). BLEST's filter always keeps the min-RTT path, so it shares
# min-RTT's rule. step() calls the others every step: rule(config,
# previous record, step index). At step 0 every load is 0, so min-load
# takes path 1; round robin's cursors all start at 0 and advance once a
# step. The selectors are looked up as module globals where they are
# called, where perfbench's counters wrap them
def _min_rtt(config: SimConfig, rtts: tuple[float, ...]) -> int:
    return select_min_rtt(rtts)


def _attribute_aware(config: SimConfig, rtts: tuple[float, ...]) -> int:
    return select_attribute_aware(rtts, [path.attributes for path in config.topology.paths],
                                  config.forbidden_tags)


def _min_load(config: SimConfig, prev: StepRecord | None, t: int) -> int:
    return select_min_load(prev.loads) if prev else 1


def _round_robin(config: SimConfig, prev: StepRecord | None, t: int) -> int:
    return 1 + t % len(config.topology.paths)


# name -> (rule, whether it reads only constants of the run). Functions,
# not lambdas: a config's _constants holds its per-step rule, and a
# lambda would not pickle
_SHARED_CHOICE = {"min_rtt": (_min_rtt, True), "attribute_aware": (_attribute_aware, True),
                  "epsilon_greedy": (_min_rtt, True), "blest": (_min_rtt, True),
                  "min_load": (_min_load, False), "round_robin": (_round_robin, False)}


def _later_rounds(loads: list[float], agents: list[AgentState], num_agents: int,
                  mbps_per_cwnd: float) -> None:
    """Add to `loads`, in agent order, the windows of the agents after
    the first round of the S = len(agents) states, whose first round
    the caller has added.

    Agent order visits the states round by round: N // S full rounds,
    then the first N mod S states once more. Each path's part of one
    round is its states' windows in state order (a column), so its
    later load is that column repeated, then the column's prefix from
    the partial round. When every column holds equal windows, each path
    is one run of additions; otherwise the states are walked round by
    round.
    """
    rounds, rest = divmod(num_agents, len(agents))
    if rounds >= _COLUMNS_FROM_ROUND:
        columns = [[] for _ in loads]
        for agent in agents:
            columns[agent.chosen_path - 1].append(agent.cwnd * mbps_per_cwnd)
        if all(column.count(column[0]) == len(column) for column in columns if column):
            heads = [0] * len(loads)
            for agent in agents[:rest]:
                heads[agent.chosen_path - 1] += 1
            for i, column in enumerate(columns):
                if column:
                    loads[i] = _repeated_add(loads[i], column[0],
                                             (rounds - 1) * len(column) + heads[i])
            return
    for agent in agents * (rounds - 1) + agents[:rest]:
        loads[agent.chosen_path - 1] += agent.cwnd * mbps_per_cwnd


def step(agents: list[AgentState], prev_record: StepRecord | None, config: SimConfig,
         schedule: tuple[int, ...] | None = None,
         rng: random.Random | None = None) -> StepRecord:
    """Advance the simulation one step, mutating the states in place.

    `agents` holds the states of all `config.num_agents` agents in
    run()'s layout; `schedule` is weighted round robin's wrr_schedule and
    `rng` the run's stream that epsilon-greedy at epsilon > 0 draws from.
    Each is required by its strategy and refused by every other one.
    A cohort strategy's list ends the step as the new cohorts. The step
    index follows `prev_record`'s."""
    t = 0 if prev_record is None else prev_record.step + 1
    (rtts, constant_path, rule, draws, epsilon, mbps_per_cwnd, capacities, increments,
     beta, floor) = config._constants
    path_count = len(capacities)
    loads = [0.0] * path_count

    if (rng is not None) != draws:
        raise ValueError("epsilon_greedy needs the run's rng" if rng is None
                         else "only epsilon_greedy at epsilon > 0 draws from an rng")
    # `senders` pairs a path's index (path ids run 1..P in topology order)
    # with its states in agent order, for the path pass
    if not (constant_path or rule):
        if not schedule:
            raise ValueError("weighted_round_robin needs its non-empty wrr_schedule")
        # state k's cursor starts at slot k and advances once a step
        # through the smooth schedule
        period = len(schedule)
        members = [[] for _ in capacities]
        for k, agent in enumerate(agents):
            path = schedule[(k + t) % period]
            agent.chosen_path = path
            members[path - 1].append(agent)
            loads[path - 1] += agent.cwnd * mbps_per_cwnd
        if len(agents) < config.num_agents:
            _later_rounds(loads, agents, config.num_agents, mbps_per_cwnd)
        senders = enumerate(members)
    else:
        if schedule is not None:
            raise ValueError("only weighted_round_robin takes a wrr_schedule")
        choice = constant_path or rule(config, prev_record, t)
        if rng is None:
            # cohorts that never draw: all take the rule's path, in cohort order
            total = 0.0
            for agent in agents:
                agent.chosen_path = choice
                total = _repeated_add(total, agent.cwnd * mbps_per_cwnd, agent.count)
            loads[choice - 1] = total
            senders = ((choice - 1, agents),)
        else:
            # the rule's path is the one the exploiters take
            exploit = choice - 1
            last_path = path_count - 1
            uniform, getrandbits = rng.random, rng.getrandbits
            # a singleton's explored index is rng.randrange(path_count), drawn
            # as CPython's Random._randbelow_with_getrandbits draws it (same
            # value, same rng state) without randrange's argument checks
            bits = path_count.bit_length()
            # a loop, not a comprehension: CPython 3.11 calls a comprehension
            # as a function, about 0.2 us a step here
            members = []
            for _ in capacities:
                members.append([])
            add_exploiter = members[exploit].append
            born = []
            # cohort by cohort in ascending window order, so each path's load
            # adds its cohorts' windows in that order
            # the exploited path's load, to which most states add, sums in a local
            exploit_load = 0.0
            for agent in agents:
                if agent.count == 1:
                    path = exploit
                    if uniform() < epsilon:
                        path = getrandbits(bits)
                        while path >= path_count:
                            path = getrandbits(bits)
                    agent.chosen_path = path + 1
                    members[path].append(agent)
                    if path == exploit:
                        exploit_load += agent.cwnd * mbps_per_cwnd
                    else:
                        loads[path] += agent.cwnd * mbps_per_cwnd
                    continue
                # Bin(count, epsilon) explorers, spread over the paths in path
                # order by Bin(left, 1 / paths left), a multinomial of equal
                # cells; the last path takes the rest, which is what its
                # Bin(left, 1) would return without a draw. The exploiters
                # join the min-RTT path's share
                count = agent.count
                load = agent.cwnd * mbps_per_cwnd
                explorers = left = binomialvariate(uniform, count, epsilon)
                if not explorers:
                    agent.chosen_path = choice
                    add_exploiter(agent)
                    exploit_load = _repeated_add(exploit_load, load, count)
                    continue
                state = agent
                for path in range(path_count):
                    share = (left if path == last_path
                             else left and binomialvariate(uniform, left, 1.0 / (path_count - path)))
                    left -= share
                    if path == exploit:
                        share += count - explorers
                    if not share:
                        continue
                    if state is None:
                        state = AgentState(agent.cwnd, path + 1, share)
                        born.append(state)
                    else:
                        state.chosen_path, state.count = path + 1, share
                    members[path].append(state)
                    if path == exploit:
                        exploit_load = _repeated_add(exploit_load, load, share)
                    else:
                        loads[path] = _repeated_add(loads[path], load, share)
                    state = None
            loads[exploit] = exploit_load
            agents += born
            senders = enumerate(members)

    # one pass over the paths with senders, which also applies the AIMD
    # update. A path without senders keeps overflow 0.0, what the
    # arithmetic below gives at load 0.0 (see the module docstring).
    # Any positive overflow gives every sender on that path a positive
    # pro-rata share, so the loss flag needs no per-agent division: its
    # senders halve, clamped at the floor. A loss-free path grows each
    # of its windows by the path's increment, alpha per base RTT
    overflows = [0.0] * path_count
    for i, states in senders:
        if not states:
            continue
        excess = loads[i] - capacities[i]
        if excess > 0.0:
            overflows[i] = excess
            # beta * floor < floor: a window at the floor stays there,
            # one below it (an initial_cwnd under the floor) is lifted
            for agent in states:
                if agent.cwnd != floor:
                    cwnd = beta * agent.cwnd
                    agent.cwnd = cwnd if cwnd > floor else floor
        else:
            increment = increments[i]
            for agent in states:
                agent.cwnd += increment

    if schedule is None and len(agents) > 1:
        # the new cohorts: the states in ascending window order, and where
        # the update made windows equal (say two cohorts halved onto the
        # floor) one state for them, which keeps the first one's path
        agents.sort(key=_by_cwnd)
        last = None
        for state in agents:
            if state.cwnd == last:
                cohorts = []
                for part in agents:
                    if cohorts and part.cwnd == cohorts[-1].cwnd:
                        cohorts[-1].count += part.count
                    else:
                        cohorts.append(part)
                agents[:] = cohorts
                break
            last = state.cwnd

    return _record(t, tuple(loads), tuple(overflows), rtts)


def run(config: SimConfig) -> Telemetry:
    """Execute a full simulation; same config and seed give identical telemetry.

    Every record comes from step(), reached through the module global,
    except in a run without an rng whose state recurs (see the module
    docstring): there Records keeps the remaining whole cycles as a
    count, and builds a copy, sharing the cycle's tuples, when read."""
    strategy, agent_count = config.strategy, config.num_agents
    initial_cwnd = float(config.aimd.initial_cwnd)
    schedule = rng = None
    if strategy.name == "weighted_round_robin":
        # weighted round robin staggers agent i's start slot to i mod L so
        # concurrent windows spread over the schedule instead of marching
        # on one path per step; each cursor class is one state
        schedule = wrr_schedule(config.topology.capacities())
        classes = min(agent_count, len(schedule))
        rounds, rest = divmod(agent_count, classes)
        agents = [AgentState(cwnd=initial_cwnd, count=rounds + (k < rest))
                  for k in range(classes)]
    else:
        # one state of all N agents, which epsilon-greedy at epsilon > 0
        # takes as its first cohort, with one stream for the run seeded
        # from the seed's string: one SHA-512, and -s seeds apart from s
        agents = [AgentState(cwnd=initial_cwnd, count=agent_count)]
        if strategy.name == "epsilon_greedy" and strategy.epsilon > 0:
            rng = random.Random(str(config.seed))

    # Brent's mark: the state after step `mark`, moved to the current step
    # whenever the distance reaches `reach`, which then doubles. A cycle's
    # length must be a multiple of the phase of the rules that read t
    phase = len(schedule) if schedule else len(config.topology.paths)
    watching = rng is None
    mark, mark_loads, mark_cwnds, reach = -1, None, None, 1
    steps = config.engine.steps
    records: list[StepRecord] = []
    split, period, cycles = steps, 0, 0
    prev: StepRecord | None = None
    t = 0
    while t < steps:
        prev = step(agents, prev, config, schedule, rng)
        records.append(prev)
        if watching:
            if (prev.loads == mark_loads and (t - mark) % phase == 0
                    and [agent.cwnd for agent in agents] == mark_cwnds):
                # records mark + 1 .. t come round again: keep their whole
                # cycles, which end in this step's state, as a count, and
                # step the rest from the last copy's record
                split, period = t + 1, t - mark
                cycles = (steps - 1 - t) // period
                t += cycles * period
                prev = _record(t, prev.loads, prev.overflows, prev.inst_rtts)
                watching = False
            elif t - mark == reach:
                mark, mark_loads, reach = t, prev.loads, 2 * reach
                mark_cwnds = [agent.cwnd for agent in agents]
        t += 1
    if schedule:
        # agent i is state i mod S: the S windows repeated in agent order
        cwnds = tuple(map(_by_cwnd, agents))
        rounds, rest = divmod(agent_count, len(cwnds))
        final_cwnds = cwnds * rounds + cwnds[:rest]
    elif len(agents) == 1:
        # a herd: its one window object repeated N times
        final_cwnds = (agents[0].cwnd,) * agents[0].count
    else:
        # each cohort's window object repeated by its count, in cohort order
        windows = []
        for agent in agents:
            windows += (agent.cwnd,) * agent.count
        final_cwnds = tuple(windows)
    return Telemetry(records=Records(tuple(records), split, period, cycles),
                     final_cwnds=final_cwnds, config=config)


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
