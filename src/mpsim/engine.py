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
equal and always choose alike stay identical. `SimConfig._constants`
decides the layout once: weighted round robin's schedule (empty for
every other strategy) and whether the run draws. Weighted round robin
staggers agent i's cursor to slot i mod L of its L-slot schedule and
advances it once a step, so it picks slot (i + t) mod L at step t and
the agents of one cursor class stay identical: S = min(N, L), state k
standing for agents k, k + S, k + 2S, ... No state holds a cursor; it
follows from the state's index in the list and the step index, which
step() reads off the previous record. Agent order visits the states
round by round, so a path's load is the sequential float sum over that
periodic sequence, bit for bit the per-agent sum. From
`_COLUMNS_FROM_ROUND` rounds on, where each path's senders share one
window, step() adds a path's later rounds as one run, N // S - 1 per
sender and one per sender among the first N mod S states, which
`_repeated_add` computes at once where every partial sum is exact
(windows on a coarse grid, such as at the floor). run() lists the final
windows the same way, by tuple repetition: each state's one float
object repeated for its agents, the S cursor classes round by round or
the cohorts one after another, with no Python step per agent.

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
epsilon) explorers, exact in distribution (`binomialvariate`, which
caches BTRS's constants and draws as it would without them), and spreads
them over the P paths in path order by Bin(left, 1 / (P - j)), the
sequential form of a multinomial with equal cells; its k - X exploiters
take the rule's path. A cohort of one draws as a single agent: one
uniform against epsilon, then the explored index; a share of one agent
is one uniform against 1 / (P - j), its load one addition. So the
counts on each path have exactly the law of k independent agents'
choices, and each path's load adds its share of each cohort's window.
A share split off is a new state, built without the constructor. A
step draws and updates O(cohorts x P) states instead of N agents: at
N = 500 and epsilon 0.1 about 5 cohorts, most agents sitting on the
floor, whose loads add at once.

Recurrence: a greedy herd settles into a fixed point or a short cycle,
and run() then stops recomputing it. Step t reads only the states'
windows, the previous record's loads (min-load's rule reads
them), `chosen_path`, which it writes before it reads it, and, for the
cursor rules alone, the step index through t mod phase (the schedule
length L for weighted round robin, the path count P for round robin).
So once that state after step t equals the state after an earlier step
m, with t - m a multiple of the run's lag (the phase for the cursor
rules, 1 for every other rule), the records from step t + 1 on repeat
those from step m + 1 with period t - m, bit for bit: a settled herd
closes its cycle one step after the mark it settled at, a min-load flip
two. run() compares each step's state with a mark that it moves at
doubling distances (Brent, "An improved Monte Carlo factorization
algorithm", BIT 20, 1980), testing the loads first: one tuple compare
per step on a run that never recurs. The first mark is the state after
step 0 and every reach is a multiple of the phase (one phase, then
doubling), for every rule: a cursor rule's mark held for fewer steps
than the phase meets no state a lag after it, and with these marks a
lag of 1 closes each cycle at the same step as a lag of one phase or
earlier, so it never computes more steps. Reaches of 1, 2, 4, ...
would move the later marks and miss some late recurrences that these
marks catch (min-RTT at N = 23: 265 steps computed against 202). On a
match it keeps the remaining whole cycles of records, which end in the
same state, as a count (`Records`), builds the record of the last
copied step for the leftover steps to read, and steps those.
`metrics.score` adds the cycle's values per repeat; a copy is built
only when the records are read, sharing its cycle record's tuples.
Epsilon-greedy at epsilon > 0 is excluded: the run's rng is part of
its state, and its stream never repeats within a run.

Runs are pure functions of their SimConfig: all randomness flows from
the config seed through one stream per run, seeded from the integer
seed's string (so seeds s and -s draw apart).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

# from this count on, _repeated_add first tests whether every partial sum
# is exact (windows on a coarse grid, such as a herd at the floor), which
# costs about as much as this many plain additions
_EXACT_TEST_FROM = 16
# from this many rounds of states on, weighted round robin's step() tests
# whether each path's senders share one window before it walks the later
# rounds state by state. Timed as run() of weighted round robin, 300 steps,
# on the default topology (23 cursor classes; benchmarks/ab_run.py's
# interleaving, 15 rounds, median ratio to always walking, 2-vCPU x86_64
# host, CPython 3.11.7): testing from 6 rounds on took 1.16-1.18x at
# N = 150 (6 rounds) and 1.08-1.13x at N = 184 and 200 (8 rounds), where
# some path's windows differ on 299, 299 and 150 of the 300 steps, and
# 0.84-0.85x at N = 250 (10 rounds), 0.77x at N = 276 and 0.66x at
# N = 500, where none does
_COLUMNS_FROM_ROUND = 10


def _index(value, name: str) -> int:
    """What operator.index makes of `value`, the count or seed `name`;
    refuse a bool, which operator.index takes but is neither."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    return operator.index(value)


@dataclass(frozen=True)
class AimdParams:
    """Congestion controller constants. Windows are real-valued; one unit
    carries `mbps_per_cwnd` = 1 Mbps, and alpha is the growth per RTT.

    `cwnd_floor` bounds only the multiplicative decrease: a loss sets the
    window to max(floor, beta * cwnd). Any positive `initial_cwnd` is
    accepted, also one below the floor; such a window grows until its
    first loss, which leaves it at the floor or above.
    """

    initial_cwnd: float = 1.0
    alpha: float = 1.0
    beta: float = 0.5
    cwnd_floor: float = 1.0
    # not an option: only perfbench/checks.py's oracle check reads it (ROADMAP item 2)
    mbps_per_cwnd: ClassVar[float] = 1.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        for name in ("initial_cwnd", "alpha", "cwnd_floor"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass(frozen=True)
class EngineParams:
    steps: int = DEFAULT_STEPS
    # not an option: the increments and perfbench/checks.py read it (ROADMAP item 2)
    step_ms: ClassVar[float] = 10.0
    # not an option: only perfbench/checks.py's oracle call reads it (ROADMAP item 2)
    queue_scale_ms: ClassVar[float] = 10.0

    def __post_init__(self):
        object.__setattr__(self, "steps", _index(self.steps, "steps"))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(slots=True)
class AgentState:
    """The mutable state of `count` agents that share a window and, for
    the step, a choice.

    step() adds the window to the chosen path's load once per agent and
    applies one AIMD update to the state, whatever its count. For
    weighted round robin run() builds one state per cursor class with
    the default count, which no code reads (step() and the final windows
    size the classes from `num_agents`): state k of S stands for agents
    k, k + S, k + 2S, ... of `num_agents`, its cursor k plus the step
    index. Every other strategy keeps one cohort per distinct window, in
    ascending window order (see the module docstring), from one cohort
    of count N.
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
    # not an option: a topology's tags carry the policy; tag a path high-cost to forbid it
    forbidden_tags: ClassVar[frozenset[str]] = frozenset({HIGH_COST_TAG})

    def __post_init__(self):
        object.__setattr__(self, "num_agents", _index(self.num_agents, "num_agents"))
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")
        # the run's stream is seeded from str(seed): 1, 1.0 and True would draw apart
        object.__setattr__(self, "seed", _index(self.seed, "seed"))

    @cached_property
    def _constants(self) -> tuple:
        """What step() reads of this config, derived on first use (the
        config is frozen, so these are constants of its run), in step()'s
        order: the base RTTs as floats, which every record holds; the path
        of a rule that reads only them, or 0; a rule that step() calls
        every step, or None (both 0 and None for weighted round robin);
        weighted round robin's wrr_schedule, or () for every other
        strategy; whether it draws (epsilon-greedy at epsilon > 0),
        epsilon, path j's spread probability 1 / (P - j), the capacities,
        each path's loss-free increment, beta and the floor; run() lays
        out its states by the schedule and the flag. Attribute-aware's
        rule raises as the run starts when every path is forbidden."""
        strategy, aimd, paths = self.strategy, self.aimd, self.topology.paths
        rtts = tuple(float(path.base_rtt_ms) for path in paths)
        rule, constant = _SHARED_CHOICE.get(strategy.name, (None, False))
        capacities = self.topology.capacities()
        return (
            rtts, rule(self, rtts) if constant else 0, None if constant else rule,
            wrr_schedule(capacities) if strategy.name == "weighted_round_robin" else (),
            strategy.name == "epsilon_greedy" and strategy.epsilon > 0, strategy.epsilon,
            tuple(1.0 / (len(paths) - j) for j in range(len(paths))),
            capacities, tuple(aimd.alpha * (self.engine.step_ms / rtt) for rtt in rtts),
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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Records:
    """A run's step records, read as their tuple: the `computed` ones, the
    first `split` of which are followed by `cycles` repeats of their last
    `period` (see the module docstring's "Recurrence"), then the rest. The
    copies are built when the records are read, each sharing its cycle
    record's tuples under its own step index; an index, a slice,
    iteration, ==, hash and repr all read that tuple."""

    computed: tuple[StepRecord, ...]
    split: int
    period: int = 0
    cycles: int = 0

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
        return self._tuple()[index]

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
    finite `total >= 0` and `x >= 0`: at once where every partial sum is
    exact, else by plain additions."""
    if count >= _EXACT_TEST_FROM:
        exact = total + count * x
        unit = math.ulp(exact)
        if x % unit == 0.0 and total % unit == 0.0:
            # x and total are multiples of exact's ulp: so are count * x and
            # every partial sum, all below 2**53 units, hence floats, so
            # each addition is exact
            return exact
    for _ in range(count):
        total += x
    return total


@lru_cache(maxsize=1024)
def _btrs_constants(n: int, p: float) -> tuple:
    """BTRS's eight constants b, a, c, vr, alpha, lpq, m, h for Bin(n, p)."""
    spq = _sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    m = _floor((n + 1) * p)
    return (b, -0.0873 + 0.0248 * b + 0.01 * p, n * p + 0.5, 0.92 - 4.2 / b,
            (2.83 + 5.1 / b) * spq, _log(p / (1.0 - p)), m, _lgamma(m + 1) + _lgamma(n - m + 1))


def binomialvariate(random, n: int, p: float) -> int:
    """A draw of Bin(n, p), exact in distribution, from the uniforms of
    `random` (a `random.Random`'s bound method): CPython 3.12's
    `random.binomialvariate`, which 3.11 lacks. By symmetry p <= 0.5;
    below n * p = 10 Devroye's geometric method (Non-Uniform Random
    Variate Generation, 1986, ch. X), above it Hörmann's BTRS (J. Stat.
    Comput. Simul. 46, 1993). Unlike CPython, n = 0 draws nothing and a
    uniform of 0.0 reaches no log or division. BTRS's constants, pure
    values, come from `_btrs_constants`, which keeps the last 1024 (n, p)
    keys used (a run at N = 500 and epsilon 0.1-0.5 uses 95-307). A draw
    takes the same uniforms and returns the same value as without it."""
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
        # whose trial index stays within n (none where p <= 2**-54 makes c 0.0)
        c = _log2(1.0 - p)
        if not c:
            return 0
        x = y = 0
        while True:
            y += _floor(_log2(1.0 - random()) / c) + 1
            if y > n:
                return x
            x += 1
    b, a, c, vr, alpha, lpq, m, h = _btrs_constants(n, p)
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


def step(agents: list[AgentState], prev_record: StepRecord | None, config: SimConfig,
         rng: random.Random | None = None) -> StepRecord:
    """Advance the simulation one step, mutating the states in place.

    `agents` holds the states of all `config.num_agents` agents in
    run()'s layout; `rng` is the run's stream that epsilon-greedy at
    epsilon > 0 draws from, required by it and refused by every other
    strategy. Weighted round robin's schedule comes from the config. A
    cohort strategy's list ends the step as the new cohorts. The step
    index follows `prev_record`'s."""
    t = 0 if prev_record is None else prev_record.step + 1
    (rtts, constant_path, rule, schedule, draws, epsilon, spreads, capacities, increments,
     beta, floor) = config._constants
    path_count = len(capacities)
    loads = [0.0] * path_count

    if (rng is not None) != draws:
        raise ValueError("epsilon_greedy needs the run's rng" if rng is None
                         else "only epsilon_greedy at epsilon > 0 draws from an rng")
    # `senders` pairs a path's index (path ids run 1..P in topology order)
    # with its states in agent order, for the path pass
    if schedule:
        # state k's cursor starts at slot k and advances once a step
        # through the smooth schedule
        period = len(schedule)
        members = [[] for _ in capacities]
        for k, agent in enumerate(agents):
            path = schedule[(k + t) % period]
            agent.chosen_path = path
            members[path - 1].append(agent)
            loads[path - 1] += agent.cwnd
        if len(agents) < config.num_agents:
            # the agents after the first round: N // S - 1 more rounds of
            # the S states, then the first N mod S (see "Layouts")
            rounds, rest = divmod(config.num_agents, len(agents))
            if rounds >= _COLUMNS_FROM_ROUND and all(
                    len({state.cwnd for state in states}) < 2 for states in members):
                partial = [agent.chosen_path for agent in agents[:rest]]
                for i, states in enumerate(members):
                    if states:
                        loads[i] = _repeated_add(loads[i], states[0].cwnd,
                                                 (rounds - 1) * len(states) + partial.count(i + 1))
            else:
                for agent in agents * (rounds - 1) + agents[:rest]:
                    loads[agent.chosen_path - 1] += agent.cwnd
        senders = enumerate(members)
    else:
        choice = constant_path or rule(config, prev_record, t)
        if rng is None:
            # cohorts that never draw: all take the rule's path, in cohort order
            total = 0.0
            for agent in agents:
                agent.chosen_path = choice
                total = _repeated_add(total, agent.cwnd, agent.count)
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
            for agent in agents:
                if agent.count == 1:
                    path = exploit
                    if uniform() < epsilon:
                        path = getrandbits(bits)
                        while path >= path_count:
                            path = getrandbits(bits)
                    agent.chosen_path = path + 1
                    members[path].append(agent)
                    loads[path] += agent.cwnd
                    continue
                # Bin(count, epsilon) explorers, spread over the paths in path
                # order by Bin(left, 1 / paths left), a multinomial of equal
                # cells (Bin(1, q) is one uniform against q); the last path
                # takes the rest, what its Bin(left, 1) returns without a
                # draw. The exploiters join the min-RTT path's share
                count = agent.count
                load = agent.cwnd
                explorers = left = binomialvariate(uniform, count, epsilon)
                if not explorers:
                    agent.chosen_path = choice
                    add_exploiter(agent)
                    loads[exploit] = _repeated_add(loads[exploit], load, count)
                    continue
                state = agent
                for path in range(path_count):
                    share = (left if path == last_path or not left
                             else (1 if uniform() < spreads[path] else 0) if left == 1
                             else binomialvariate(uniform, left, spreads[path]))
                    left -= share
                    if path == exploit:
                        share += count - explorers
                    if not share:
                        continue
                    if state is None:
                        state = object.__new__(AgentState)
                        state.cwnd = agent.cwnd
                        born.append(state)
                    state.chosen_path, state.count = path + 1, share
                    members[path].append(state)
                    loads[path] = (loads[path] + load if share == 1
                                   else _repeated_add(loads[path], load, share))
                    state = None
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

    if not schedule and len(agents) > 1:
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
    agent_count = config.num_agents
    initial_cwnd = float(config.aimd.initial_cwnd)
    rule, schedule, draws = config._constants[2:5]
    if schedule:
        # weighted round robin staggers agent i's start slot to i mod L so
        # concurrent windows spread over the schedule instead of marching
        # on one path per step; each cursor class is one state
        agents = [AgentState(cwnd=initial_cwnd) for _ in range(min(agent_count, len(schedule)))]
    else:
        # one state of all N agents, which epsilon-greedy at epsilon > 0
        # takes as its first cohort
        agents = [AgentState(cwnd=initial_cwnd, count=agent_count)]
    # the stream that epsilon-greedy at epsilon > 0 draws from, one for the
    # run seeded from the seed's string: one SHA-512, and -s seeds apart from s
    rng = random.Random(str(config.seed)) if draws else None

    # Brent's mark: the state after step `mark`, moved to the current step
    # whenever the distance reaches `reach`, which then doubles, but is at
    # least the phase. The first mark is the state after step 0, with a
    # reach of one phase. A cycle's length is a multiple of `lag`: the
    # phase for the cursor rules, which read the step index, and 1 for
    # every other rule, whose state may repeat at any distance
    phase = len(schedule) if schedule else len(config.topology.paths)
    lag = phase if schedule or rule is _round_robin else 1
    watching = rng is None
    mark, mark_loads, mark_cwnds, reach = -1, None, None, 1
    steps = config.engine.steps
    records: list[StepRecord] = []
    split, period, cycles = steps, 0, 0
    prev: StepRecord | None = None
    t = 0
    while t < steps:
        prev = step(agents, prev, config, rng)
        records.append(prev)
        if watching:
            if (prev.loads == mark_loads and (t - mark) % lag == 0
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
                mark, mark_loads, reach = t, prev.loads, max(2 * reach, phase)
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
