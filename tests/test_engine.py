import copy
import dataclasses
import itertools
import math
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import mpsim.engine
from mpsim import (
    HIGH_COST_TAG,
    STRATEGY_NAMES,
    AgentState,
    AimdParams,
    EngineParams,
    PathSpec,
    SimConfig,
    StrategyKind,
    Topology,
    default_topology,
    run,
    timeseries_csv,
    wrr_schedule,
)
from mpsim.engine import (
    _PLAIN_LOOP_BELOW,
    Records,
    StepRecord,
    Telemetry,
    _record,
    _repeated_add,
    binomialvariate,
)
from reference import apportion_loss, oracle_agrees, rtt_instantaneous, update_cwnd

AIMD = AimdParams()


def config(strategy="min_rtt", agents=10, steps=300, seed=0, epsilon=0.1, topology=None):
    return SimConfig(
        topology=topology or default_topology(),
        strategy=StrategyKind(strategy, epsilon=epsilon),
        num_agents=agents,
        engine=EngineParams(steps=steps),
        seed=seed,
    )


class TestRttInstantaneous:
    def test_below_capacity_is_base(self):
        assert rtt_instantaneous(20.0, 40.0, 50.0, 10.0) == 20.0

    def test_overload_adds_queue_delay(self):
        assert rtt_instantaneous(20.0, 100.0, 50.0, 10.0) == 30.0

    def test_half_capacity(self):
        assert rtt_instantaneous(50.0, 50.0, 100.0, 10.0) == 50.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            rtt_instantaneous(20.0, 10.0, 0.0, 10.0)


class TestApportionLoss:
    def test_symmetric_split(self):
        losses, overflow = apportion_loss([30.0, 30.0], 50.0)
        assert overflow == 10.0
        assert losses == [5.0, 5.0]

    def test_proportional_split(self):
        losses, overflow = apportion_loss([40.0, 10.0], 25.0)
        assert overflow == 25.0
        assert losses == [20.0, 5.0]

    def test_under_capacity(self):
        losses, overflow = apportion_loss([10.0, 10.0], 50.0)
        assert overflow == 0.0
        assert losses == [0.0, 0.0]

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           st.floats(0.0, 150.0))
    def test_conservation(self, loads, capacity):
        losses, overflow = apportion_loss(loads, capacity)
        assert overflow == max(0.0, sum(loads) - capacity)
        assert abs(sum(losses) - overflow) <= 1e-9
        assert all(l >= 0 for l in losses)


class TestUpdateCwnd:
    def test_loss_halves(self):
        assert update_cwnd(4.0, True, 20.0, 10.0, AIMD) == 2.0

    def test_floor_clamp(self):
        assert update_cwnd(1.0, True, 20.0, 10.0, AIMD) == 1.0

    def test_one_increment_per_rtt(self):
        cwnd = 1.0
        for _ in range(2):
            cwnd = update_cwnd(cwnd, False, 20.0, 10.0, AIMD)
        assert cwnd == 2.0

    def test_growth_scales_with_rtt(self):
        assert update_cwnd(1.0, False, 50.0, 10.0, AIMD) == pytest.approx(1.2)


class TestParamValidation:
    def test_beta_range(self):
        with pytest.raises(ValueError):
            AimdParams(beta=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("params, field", [
        (AimdParams, "initial_cwnd"), (AimdParams, "alpha"), (AimdParams, "beta"),
        (AimdParams, "cwnd_floor"), (AimdParams, "mbps_per_cwnd"),
        (EngineParams, "step_ms"), (partial(StrategyKind, "epsilon_greedy"), "epsilon"),
    ])
    def test_non_finite_rejected(self, params, field, value):
        # a NaN would otherwise pass a plain `x <= 0` check and run to a
        # quiet NaN score
        with pytest.raises(ValueError, match=field):
            params(**{field: value})

    @pytest.mark.parametrize("initial_cwnd", [0.0, -1.0])
    def test_initial_cwnd_positive(self, initial_cwnd):
        with pytest.raises(ValueError, match="initial_cwnd"):
            AimdParams(initial_cwnd=initial_cwnd)

    def test_steps_positive(self):
        with pytest.raises(ValueError):
            EngineParams(steps=0)

    def test_queue_scale_is_not_an_option(self):
        # the queueing term follows carried load and never fires, so its
        # scale moved no output; the oracle's default stays readable on
        # the class
        with pytest.raises(TypeError, match="queue_scale_ms"):
            EngineParams(queue_scale_ms=1.0)
        assert EngineParams.queue_scale_ms == EngineParams().queue_scale_ms == 10.0

    def test_agents_positive(self):
        with pytest.raises(ValueError):
            config(agents=0)

    # a float step count used to run ceil(steps) steps, or fail inside
    # run()'s replay; a bool agent count ran one agent
    @pytest.mark.parametrize("value", [2.5, 300.0, True, False, "3", None])
    def test_steps_must_be_an_integer(self, value):
        with pytest.raises(TypeError, match="steps must be an integer"):
            EngineParams(steps=value)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "3", None])
    def test_agents_must_be_an_integer(self, value):
        with pytest.raises(TypeError, match="num_agents must be an integer"):
            config(agents=value)

    def test_counts_accept_what_operator_index_accepts(self):
        import numpy as np

        engine = EngineParams(steps=np.int64(7))
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind("min_rtt"),
                        num_agents=np.int32(3), engine=engine)
        assert type(engine.steps) is int and engine.steps == 7
        assert type(cfg.num_agents) is int and cfg.num_agents == 3
        assert len(run(cfg).records) == 7

    # frozenset("high-cost") is a set of characters, which forbids no
    # tag: on a topology whose fastest path is high-cost, the whole herd
    # took it
    @pytest.mark.parametrize("tags", ["high-cost", ""])
    def test_forbidden_tags_refuse_a_str(self, tags):
        with pytest.raises(TypeError, match="forbidden_tags"):
            dataclasses.replace(config(), forbidden_tags=tags)

    @pytest.mark.parametrize("tags", [[1], ("high-cost", None), [b"high-cost"]])
    def test_forbidden_tags_refuse_a_non_str_member(self, tags):
        with pytest.raises(TypeError, match="forbidden_tags"):
            dataclasses.replace(config(), forbidden_tags=tags)

    @pytest.mark.parametrize("tags", [["high-cost"], ("high-cost",), {"high-cost"},
                                      (tag for tag in ["high-cost"])])
    def test_forbidden_tags_are_stored_as_a_frozenset(self, tags):
        topology = Topology("tagged", (PathSpec(1, 50.0, 10.0, frozenset({"high-cost"})),
                                       PathSpec(2, 50.0, 30.0)))
        cfg = dataclasses.replace(config("attribute_aware", steps=3, topology=topology),
                                  forbidden_tags=tags)
        assert type(cfg.forbidden_tags) is frozenset and cfg.forbidden_tags == {"high-cost"}
        assert hash(cfg) == hash(dataclasses.replace(cfg, forbidden_tags={"high-cost"}))
        assert [record.loads for record in run(cfg).records[:1]] == [(0.0, 10.0)]

    def test_path_attributes_given_as_a_list_keep_a_config_hashable(self):
        # a list of tags was kept as is and made the config unhashable
        def tagged(attributes):
            return Topology("tagged", (PathSpec(1, 50.0, 10.0, attributes),
                                       PathSpec(2, 50.0, 30.0)))
        cfg = config("attribute_aware", steps=3, topology=tagged(["high-cost"]))
        assert hash(cfg) == hash(dataclasses.replace(cfg, topology=tagged({"high-cost"})))
        assert [record.loads for record in run(cfg).records[:1]] == [(0.0, 10.0)]


class TestSingleSteps:
    def test_single_agent_first_step(self):
        telemetry = run(config(agents=1, steps=1))
        record = telemetry.records[0]
        assert record.loads == (1.0, 0.0, 0.0)
        assert record.overflows == (0.0, 0.0, 0.0)
        assert record.inst_rtts == (20.0, 50.0, 80.0)

    def test_sixty_agents_overflow_and_floor(self):
        # 60 windows of 1.0 on a 50 Mbps path: overflow 10, every agent
        # takes a 1/6 Mbps share and halves onto the floor
        telemetry = run(config(agents=60, steps=1))
        record = telemetry.records[0]
        assert record.loads[0] == 60.0
        assert record.overflows[0] == pytest.approx(10.0)
        losses, overflow = apportion_loss([1.0] * 60, 50.0)
        assert overflow == pytest.approx(10.0)
        assert losses[0] == pytest.approx(1 / 6)
        assert telemetry.final_cwnds == (1.0,) * 60

    def test_herd_at_500_overloads_path_one(self):
        telemetry = run(config(agents=500, steps=50))
        for record in telemetry.records[10:]:
            assert sum(record.loads) >= 500.0
            assert record.overflows[0] >= 450.0


class TestRun:
    def test_determinism(self):
        a = run(config("epsilon_greedy", agents=40, steps=120, seed=9))
        b = run(config("epsilon_greedy", agents=40, steps=120, seed=9))
        assert a.records == b.records
        assert a.final_cwnds == b.final_cwnds
        assert timeseries_csv(a) == timeseries_csv(b)

    def test_seed_changes_epsilon_run(self):
        a = run(config("epsilon_greedy", agents=40, steps=120, seed=1))
        b = run(config("epsilon_greedy", agents=40, steps=120, seed=2))
        assert a.records != b.records

    def test_negated_seed_changes_epsilon_run(self):
        # the run's stream is seeded from the seed's string: random.Random
        # seeded with an int takes its absolute value
        a = run(config("epsilon_greedy", agents=40, steps=120, seed=3))
        b = run(config("epsilon_greedy", agents=40, steps=120, seed=-3))
        assert a.records != b.records

    def test_round_robin_three_agents_rotate_together(self):
        telemetry = run(config("round_robin", agents=3, steps=3))
        for t, record in enumerate(telemetry.records):
            active = t % 3
            for i, load in enumerate(record.loads):
                if i == active:
                    assert load > 0
                else:
                    assert load == 0.0

    def test_single_agent_sawtooth(self):
        # one flow grows half a packet per step until it crests the
        # 50 Mbps path, then halves and climbs again
        telemetry = run(config(agents=1, steps=300))
        loads = [r.loads[0] for r in telemetry.records]
        overflowed = [r.step for r in telemetry.records if sum(r.overflows) > 0]
        assert loads[:4] == [1.0, 1.5, 2.0, 2.5]
        assert max(loads) <= 51.0
        assert overflowed and overflowed[0] == 99
        # recovery after the first crest: halved, not reset to zero
        assert loads[100] == pytest.approx(50.5 / 2)

    def test_telemetry_length_matches_steps(self):
        telemetry = run(config(steps=17))
        assert len(telemetry.records) == 17
        assert [r.step for r in telemetry.records] == list(range(17))

    def test_attribute_aware_never_touches_high_cost_path(self):
        for agents in (1, 10, 100):
            telemetry = run(config("attribute_aware", agents=agents, steps=100))
            assert all(r.loads[2] == 0.0 for r in telemetry.records)

    def test_overflow_identity_and_goodput_cap(self):
        caps = default_topology().capacities()
        telemetry = run(config("round_robin", agents=120, steps=100))
        for record in telemetry.records:
            for load, overflow, cap in zip(record.loads, record.overflows, caps):
                assert overflow == max(0.0, load - cap)
                assert load - overflow <= cap + 1e-12

    def test_cwnd_never_below_floor(self):
        telemetry = run(config("round_robin", agents=200, steps=100))
        assert all(c >= 1.0 for c in telemetry.final_cwnds)

    def test_rtt_view_at_least_base(self):
        telemetry = run(config("min_load", agents=150, steps=100))
        bases = (20.0, 50.0, 80.0)
        for record in telemetry.records:
            for rtt, base in zip(record.inst_rtts, bases):
                assert rtt >= base


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(strategy=st.sampled_from(STRATEGY_NAMES),
           agents=st.integers(1, 40),
           steps=st.integers(1, 30),
           seed=st.integers(0, 2**32),
           epsilon=st.floats(0.0, 1.0),
           alpha=st.floats(0.05, 4.0),
           beta=st.floats(0.05, 0.95),
           floor=st.floats(0.1, 3.0),
           initial_cwnd=st.floats(0.1, 6.0),
           mbps_per_cwnd=st.floats(0.1, 4.0))
    def test_engine_matches_naive_reference(self, strategy, agents, steps, seed, epsilon,
                                            alpha, beta, floor, initial_cwnd,
                                            mbps_per_cwnd):
        aimd = AimdParams(initial_cwnd=initial_cwnd, alpha=alpha, beta=beta,
                          cwnd_floor=floor, mbps_per_cwnd=mbps_per_cwnd)
        cfg = SimConfig(topology=default_topology(),
                        strategy=StrategyKind(strategy, epsilon=epsilon),
                        num_agents=agents, aimd=aimd, engine=EngineParams(steps=steps),
                        seed=seed)
        assert oracle_agrees(run(cfg))


class TestInlinedPathPass:
    # step() takes each path's RTT and window increment from per-run
    # constants, the base RTT and alpha per base RTT; both must stay the
    # arithmetic of the reference's rtt_instantaneous of carried load and
    # update_cwnd, also off the default step_ms. The queueing term follows
    # carried load, which never exceeds capacity, so its scale moves no RTT
    ENGINES = [EngineParams(steps=60), EngineParams(steps=60, step_ms=3.7),
               EngineParams(steps=60, step_ms=17.0)]

    @pytest.mark.parametrize("engine", ENGINES, ids=["default", "step3.7", "step17"])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_rtts_are_rtt_instantaneous_of_carried_load(self, strategy, engine):
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                        num_agents=90, aimd=AimdParams(alpha=0.73, initial_cwnd=0.37),
                        engine=engine, seed=4)
        telemetry = run(cfg)
        paths = cfg.topology.paths
        for queue_scale in (0.0, 10.0, 25.0):
            for record in telemetry.records:
                expected = tuple(
                    rtt_instantaneous(path.base_rtt_ms, min(load, path.capacity_mbps),
                                      path.capacity_mbps, queue_scale)
                    for path, load in zip(paths, record.loads))
                assert record.inst_rtts == expected
        assert any(overflow > 0.0 for r in telemetry.records for overflow in r.overflows)
        assert oracle_agrees(telemetry)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_every_record_shares_the_float_base_rtts(self, strategy):
        # integer base RTTs, so that the shared tuple must be converted
        topology = Topology("ints", (PathSpec(1, 50, 20), PathSpec(2, 100, 50),
                                     PathSpec(3, 80, 80, frozenset({"high-cost"}))))
        telemetry = run(config(strategy, agents=90, steps=60, topology=topology))
        shared = telemetry.records[0].inst_rtts
        assert shared == (20.0, 50.0, 80.0)
        assert all(type(rtt) is float for rtt in shared)
        assert all(record.inst_rtts is shared for record in telemetry.records)
        assert any(overflow > 0.0 for r in telemetry.records for overflow in r.overflows)


def paths_topology(path_count):
    """path_count paths of distinct capacities and RTTs."""
    return Topology(f"{path_count}-paths", tuple(
        PathSpec(i + 1, 30.0 + 17.0 * i, 15.0 + 11.0 * i) for i in range(path_count)))


def plain_repeated_add(total, x, count):
    for _ in range(count):
        total += x
    return total


@st.composite
def tie_cases(draw):
    """x = odd * 2**a has its lowest bit half a unit of the binade
    [2**(a+53), 2**(a+54)), so every addition there is a round-half-even
    tie; start inside that binade or just below it, so runs cross into it
    with either parity of the last bit."""
    a = draw(st.integers(-40, 20))
    x = draw(st.integers(0, 2**19 - 1)) * 2 + 1
    if draw(st.booleans()):
        total = (2**52 + draw(st.integers(0, 2**52 - 1))) * 2.0 ** (a + 1)
    else:
        total = 2.0 ** (a + 53) - draw(st.integers(1, 2**21)) * 2.0 ** a
    return total, x * 2.0 ** a


@st.composite
def low_bit_cases(draw):
    """x = (1 + odd * 2**-52) * 2**e: additions tie in the binade above x's."""
    e = draw(st.integers(-20, 20))
    x = (1 + (draw(st.integers(0, 2**51 - 1)) * 2 + 1) * 2.0 ** -52) * 2.0 ** e
    return draw(st.sampled_from([0.0, x, 3 * x])), x


class TestRepeatedAdd:
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(
               tie_cases(),
               low_bit_cases(),
               st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e3)),
               st.tuples(st.integers(0, 10**6).map(float),
                         st.sampled_from([0.1, 0.2, 0.3, 0.84, 1.0, 1.2, 1.0 / 3, 0.125]))),
           count=st.one_of(st.integers(0, 2 * _PLAIN_LOOP_BELOW), st.integers(0, 10**5)))
    def test_matches_sequential_additions(self, case, count):
        total, x = case
        assert _repeated_add(total, x, count) == plain_repeated_add(total, x, count)


def computed_steps(monkeypatch, cfg):
    """run(cfg) and the step indices it computed with the module's step()."""
    real_step = mpsim.engine.step
    calls = []

    def counting_step(*args, **kwargs):
        record = real_step(*args, **kwargs)
        calls.append(record.step)
        return record

    monkeypatch.setattr(mpsim.engine, "step", counting_step)
    telemetry = run(cfg)
    monkeypatch.undo()
    return telemetry, calls


class TestStepContract:
    # run() must reach step() through the module global for every step it
    # computes: perfbench's capture probe wraps it there. Runs with an rng
    # (epsilon > 0) and runs whose state never recurs compute every step;
    # a recurring run copies whole cycles and computes fewer
    @pytest.mark.parametrize("strategy, agents, steps, recurs", [
        *[(name, 12, 9, False) for name in STRATEGY_NAMES],
        ("epsilon_greedy", 500, 300, False),
        ("min_rtt", 500, 300, True),
        ("weighted_round_robin", 500, 300, True),
    ])
    def test_run_calls_module_step_for_every_computed_step(self, monkeypatch, strategy,
                                                           agents, steps, recurs):
        cfg = config(strategy, agents=agents, steps=steps)
        floor = cfg.aimd.cwnd_floor
        path_count = cfg.topology.path_count
        real_step = mpsim.engine.step
        computed = {}

        def counting_step(agents, *args, **kwargs):
            record = real_step(agents, *args, **kwargs)
            computed[record.step] = record
            for agent in agents:
                assert type(agent.cwnd) is float and agent.cwnd >= floor
                assert 1 <= agent.chosen_path <= path_count
            return record

        monkeypatch.setattr(mpsim.engine, "step", counting_step)
        telemetry = run(cfg)
        assert [r.step for r in telemetry.records] == list(range(steps))
        assert all(telemetry.records[k] is record for k, record in computed.items())
        calls = list(computed)
        if recurs:
            assert calls[0] == 0 and calls == sorted(calls) and len(calls) < steps
        else:
            assert calls == list(range(steps))

    # a copied record, built when it is read, must share the tuples of the
    # record one cycle before it, so a copy costs no tuples of its own
    @pytest.mark.parametrize("strategy, agents", [
        ("min_rtt", 500), ("round_robin", 500), ("min_load", 50),
        ("weighted_round_robin", 150), ("weighted_round_robin", 500),
    ])
    def test_replayed_records_share_their_cycles_tuples(self, monkeypatch, strategy, agents):
        real_step = mpsim.engine.step
        computed = set()

        def counting_step(*args, **kwargs):
            record = real_step(*args, **kwargs)
            computed.add(record.step)
            return record

        monkeypatch.setattr(mpsim.engine, "step", counting_step)
        records = run(config(strategy, agents=agents)).records
        copies = [r.step for r in records if r.step not in computed]
        assert copies
        first = records[copies[0]]
        cycle = next(d for d in range(1, copies[0] + 1)
                     if records[copies[0] - d].loads is first.loads)
        assert copies[0] - cycle in computed
        for k in copies:
            source = records[k - cycle]
            assert records[k].loads is source.loads
            assert records[k].overflows is source.overflows
            assert records[k].inst_rtts is source.inst_rtts

    def test_shared_choice_table_covers_every_name_but_weighted_round_robin(self):
        # step() steps every strategy in the table as cohorts. The rules
        # flagged constant read only the base RTTs, so each config calls
        # them once; epsilon-greedy's exploiters and blest take min-RTT's
        # path, and min-load and round robin read the record or the step
        table = mpsim.engine._SHARED_CHOICE
        assert set(table) == set(STRATEGY_NAMES) - {"weighted_round_robin"}
        assert table["epsilon_greedy"] == table["blest"] == table["min_rtt"]
        assert {name for name, (_, constant) in table.items() if constant} == {
            "min_rtt", "attribute_aware", "epsilon_greedy", "blest"}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), path_count=st.integers(1, 6))
    def test_rules_take_the_lowest_index_minimum(self, data, path_count):
        # RTTs and loads drawn from a few values, so that ties are
        # common. The constant rules' path, chosen once per config from
        # the base RTTs, carries every step's load in run(); min-load
        # ranks no load at step 0 and the previous record's loads after it
        def column(values):
            return data.draw(st.tuples(*[values] * path_count))

        def first_minimum(values, admissible):
            best = None
            for i in admissible:
                if best is None or values[i] < values[best]:
                    best = i
            return best + 1

        rtt = st.sampled_from([15.0, 20.0, 20.5, 1e3])
        base = column(rtt)
        loads = column(st.sampled_from([0.0, 3.5, 3.5000000000000004, 40.0]))
        tags = column(st.sets(st.sampled_from(["high-cost", "metered", "x"]), max_size=2))
        forbidden = data.draw(st.frozensets(st.sampled_from(["high-cost", "metered"])))
        topology = Topology("drawn", tuple(PathSpec(i + 1, 50.0, b, frozenset(t))
                                           for i, (b, t) in enumerate(zip(base, tags))))
        every = range(path_count)
        allowed = [i for i in every if not tags[i] & forbidden]
        for name, admissible in (("min_rtt", every), ("blest", every),
                                 ("epsilon_greedy", every), ("attribute_aware", allowed)):
            cfg = dataclasses.replace(config(name, agents=3, steps=4, epsilon=0.0,
                                             topology=topology), forbidden_tags=forbidden)
            if not admissible:
                with pytest.raises(ValueError, match="no admissible path"):
                    run(cfg)
                continue
            path = first_minimum(base, admissible)
            for record in run(cfg).records:
                assert [i + 1 for i, load in enumerate(record.loads) if load] == [path]
        min_load, _ = mpsim.engine._SHARED_CHOICE["min_load"]
        cfg = config("min_load", topology=topology)
        prev = StepRecord(7, loads, (0.0,) * path_count, base)
        assert min_load(cfg, None, 0) == 1
        assert min_load(cfg, prev, 8) == first_minimum(loads, every)

    # N = 10 never recurs within 300 steps, so run() computes every step.
    # Two runs of one config and one of an equal copy: a constant rule's
    # selector runs once per config, min-load's on every step but step 0,
    # which takes path 1 without ranking
    @pytest.mark.parametrize("strategy, selector, expected", [
        ("min_rtt", "select_min_rtt", 2),
        ("blest", "select_min_rtt", 2),
        ("epsilon_greedy", "select_min_rtt", 2),
        ("attribute_aware", "select_attribute_aware", 2),
        ("min_load", "select_min_load", 3 * 299),
    ])
    def test_selectors_run_once_per_config_or_once_per_computed_step(
            self, monkeypatch, strategy, selector, expected):
        real_selector, real_step = getattr(mpsim.engine, selector), mpsim.engine.step
        calls, steps = [], []

        def counting_selector(*args):
            calls.append(args)
            return real_selector(*args)

        def counting_step(*args):
            steps.append(args)
            return real_step(*args)

        monkeypatch.setattr(mpsim.engine, selector, counting_selector)
        monkeypatch.setattr(mpsim.engine, "step", counting_step)
        cfg = config(strategy, agents=10)
        for _ in range(2):
            assert len(run(cfg).records) == 300
        run(dataclasses.replace(cfg))
        assert len(steps) == 3 * 300
        assert len(calls) == expected

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_step_by_hand_reproduces_run(self, strategy):
        # step() derives the step index from the previous record, which
        # drives the round-robin and weighted-round-robin cursors
        cfg = config(strategy, agents=50, steps=40, seed=4)
        schedule = rng = None
        if strategy == "epsilon_greedy":
            # one cohort of all 50 agents, and the run's stream
            agents = [AgentState(cwnd=1.0, count=50)]
            rng = random.Random("4")
        elif strategy == "weighted_round_robin":
            schedule = wrr_schedule(cfg.topology.capacities())
            # 50 agents over 23 cursor classes: two full rounds, then 4 more
            agents = [AgentState(cwnd=1.0, count=3 if k < 4 else 2)
                      for k in range(len(schedule))]
        else:
            agents = [AgentState(cwnd=1.0, count=50)]
        records = []
        prev = None
        for _ in range(cfg.engine.steps):
            prev = mpsim.engine.step(agents, prev, cfg, schedule, rng)
            records.append(prev)
        assert tuple(records) == run(cfg).records


class TestCohortsAgainstOracle:
    # above _PLAIN_LOOP_BELOW a cohort's load goes through the binade walk;
    # alpha, initial_cwnd and mbps_per_cwnd keep windows and loads off
    # dyadic values, and the scale makes path 1 overflow within 30 steps
    COHORT_STRATEGIES = ("min_rtt", "min_load", "attribute_aware", "blest", "round_robin")

    @pytest.mark.parametrize("agents", [_PLAIN_LOOP_BELOW + 1, 2000])
    @pytest.mark.parametrize("strategy", COHORT_STRATEGIES)
    def test_large_cohort_matches_oracle(self, strategy, agents):
        aimd = AimdParams(initial_cwnd=0.37, alpha=0.73, beta=0.61, cwnd_floor=0.29,
                          mbps_per_cwnd=9.1 / agents)
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                        num_agents=agents, aimd=aimd, engine=EngineParams(steps=30))
        telemetry = run(cfg)
        assert any(r.overflows[0] > 0 for r in telemetry.records)
        assert oracle_agrees(telemetry)

    # one state per cursor class: N = 22 and 23 are singletons, 24 and 47
    # add a partial round, 100 and 701 sum each path's column; with these
    # constants the classes' windows differ, so columns are walked
    @pytest.mark.parametrize("agents", [22, 23, 24, 47, 100, 701])
    def test_wrr_cursor_classes_match_oracle(self, agents):
        aimd = AimdParams(initial_cwnd=0.37, alpha=0.73, beta=0.61, cwnd_floor=0.29,
                          mbps_per_cwnd=9.1 / agents)
        cfg = SimConfig(topology=default_topology(),
                        strategy=StrategyKind("weighted_round_robin"),
                        num_agents=agents, aimd=aimd, engine=EngineParams(steps=30))
        telemetry = run(cfg)
        assert len(set(telemetry.final_cwnds)) > 1
        assert oracle_agrees(telemetry)

    # a one-path topology has a one-slot schedule: a single class state of
    # all N agents, walked round by round (N = 3) or as one column
    @pytest.mark.parametrize("agents", [3, 10, 301])
    def test_wrr_single_class_matches_oracle(self, agents):
        cfg = config("weighted_round_robin", agents=agents, steps=40,
                     topology=paths_topology(1))
        assert oracle_agrees(run(cfg))

    # epsilon 0 runs as one state; epsilon 1 explores on every draw, and
    # the explored index's rejection loop redraws a quarter (3 paths) or
    # half (2 and 4 paths) of its getrandbits draws
    @pytest.mark.parametrize("path_count", [2, 3, 4])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_epsilon_extremes_match_oracle(self, epsilon, path_count):
        cfg = config("epsilon_greedy", agents=40, steps=40, seed=3, epsilon=epsilon,
                     topology=paths_topology(path_count))
        assert oracle_agrees(run(cfg))

    def test_integer_rtts_equal_as_floats_match_oracle(self):
        # 2**53 + 1 and 2**53 differ as integers but not as floats: every
        # step ranks the floats, so the tie goes to the lower path id
        topology = Topology("big", (PathSpec(1, 50.0, 2**53 + 1), PathSpec(2, 50.0, 2**53)))
        telemetry = run(config(agents=10, steps=3, topology=topology))
        assert telemetry.records[0].loads == (10.0, 0.0)
        assert oracle_agrees(telemetry)

    def test_hundred_thousand_agents_smoke(self):
        # one state of count 100,000: invariants hold and the final
        # windows expand back to one per agent
        agents = 100_000
        cfg = config("min_load", agents=agents, steps=300)
        telemetry = run(cfg)
        paths = cfg.topology.paths
        assert len(telemetry.records) == 300
        for record in telemetry.records:
            assert sum(record.loads) == agents * cfg.aimd.cwnd_floor
            for path, load, overflow, rtt in zip(paths, record.loads, record.overflows,
                                                 record.inst_rtts):
                assert overflow == max(0.0, load - path.capacity_mbps)
                assert rtt >= path.base_rtt_ms
        assert len(telemetry.final_cwnds) == agents
        assert set(telemetry.final_cwnds) == {cfg.aimd.cwnd_floor}

    def test_hundred_thousand_epsilon_agents_smoke(self):
        # epsilon 0.1 steps a handful of cohorts, not 100,000 draws: the
        # records hold the engine invariants and the cohorts expand back
        # to one window per agent
        agents = 100_000
        cfg = config("epsilon_greedy", agents=agents, steps=300, epsilon=0.1)
        telemetry = run(cfg)
        paths = cfg.topology.paths
        assert [r.step for r in telemetry.records] == list(range(300))
        for record in telemetry.records:
            for path, load, overflow, rtt in zip(paths, record.loads, record.overflows,
                                                 record.inst_rtts):
                assert overflow == max(0.0, load - path.capacity_mbps)
                assert rtt >= path.base_rtt_ms
            assert all(load > 0.0 for load in record.loads)
        assert len(telemetry.final_cwnds) == agents
        assert all(cwnd >= cfg.aimd.cwnd_floor for cwnd in telemetry.final_cwnds)


RNG_FREE = [StrategyKind(name) for name in STRATEGY_NAMES if name != "epsilon_greedy"] + [
    StrategyKind("epsilon_greedy", epsilon=0.0)]
# windows on dyadic values recur; off them (the third) they rarely do
RECURRING_AIMD = [AimdParams(), AimdParams(initial_cwnd=2.0, alpha=0.5, beta=0.25, cwnd_floor=2.0),
                  AimdParams(initial_cwnd=1.37, alpha=0.73, beta=0.61, cwnd_floor=0.29,
                             mbps_per_cwnd=0.9)]


class TestRecurrenceReplay:
    # records recur with periods 1 (min_rtt's herd), 2 (min_load's flip),
    # 3 (round robin's rotation) and 23 (WRR's schedule); the step counts
    # leave a partial cycle after the copied ones. The last cell is one
    # WRR agent that overflows every path and stays on the floor: its state
    # is its window and its slot's load, equal on two slots of one path
    # whose successors differ, so its cycle must be a multiple of the
    # 23-slot schedule
    CELLS = [("min_rtt", 500), ("min_load", 500), ("round_robin", 500),
             ("weighted_round_robin", 150), ("weighted_round_robin", 500)]
    CASES = ([(strategy, agents, AIMD, steps) for strategy, agents in CELLS for steps in (77, 301)]
             + [(strategy, agents, RECURRING_AIMD[1], 150) for strategy, agents in CELLS]
             + [("weighted_round_robin", 1, AimdParams(mbps_per_cwnd=1000.0), steps)
                for steps in (77, 300, 301)])

    @pytest.mark.parametrize("strategy, agents, aimd, steps", CASES)
    def test_replayed_run_matches_oracle(self, monkeypatch, strategy, agents, aimd, steps):
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                        num_agents=agents, aimd=aimd, engine=EngineParams(steps=steps))
        telemetry, calls = computed_steps(monkeypatch, cfg)
        assert len(calls) < steps
        assert [r.step for r in telemetry.records] == list(range(steps))
        assert oracle_agrees(telemetry)

    @settings(max_examples=40, deadline=None)
    @given(strategy=st.sampled_from(RNG_FREE),
           agents=st.integers(1, 600),
           steps=st.integers(1, 120),
           aimd=st.sampled_from(RECURRING_AIMD),
           path_count=st.integers(1, 4))
    def test_rng_free_runs_match_oracle(self, strategy, agents, steps, aimd, path_count):
        topology = default_topology() if path_count == 3 else paths_topology(path_count)
        cfg = SimConfig(topology=topology, strategy=strategy, num_agents=agents, aimd=aimd,
                        engine=EngineParams(steps=steps))
        telemetry = run(cfg)
        assert [r.step for r in telemetry.records] == list(range(steps))
        assert oracle_agrees(telemetry)


class TestRecordInvariants:
    # on every record, computed or copied from a recurring cycle
    @settings(max_examples=40, deadline=None)
    @given(strategy=st.sampled_from(STRATEGY_NAMES),
           agents=st.integers(1, 600),
           steps=st.integers(1, 300),
           epsilon=st.sampled_from([0.0, 0.1, 0.5]),
           aimd=st.sampled_from(RECURRING_AIMD),
           seed=st.integers(0, 2**32))
    def test_every_record_holds_the_engine_invariants(self, strategy, agents, steps, epsilon,
                                                      aimd, seed):
        cfg = SimConfig(topology=default_topology(),
                        strategy=StrategyKind(strategy, epsilon=epsilon), num_agents=agents,
                        aimd=aimd, engine=EngineParams(steps=steps), seed=seed)
        telemetry = run(cfg)
        paths = cfg.topology.paths
        assert len(telemetry.records) == steps
        for index, record in enumerate(telemetry.records):
            assert record.step == index
            for path, load, overflow, rtt in zip(paths, record.loads, record.overflows,
                                                 record.inst_rtts):
                assert overflow == max(0.0, load - path.capacity_mbps)
                assert rtt >= path.base_rtt_ms
        assert len(telemetry.final_cwnds) == agents
        assert all(cwnd >= aimd.cwnd_floor for cwnd in telemetry.final_cwnds)


class TestCohortStates:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_run_steps_one_state_only_where_agents_stay_identical(self, monkeypatch,
                                                                  strategy):
        real_step = mpsim.engine.step
        counts = []

        def recording_step(agents, *args, **kwargs):
            counts.append([agent.count for agent in agents])
            return real_step(agents, *args, **kwargs)

        monkeypatch.setattr(mpsim.engine, "step", recording_step)
        run(config(strategy, agents=12, steps=3))
        if strategy == "epsilon_greedy":
            # one cohort until the draws set windows apart; every step's
            # cohorts stand for all 12 agents
            assert counts[0] == [12]
            assert all(sum(step_counts) == 12 for step_counts in counts)
        else:
            per_class = strategy == "weighted_round_robin"
            assert counts == [[1] * 12 if per_class else [12]] * 3

    @pytest.mark.parametrize("strategy, epsilon, agents, expected", [
        ("weighted_round_robin", 0.1, 22, [1] * 22),
        ("weighted_round_robin", 0.1, 24, [2] + [1] * 22),
        ("weighted_round_robin", 0.1, 47, [3] + [2] * 22),
        ("weighted_round_robin", 0.1, 500, [22] * 17 + [21] * 6),
        ("epsilon_greedy", 0.0, 12, [12]),
    ])
    def test_run_steps_cursor_classes_and_epsilon_zero_as_states(
            self, monkeypatch, strategy, epsilon, agents, expected):
        # WRR's 23-slot schedule on the default topology: state k stands
        # for agents k, k + 23, k + 46, ...
        assert len(wrr_schedule(default_topology().capacities())) == 23
        real_step = mpsim.engine.step
        layouts = []

        def recording_step(agents, *args, **kwargs):
            layouts.append([agent.count for agent in agents])
            return real_step(agents, *args, **kwargs)

        monkeypatch.setattr(mpsim.engine, "step", recording_step)
        telemetry = run(config(strategy, agents=agents, steps=3, epsilon=epsilon))
        assert layouts == [expected] * 3
        assert sum(expected) == agents == len(telemetry.final_cwnds)

    def test_epsilon_greedy_step_needs_the_runs_rng(self):
        cfg = config("epsilon_greedy", agents=2, steps=1)
        agents = [AgentState(cwnd=1.0, count=2)]
        with pytest.raises(ValueError, match="the run's rng"):
            mpsim.engine.step(agents, None, cfg)

    # an rng only for epsilon-greedy at epsilon > 0, a schedule only for
    # weighted round robin: min_load with an rng would step as
    # epsilon-greedy around min-RTT, and epsilon-greedy with a schedule
    # and no rng as weighted round robin
    @pytest.mark.parametrize("strategy, epsilon, with_schedule, with_rng, match", [
        ("min_load", 0.1, False, True, "only epsilon_greedy at epsilon > 0"),
        ("epsilon_greedy", 0.0, False, True, "only epsilon_greedy at epsilon > 0"),
        ("weighted_round_robin", 0.1, True, True, "only epsilon_greedy at epsilon > 0"),
        ("epsilon_greedy", 0.3, True, False, "the run's rng"),
        ("min_rtt", 0.1, True, False, "only weighted_round_robin"),
        ("epsilon_greedy", 0.3, True, True, "only weighted_round_robin"),
    ])
    def test_step_refuses_inputs_its_strategy_does_not_use(self, strategy, epsilon,
                                                           with_schedule, with_rng, match):
        cfg = config(strategy, agents=48, epsilon=epsilon)
        schedule = wrr_schedule(cfg.topology.capacities()) if with_schedule else None
        rng = random.Random("0") if with_rng else None
        state = rng and rng.getstate()
        agents = [AgentState(cwnd=1.0, count=48)]
        with pytest.raises(ValueError, match=match):
            mpsim.engine.step(agents, None, cfg, schedule, rng)
        assert agents == [AgentState(cwnd=1.0, count=48)]
        assert state == (rng and rng.getstate())

    def test_weighted_round_robin_step_needs_its_schedule(self):
        cfg = config("weighted_round_robin", agents=2, steps=1)
        agents = [AgentState(cwnd=1.0) for _ in range(2)]
        for schedule in (None, ()):
            with pytest.raises(ValueError, match="wrr_schedule"):
                mpsim.engine.step(agents, None, cfg, schedule)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("agents", [2, 25, 500])
    def test_epsilon_cohorts_are_distinct_ascending_windows(self, monkeypatch, epsilon,
                                                            agents):
        # after every step the states are the cohorts: distinct windows in
        # ascending order whose counts add up to N, each on a valid path
        real_step = mpsim.engine.step
        cfg = config("epsilon_greedy", agents=agents, steps=60, epsilon=epsilon)
        seen = []

        def recording_step(states, *args, **kwargs):
            record = real_step(states, *args, **kwargs)
            seen.append([(state.cwnd, state.count, state.chosen_path) for state in states])
            return record

        monkeypatch.setattr(mpsim.engine, "step", recording_step)
        telemetry = run(cfg)
        assert len(seen) == cfg.engine.steps
        for cohorts in seen:
            windows = [cwnd for cwnd, _, _ in cohorts]
            assert windows == sorted(set(windows))
            assert sum(count for _, count, _ in cohorts) == agents
            assert all(count >= 1 and 1 <= path <= cfg.topology.path_count
                       for _, count, path in cohorts)
        assert telemetry.final_cwnds == tuple(
            cwnd for cwnd, count, _ in seen[-1] for _ in range(count))

    def test_rule_cohorts_whose_windows_meet_merge(self):
        # two cohorts overflow min-RTT's path 1 (45 + 57 > 50 Mbps), halve
        # onto the floor and come back as one cohort; the path's load adds
        # them cohort by cohort
        agents = [AgentState(1.5, count=30), AgentState(1.9, count=30)]
        record = mpsim.engine.step(agents, None, config("min_rtt", agents=60))
        assert [(state.cwnd, state.count, state.chosen_path) for state in agents] == [
            (1.0, 60, 1)]
        load = 0.0
        for cwnd in [1.5] * 30 + [1.9] * 30:
            load += cwnd
        assert record.loads == (load, 0.0, 0.0)
        assert record.overflows == (load - 50.0, 0.0, 0.0)


# every settable value of a config: the fields of its parts and its own
# other fields
CONFIG_PARTS = {AimdParams: "aimd", EngineParams: "engine", StrategyKind: "strategy"}
OPTIONS = [(owner, field.name) for owner in CONFIG_PARTS for field in dataclasses.fields(owner)] + [
    (SimConfig, field.name) for field in dataclasses.fields(SimConfig)
    if field.name not in CONFIG_PARTS.values()]


class TestEveryOptionMovesAnOutput:
    # every option moves the telemetry, set off its default in a config
    # where it applies; an option that nothing reads has no case here, or
    # one whose telemetry does not move

    @staticmethod
    def cases():
        # 90 agents on min-RTT's 50 Mbps path sit at the floor; 10 grow
        # above it between losses
        herd = config("min_rtt", agents=90, steps=60)
        few = config("min_rtt", agents=10, steps=60)
        explore = config("epsilon_greedy", agents=90, steps=60, epsilon=0.1)
        tagged = Topology("tagged-min-rtt", (PathSpec(1, 50.0, 20.0, frozenset({HIGH_COST_TAG})),
                                             PathSpec(2, 100.0, 50.0)))
        aware = config("attribute_aware", agents=90, steps=60, topology=tagged)
        wider = Topology("wider-path-1", (PathSpec(1, 60.0, 20.0),) + default_topology().paths[1:])
        return {
            (AimdParams, "initial_cwnd"): (few, 2.0),
            (AimdParams, "alpha"): (few, 0.5),
            (AimdParams, "beta"): (few, 0.75),
            (AimdParams, "cwnd_floor"): (herd, 1.5),
            (AimdParams, "mbps_per_cwnd"): (few, 2.0),
            (EngineParams, "steps"): (config("min_rtt", agents=10), 60),
            (EngineParams, "step_ms"): (few, 5.0),
            (StrategyKind, "name"): (few, "min_load"),
            (StrategyKind, "epsilon"): (explore, 0.2),
            (SimConfig, "topology"): (few, wider),
            (SimConfig, "num_agents"): (few, 11),
            (SimConfig, "seed"): (explore, 1),
            (SimConfig, "forbidden_tags"): (aware, frozenset()),
        }

    @pytest.mark.parametrize("owner, name", OPTIONS,
                             ids=[f"{owner.__name__}.{name}" for owner, name in OPTIONS])
    def test_option_moves_the_telemetry(self, owner, name):
        case = self.cases().get((owner, name))
        if case is None:
            pytest.fail(f"{owner.__name__}.{name} has no case that shows it moves an output")
        cfg, value = case
        part = cfg if owner is SimConfig else getattr(cfg, CONFIG_PARTS[owner])
        default = next(field.default for field in dataclasses.fields(owner) if field.name == name)
        if default is not dataclasses.MISSING:
            assert getattr(part, name) == default
        assert value != getattr(part, name)
        moved = dataclasses.replace(part, **{name: value})
        if owner is not SimConfig:
            moved = dataclasses.replace(cfg, **{CONFIG_PARTS[owner]: moved})
        before, after = run(cfg), run(moved)
        assert (after.records, after.final_cwnds) != (before.records, before.final_cwnds)

    def test_every_case_names_an_option(self):
        assert set(self.cases()) == set(OPTIONS)


class TestHerdInvariant:
    @pytest.mark.parametrize("agents", [51, 80, 200])
    def test_min_rtt_herd_overflows_every_step(self, agents):
        # once N * floor exceeds the low-latency path's capacity the herd
        # can never drain it
        telemetry = run(config("min_rtt", agents=agents, steps=60))
        assert all(r.overflows[0] > 0 for r in telemetry.records)


class TestTimeseriesCsv:
    def test_columns_and_shape(self):
        telemetry = run(config(agents=2, steps=4))
        lines = timeseries_csv(telemetry).strip().split("\n")
        assert lines[0] == "step,path_id,load_mbps,overflow_mbps,inst_rtt_ms"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"


class TestExploreDraw:
    # a singleton cohort draws as one agent: a uniform against epsilon,
    # then an explored index that step() draws with getrandbits as CPython's
    # randrange does; a Python release that draws randrange otherwise fails
    # here by name
    @pytest.mark.parametrize("path_count", range(1, 10))
    def test_explored_index_is_randrange(self, path_count):
        topology = paths_topology(path_count)
        for seed in range(4):
            cfg = config("epsilon_greedy", agents=3, seed=seed, epsilon=1.0, topology=topology)
            # three singleton cohorts whose windows stay apart for 6 steps
            agents = [AgentState(cwnd=cwnd) for cwnd in (1.0, 1e3, 1e6)]
            rng, twin = random.Random(str(seed)), random.Random(str(seed))
            prev = None
            for _ in range(6):
                drawing = list(agents)
                prev = mpsim.engine.step(agents, prev, cfg, None, rng)
                assert [agent.count for agent in agents] == [1, 1, 1]
                for agent in drawing:
                    assert twin.random() < 1.0
                    assert agent.chosen_path == twin.randrange(path_count) + 1
                assert rng.getstate() == twin.getstate()

    # cohorts of 4, 1 and 115 agents draw in ascending window order from
    # the one stream: a cohort of k its explorers X ~ Bin(k, epsilon),
    # spread over the paths in path order by Bin(left, 1 / paths left),
    # the singleton as one agent; the exploiters take path 1 (lowest base
    # RTT), and each path's load adds the cohorts' windows in that order
    def test_cohorts_draw_in_ascending_order_from_one_stream(self):
        epsilon, seed = 0.5, 5
        cfg = config("epsilon_greedy", agents=120, seed=seed, epsilon=epsilon)
        path_count = cfg.topology.path_count
        cohorts = [(1.0, 4), (1.1, 1), (2.0, 115)]
        for order in (cohorts, cohorts[::-1]):
            agents = [AgentState(cwnd=cwnd, count=count) for cwnd, count in order]
            if order is not cohorts:
                # step() takes the cohorts in run()'s ascending order
                agents.sort(key=lambda agent: agent.cwnd)
            rng, twin = random.Random(str(seed)), random.Random(str(seed))
            record = mpsim.engine.step(agents, None, cfg, None, rng)
            loads = [0.0] * path_count
            for cwnd, count in cohorts:
                shares = [0] * path_count
                if count == 1:
                    explored = twin.random() < epsilon
                    shares[twin.randrange(path_count) if explored else 0] = 1
                else:
                    explorers = left = binomialvariate(twin.random, count, epsilon)
                    for j in range(path_count):
                        shares[j] = binomialvariate(twin.random, left, 1.0 / (path_count - j))
                        left -= shares[j]
                    shares[0] += count - explorers
                    assert 0 < explorers < count
                for j, share in enumerate(shares):
                    for _ in range(share):
                        loads[j] += cwnd
            assert record.loads == tuple(loads)
            assert rng.getstate() == twin.getstate()
            assert sum(agent.count for agent in agents) == 120


class TestEpsilonPathLists:
    # step() sums each path's load over that path's list of senders, and
    # its path pass updates the windows list by list, skipping on a lost
    # path those already at the floor
    def test_window_below_the_floor_is_lifted_on_its_first_loss(self):
        aimd = AimdParams(initial_cwnd=0.37)
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind("epsilon_greedy"),
                        num_agents=500, aimd=aimd, engine=EngineParams(steps=60))
        assert oracle_agrees(run(cfg))
        agents = [AgentState(cwnd=aimd.initial_cwnd, count=cfg.num_agents)]
        record = mpsim.engine.step(agents, None, cfg, None, random.Random("0"))
        assert record.overflows[0] > 0.0
        on_path_one = [agent.cwnd for agent in agents if agent.chosen_path == 1]
        assert on_path_one and all(cwnd == aimd.cwnd_floor for cwnd in on_path_one)

    # the herd sits on the floor from N = 100 on; mbps_per_cwnd != 1
    # makes every load a sum of products
    @pytest.mark.parametrize("agents", [10, 100, 500])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("aimd_kind", ["default", "scaled"])
    def test_update_matches_oracle(self, aimd_kind, epsilon, agents):
        aimd = AIMD if aimd_kind == "default" else AimdParams(
            initial_cwnd=0.37, alpha=0.73, beta=0.61, cwnd_floor=0.29,
            mbps_per_cwnd=9.1 / agents)
        cfg = SimConfig(topology=default_topology(),
                        strategy=StrategyKind("epsilon_greedy", epsilon=epsilon),
                        num_agents=agents, aimd=aimd, engine=EngineParams(steps=60))
        assert oracle_agrees(run(cfg))


class TestOneUpdateLoop:
    # every strategy's windows go through the path pass's update: a
    # window that starts below the floor grows until its path is lost,
    # and that loss lifts it to the floor although the skip passes over
    # the windows already there
    @pytest.mark.parametrize("agents", [25, 500])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_below_floor_start_matches_oracle(self, strategy, agents):
        cfg = SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                        num_agents=agents, aimd=AimdParams(initial_cwnd=0.37),
                        engine=EngineParams(steps=60))
        telemetry = run(cfg)
        assert any(overflow > 0.0 for r in telemetry.records for overflow in r.overflows)
        assert oracle_agrees(telemetry)


class TestRecords:
    # step() and run()'s replay build each StepRecord by filling its slots
    # themselves, past the frozen dataclass's __init__. astuple reads every
    # field, and an unset slot raises AttributeError: a field added to
    # StepRecord and left unset by _record must fail here
    def test_record_equals_the_constructed_record(self):
        fields = (7, (1.0, 2.5), (0.0, 0.5), (20.0, 50.0))
        record = _record(*fields)
        built = StepRecord(*fields)
        assert record == built and hash(record) == hash(built)
        assert dataclasses.astuple(record) == dataclasses.astuple(built) == fields
        assert not hasattr(record, "__dict__")
        assert dataclasses.replace(record, step=8) == StepRecord(8, *fields[1:])
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.step = 9

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_run_records_equal_the_constructed_records(self, strategy):
        for record in run(config(strategy, agents=30, steps=40)).records:
            built = StepRecord(record.step, record.loads, record.overflows, record.inst_rtts)
            assert dataclasses.astuple(record) == dataclasses.astuple(built)
            assert record == built and hash(record) == hash(built)

    # the records of a run that replays build the copies of a cycle when
    # read; a copy must still be the record the constructor builds, and a
    # slot left unset fails astuple
    @pytest.mark.parametrize("strategy, agents", [
        ("min_rtt", 500), ("min_load", 50), ("weighted_round_robin", 150)])
    def test_replayed_records_equal_the_constructed_records(self, strategy, agents):
        records = run(config(strategy, agents=agents)).records
        assert len({id(r.loads) for r in records}) < len(records)
        assert [r.step for r in records] == list(range(300))
        for record in records:
            built = StepRecord(record.step, record.loads, record.overflows, record.inst_rtts)
            assert type(record) is StepRecord
            assert dataclasses.astuple(record) == dataclasses.astuple(built)
            assert record == built and hash(record) == hash(built)
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.loads = ()

    # the telemetry's config holds the constants step() cached on it, its
    # rule among them
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_records_and_telemetry_survive_pickle_and_deepcopy(self, strategy):
        telemetry = run(config(strategy, agents=12, steps=6))
        for value in (telemetry.records[0], telemetry):
            copies = [copy.deepcopy(value)] + [pickle.loads(pickle.dumps(value, protocol))
                                               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for duplicate in copies:
                assert duplicate == value and duplicate is not value


class TestLazyRecords:
    # a recurring run keeps its cycle once, as a count of repeats, and
    # builds a copy only when it is read; the records must read as the
    # tuple of every record. min_load@50 has records after its copies,
    # min_rtt@500 none, weighted round robin@150 a 23-step cycle
    CELLS = [("min_rtt", 500), ("min_load", 50), ("weighted_round_robin", 150)]

    @pytest.mark.parametrize("strategy, agents", CELLS)
    def test_records_read_as_their_tuple(self, strategy, agents):
        records = run(config(strategy, agents=agents)).records
        whole = tuple(records)
        assert isinstance(records, Records) and records.cycles
        assert len(records) == len(whole) == 300 and list(records) == list(whole)
        assert [r.step for r in whole] == list(range(300))
        for i in range(-300, 300):
            assert records[i] == whole[i]
        for i in (300, -301, 10**20):
            with pytest.raises(IndexError):
                records[i]
        with pytest.raises(TypeError):
            records[1.0]
        for cut in (slice(None), slice(1, None), slice(-7, None), slice(3, 250, 7),
                    slice(None, None, -1), slice(290, 5, -3), slice(400, 500)):
            assert type(records[cut]) is tuple and records[cut] == whole[cut]
        assert records[1:] + (whole[0],) == whole[1:] + (whole[0],)
        assert records == whole and whole == records and not records != whole
        assert records != whole[:-1] and records != list(whole)
        assert hash(records) == hash(whole) and repr(records) == repr(whole)

    @pytest.mark.parametrize("strategy, agents", CELLS)
    def test_records_survive_pickle_and_deepcopy(self, strategy, agents):
        records = run(config(strategy, agents=agents)).records
        copies = [copy.deepcopy(records)] + [pickle.loads(pickle.dumps(records, protocol))
                                             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in copies:
            assert type(duplicate) is Records and duplicate == records
            assert duplicate.parts()[1:3] == records.parts()[1:3]

    def test_records_are_immutable(self):
        records = run(config("min_rtt", agents=500)).records
        with pytest.raises(AttributeError):
            records.cycles = 0

    def test_telemetry_keeps_given_records_without_copies(self):
        telemetry = run(config("min_load", agents=50))
        for given in (tuple(telemetry.records), list(telemetry.records)):
            rebuilt = Telemetry(given, telemetry.final_cwnds, telemetry.config)
            assert type(rebuilt.records) is Records and rebuilt.records.parts()[2] == 0
            assert rebuilt == telemetry and hash(rebuilt) == hash(telemetry)
            replaced = dataclasses.replace(telemetry, records=given)
            assert type(replaced.records) is Records and replaced == telemetry
        assert dataclasses.replace(telemetry).records is telemetry.records

    def test_run_builds_no_record_for_a_copied_step(self, monkeypatch):
        # step() builds the computed records and run() the one of the last
        # copied step, which the leftover steps would read; scoring builds none
        built, computed = [], []
        real_new, real_step = mpsim.engine._new_record, mpsim.engine.step

        def counting_new(cls):
            built.append(cls)
            return real_new(cls)

        def counting_step(*args):
            computed.append(args)
            return real_step(*args)

        monkeypatch.setattr(mpsim.engine, "_new_record", counting_new)
        monkeypatch.setattr(mpsim.engine, "step", counting_step)
        telemetry = run(config("min_rtt", agents=2000, steps=300))
        assert len(telemetry.records) == 300 and len(computed) < 300
        assert len(built) == len(computed) + 1
        mpsim.score(telemetry)
        assert len(built) == len(computed) + 1
        # reading them builds every copy
        assert len(tuple(telemetry.records)) == 300 and len(built) == 300 + 1


class TestFinalWindows:
    # run() lists the final windows per state by tuple repetition: agent i
    # of weighted round robin is cursor class i mod S, and the cohorts of
    # every other strategy follow each other, each one float object
    # repeated for its agents
    @pytest.mark.parametrize("agents", [1, 23, 24, 2000])
    @pytest.mark.parametrize("strategy", ["min_rtt", "epsilon_greedy", "weighted_round_robin"])
    def test_final_windows_expand_the_states_agent_by_agent(self, monkeypatch, strategy, agents):
        real_step = mpsim.engine.step
        stepped = []

        def capturing_step(states, *args, **kwargs):
            stepped.append(states)
            return real_step(states, *args, **kwargs)

        monkeypatch.setattr(mpsim.engine, "step", capturing_step)
        final = run(config(strategy, agents=agents)).final_cwnds
        # run() steps one list of states, which ends as the final states
        states = stepped[-1]
        assert all(states is other for other in stepped)
        if strategy == "weighted_round_robin":
            expansion = [states[i % len(states)].cwnd for i in range(agents)]
        else:
            expansion = [state.cwnd for state in states for _ in range(state.count)]
        if strategy == "epsilon_greedy" and agents == 2000:
            assert len(states) > 1
        assert type(final) is tuple and len(final) == agents
        assert all(window is expanded for window, expanded in zip(final, expansion))


# a topology given in int fields: every load, overflow and RTT a step
# records must still be a float
INT_PATHS = (PathSpec(1, 50, 20), PathSpec(2, 100, 50),
             PathSpec(3, 80, 80, frozenset({"high-cost"})))


class TestStepShortcuts:
    # step() gives a path without senders overflow 0.0 and its base RTT
    # without the path arithmetic, and epsilon-greedy's last path the
    # explorers left without a draw; both must stay what the oracle's
    # full arithmetic and draws give
    @pytest.mark.parametrize("agents", [1, 200])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_idle_paths_record_zero_and_their_base_rtt(self, strategy, agents):
        topology = Topology("ints", INT_PATHS)
        telemetry = run(config(strategy, agents=agents, steps=60, topology=topology))
        assert oracle_agrees(telemetry)
        idle = 0
        for record in telemetry.records:
            for load, overflow, rtt, path in zip(record.loads, record.overflows,
                                                 record.inst_rtts, topology.paths):
                assert type(load) is type(overflow) is type(rtt) is float
                if load == 0.0:
                    idle += 1
                    assert repr(overflow) == "0.0"
                    assert rtt == float(path.base_rtt_ms)
        # one agent leaves two of the three paths idle on every step
        assert idle >= (2 * len(telemetry.records) if agents == 1 else 0)

    # with one path, the only path is the last one
    @pytest.mark.parametrize("path_count", [1, 2, 5])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    def test_epsilon_greedy_last_path_takes_the_rest(self, epsilon, path_count):
        topology = Topology("ints", tuple(PathSpec(i, 20 * i, 10 + 7 * i)
                                          for i in range(1, path_count + 1)))
        telemetry = run(config("epsilon_greedy", agents=60, steps=80, epsilon=epsilon,
                               topology=topology))
        assert oracle_agrees(telemetry)


def chi2_sf(stat, dof):
    """P(X >= stat) for X chi-square with dof degrees of freedom: the
    regularized upper incomplete gamma Q(dof / 2, stat / 2), by its power
    series below stat / 2 = dof / 2 + 1 and by its continued fraction
    above (Press et al., Numerical Recipes, 2nd ed., sec. 6.2)."""
    a, x = dof / 2, stat / 2
    if x <= 0:
        return 1.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1:
        term = total = 1 / a
        n = 1
        while term > 1e-17 * total:
            term *= x / (a + n)
            total += term
            n += 1
        return 1.0 - math.exp(log_prefix) * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    fraction = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        fraction *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return math.exp(log_prefix) * fraction


def chi2_pvalue(observed, expected_probs):
    """Pearson's test of the counts `observed` (a dict outcome -> count)
    against the exact probabilities `expected_probs` (outcome -> p, summing
    to 1): outcomes expected fewer than 5 times pool into one cell."""
    trials = sum(observed.values())
    cells, pooled_p, pooled_n = [], 0.0, 0
    for outcome, p in expected_probs.items():
        if p * trials >= 5:
            cells.append((observed.get(outcome, 0), p * trials))
        else:
            pooled_p += p
            pooled_n += observed.get(outcome, 0)
    assert set(observed) <= set(expected_probs)
    if pooled_p * trials >= 5:
        cells.append((pooled_n, pooled_p * trials))
    elif cells:
        count, mean = cells.pop()
        cells.append((count + pooled_n, mean + pooled_p * trials))
    stat = sum((count - mean) ** 2 / mean for count, mean in cells)
    return chi2_sf(stat, len(cells) - 1)


def binomial_pmf(n, p):
    return {k: math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)}


class TestExactDraws:
    # Pearson chi-square tests at fixed seeds against exact laws. Each of
    # the 10 p-values below must exceed 0.001: a correct sampler fails
    # any one with probability 0.001 over the choice of seed, so all of
    # them at once for under 1% of seed choices, while a sampler off by a
    # few percent in a well-filled cell fails
    DRAWS = 60_000
    STEPS = 20_000

    def test_chi2_sf_matches_known_quantiles(self):
        # upper 0.1% and 50% points of the chi-square law (standard
        # tables), on both sides of the series' range, and a far tail
        for stat, dof in ((10.828, 1), (29.588, 10), (59.703, 30), (86.661, 50)):
            assert chi2_sf(stat, dof) == pytest.approx(0.001, rel=2e-3)
        for stat, dof in ((0.45494, 1), (9.3418, 10), (29.336, 30)):
            assert chi2_sf(stat, dof) == pytest.approx(0.5, rel=1e-4)
        assert 0.0 <= chi2_sf(5000.0, 40) < 1e-300

    # n = 1 (one uniform), n p < 10 (Devroye's geometric method), n p >= 10
    # (BTRS), and p > 0.5 (the symmetry) on both methods
    @pytest.mark.parametrize("n, p, seed", [
        (1, 0.3, "n1"), (30, 0.1, "geometric"), (400, 0.2, "btrs"),
        (25, 0.85, "mirror-geometric"), (300, 0.7, "mirror-btrs"),
    ])
    def test_binomialvariate_matches_the_pmf(self, n, p, seed):
        uniform = random.Random(seed).random
        observed = {}
        for _ in range(self.DRAWS):
            x = binomialvariate(uniform, n, p)
            observed[x] = observed.get(x, 0) + 1
        assert chi2_pvalue(observed, binomial_pmf(n, p)) > 0.001

    def test_binomialvariate_edges_draw_nothing(self):
        rng = random.Random("edges")
        state = rng.getstate()
        assert binomialvariate(rng.random, 0, 0.4) == 0
        assert binomialvariate(rng.random, 7, 0.0) == 0
        assert binomialvariate(rng.random, 7, 1.0) == 7
        assert rng.getstate() == state

    # one step of one cohort of k agents at window 1.0: each path's load is
    # its agent count, which must be Multinomial(k; 1 - eps + eps / P on
    # the exploited path 1, eps / P on the others)
    @pytest.mark.parametrize("agents, epsilon, seed", [(8, 0.6, "small"), (5, 0.2, "rare")])
    def test_cohort_counts_are_multinomial(self, agents, epsilon, seed):
        cfg = config("epsilon_greedy", agents=agents, epsilon=epsilon)
        path_count = cfg.topology.path_count
        probs = [1 - epsilon + epsilon / path_count] + [epsilon / path_count] * (path_count - 1)
        law = {}
        for counts in itertools.product(range(agents + 1), repeat=path_count):
            if sum(counts) == agents:
                ways = math.factorial(agents)
                for count, prob in zip(counts, probs):
                    ways = ways / math.factorial(count) * prob ** count
                law[counts] = ways
        rng = random.Random(seed)
        observed = {}
        for _ in range(self.STEPS):
            record = mpsim.engine.step([AgentState(cwnd=1.0, count=agents)],
                                       None, cfg, None, rng)
            counts = tuple(int(load) for load in record.loads)
            observed[counts] = observed.get(counts, 0) + 1
        assert chi2_pvalue(observed, law) > 0.001

    # a cohort large enough that its explorers and their split use BTRS:
    # each path's count is Bin(k, its probability)
    def test_large_cohort_path_counts_are_binomial(self):
        agents, epsilon = 300, 0.3
        cfg = config("epsilon_greedy", agents=agents, epsilon=epsilon)
        path_count = cfg.topology.path_count
        rng = random.Random("large")
        observed = [{} for _ in range(path_count)]
        for _ in range(self.STEPS // 4):
            record = mpsim.engine.step([AgentState(cwnd=1.0, count=agents)],
                                       None, cfg, None, rng)
            for tally, load in zip(observed, record.loads):
                tally[int(load)] = tally.get(int(load), 0) + 1
        for j, tally in enumerate(observed):
            prob = (1 - epsilon if j == 0 else 0.0) + epsilon / path_count
            assert chi2_pvalue(tally, binomial_pmf(agents, prob)) > 0.001
