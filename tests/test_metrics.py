import dataclasses
import math
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from mpsim import (
    STRATEGY_NAMES,
    AimdParams,
    EngineParams,
    PathSpec,
    SimConfig,
    StepRecord,
    StrategyKind,
    Telemetry,
    Topology,
    default_topology,
    efficiency,
    jain_fairness,
    loss,
    loss_avoidance,
    oscillation,
    run,
    score,
    stability,
)
from reference import goodput


def synthetic(loads_per_step, cwnds=(1.0, 1.0)):
    """Telemetry with given per-step per-path loads on the default topology."""
    topo = default_topology()
    caps = topo.capacities()
    records = []
    for t, loads in enumerate(loads_per_step):
        overflows = tuple(max(0.0, l - c) for l, c in zip(loads, caps))
        records.append(StepRecord(step=t, loads=tuple(loads), overflows=overflows,
                                  inst_rtts=(20.0, 50.0, 80.0)))
    config = SimConfig(topology=topo, strategy=StrategyKind("min_rtt"),
                       num_agents=len(cwnds), engine=EngineParams(steps=len(records)))
    return Telemetry(records=tuple(records), final_cwnds=tuple(cwnds), config=config)


class TestEfficiency:
    def test_mean_of_totals(self):
        t = synthetic([(10.0, 20.0, 30.0), (20.0, 20.0, 20.0)])
        assert efficiency(t) == 60.0

    def test_all_zero(self):
        t = synthetic([(0.0, 0.0, 0.0)])
        assert efficiency(t) == 0.0


class TestLoss:
    def test_no_overflow(self):
        t = synthetic([(10.0, 20.0, 30.0)])
        assert loss(t) == 0.0

    def test_mean_of_overflow_totals(self):
        t = synthetic([(60.0, 0.0, 0.0), (0.0, 105.0, 0.0)])
        assert loss(t) == pytest.approx(7.5)


class TestOscillation:
    def test_identical_loads_zero(self):
        t = synthetic([(5.0, 5.0, 5.0), (9.0, 9.0, 9.0)])
        assert oscillation(t) == 0.0

    def test_concentrated_load_closed_form(self):
        t = synthetic([(1000.0, 0.0, 0.0)] * 4)
        assert oscillation(t) == pytest.approx(1000.0 * math.sqrt(2.0) / 3.0)
        assert round(oscillation(t), 2) == 471.40

    @pytest.mark.parametrize("level", [1.0, 37.5, 500.0])
    def test_two_path_closed_form(self, level):
        t = synthetic([(level, level, 0.0)] * 3)
        assert oscillation(t) == pytest.approx(level * math.sqrt(2.0) / 3.0, abs=1e-9)


class TestBoundedScores:
    def test_stability_of_zero(self):
        assert stability(0.0) == 1.0

    def test_stability_examples(self):
        assert round(stability(4.25), 2) == 0.19
        assert round(stability(9.44), 2) == 0.10

    def test_loss_avoidance_examples(self):
        assert loss_avoidance(0.0) == 1.0
        assert round(loss_avoidance(2.44), 2) == 0.29
        assert round(loss_avoidance(0.43), 2) == 0.70

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_strictly_decreasing_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        assert 0.0 < stability(hi) <= stability(lo) <= 1.0
        assert 0.0 < loss_avoidance(hi) <= loss_avoidance(lo) <= 1.0
        if hi - lo > 1e-6:  # resolvable gap at double precision
            assert stability(hi) < stability(lo)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stability(-1.0)
        with pytest.raises(ValueError):
            loss_avoidance(-0.5)


class TestJainFairness:
    def test_equal_allocation(self):
        assert jain_fairness([3.7] * 12) == pytest.approx(1.0)

    def test_one_hot_worst_case(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_hand_example(self):
        assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="undefined fairness"):
            jain_fairness([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([1.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_integer_beyond_the_float_range_reraises_overflow(self):
        with pytest.raises(OverflowError):
            jain_fairness([1.0, 10**400])

    def test_subnormal_underflow_rejected_not_crash(self):
        with pytest.raises(ValueError, match="undefined fairness"):
            jain_fairness([5e-324])

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
           st.floats(0.1, 50.0))
    def test_scale_invariance(self, values, factor):
        assert jain_fairness([v * factor for v in values]) == pytest.approx(
            jain_fairness(values), rel=1e-9)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=30))
    def test_permutation_invariance(self, values):
        assert jain_fairness(sorted(values)) == pytest.approx(
            jain_fairness(values), rel=1e-9)

    @given(st.lists(st.floats(0.0, 100.0).map(lambda v: 0.0 if v < 1e-6 else v),
                    min_size=1, max_size=30))
    def test_range(self, values):
        if sum(values) == 0:
            return
        n = len(values)
        assert 1.0 / n - 1e-12 <= jain_fairness(values) <= 1.0 + 1e-12


class TestScore:
    def test_all_zero_telemetry(self):
        t = synthetic([(0.0, 0.0, 0.0)], cwnds=(2.0, 2.0))
        s = score(t)
        assert (s.oscillation, s.loss, s.fairness, s.efficiency) == (0.0, 0.0, 1.0, 0.0)
        assert (s.stability, s.loss_avoidance, s.goodput) == (1.0, 1.0, 0.0)

    def test_telemetry_without_records_rejected(self):
        config = synthetic([(0.0, 0.0, 0.0)]).config
        t = Telemetry(records=(), final_cwnds=(2.0, 2.0), config=config)
        with pytest.raises(ValueError, match="^telemetry has no records$"):
            score(t)

    def test_internal_identities_exact(self):
        t = run(SimConfig(topology=default_topology(),
                          strategy=StrategyKind("epsilon_greedy"),
                          num_agents=60, engine=EngineParams(steps=150), seed=3))
        s = score(t)
        assert s.stability == 1.0 / (1.0 + s.oscillation)
        assert s.loss_avoidance == 1.0 / (1.0 + s.loss)
        assert s.goodput == s.efficiency - s.loss
        assert s.goodput >= 0.0

    @pytest.mark.parametrize("strategy", ["min_rtt", "round_robin", "weighted_round_robin"])
    def test_goodput_identity_two_routes(self, strategy):
        # mean capped delivered load must equal efficiency minus loss
        t = run(SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                          num_agents=130, engine=EngineParams(steps=200), seed=11))
        s = score(t)
        assert abs((s.efficiency - s.loss) - goodput(t)) <= 1e-6

    def test_round_robin_full_symmetry_gives_unit_fairness(self):
        t = run(SimConfig(topology=default_topology(), strategy=StrategyKind("round_robin"),
                          num_agents=500, engine=EngineParams(steps=60), seed=0))
        assert score(t).fairness == 1.0

    # (v - mean) ** 2 overflowing raises OverflowError, and squares of
    # 1e200 overflow Jain's sums to inf / inf = nan; both must be a
    # ValueError that names the quantity
    @pytest.mark.parametrize("loads, cwnds, quantity", [
        ((1e200, 0.0, 0.0), (1.0, 1.0), "oscillation"),
        ((1.0, 0.0, 0.0), (1e200, 1e200), "fairness"),
    ])
    def test_non_finite_score_raises_naming_it(self, loads, cwnds, quantity):
        with pytest.raises(ValueError, match=f"^{quantity} is not finite"):
            score(synthetic([loads], cwnds=cwnds))


def plain_sum(values):
    """The values added one by one in order, uncompensated on every
    interpreter (sum() compensates floats from CPython 3.12 on)."""
    return reduce(add, values, 0)


def reference_means(telemetry):
    """Efficiency, loss and oscillation as separate passes, each summing
    its per-step values in step order: the formulas score() must equal."""
    records = telemetry.records
    steps = len(records)

    def std(values):
        mean = plain_sum(values) / len(values)
        return math.sqrt(plain_sum((v - mean) ** 2 for v in values) / len(values))

    return (plain_sum(plain_sum(r.loads) for r in records) / steps,
            plain_sum(plain_sum(r.overflows) for r in records) / steps,
            plain_sum(std(r.loads) for r in records) / steps)


SCORED = [(strategy, agents) for strategy in STRATEGY_NAMES for agents in (10, 500)]


@pytest.fixture(scope="module", params=SCORED, ids=[f"{s}-{n}" for s, n in SCORED])
def scored_telemetry(request):
    strategy, agents = request.param
    return run(SimConfig(topology=default_topology(), strategy=StrategyKind(strategy),
                         num_agents=agents, aimd=AimdParams(alpha=0.73, initial_cwnd=0.37),
                         engine=EngineParams(steps=300), seed=7))


class TestOnePassScore:
    # score() reads the records once for efficiency, loss and oscillation;
    # the results must be bit for bit those of the separate functions and
    # of the per-step formulas summed in step order
    def test_fields_equal_public_functions(self, scored_telemetry):
        s = score(scored_telemetry)
        assert s.efficiency == efficiency(scored_telemetry)
        assert s.loss == loss(scored_telemetry)
        assert s.oscillation == oscillation(scored_telemetry)
        assert s.fairness == jain_fairness(scored_telemetry.final_cwnds)

    def test_means_equal_per_step_formulas(self, scored_telemetry):
        assert (efficiency(scored_telemetry), loss(scored_telemetry),
                oscillation(scored_telemetry)) == reference_means(scored_telemetry)

    @given(st.lists(st.tuples(*[st.floats(0.0, 1e6)] * 3), min_size=1, max_size=40))
    def test_synthetic_means_equal_per_step_formulas(self, loads_per_step):
        t = synthetic(loads_per_step)
        s = score(t)
        assert (s.efficiency, s.loss, s.oscillation) == reference_means(t)

    def test_sums_add_in_order_on_every_interpreter(self):
        # in order, 1e16 + 1.0 rounds back to 1e16 twice; a compensated
        # sum (sum() from CPython 3.12 on) would keep the 2.0
        assert efficiency(synthetic([(1e16, 1.0, 1.0)])) == 1e16
        assert jain_fairness([1e16, 1.0, 1.0]) == 1e32 / (3 * 1e32)

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError, match="no paths"):
            score(synthetic([()]))


def fresh_copy(telemetry):
    """The same telemetry with a new tuple for every tuple and a new float
    for every window, so no record shares an object with another."""
    return Telemetry(
        records=tuple(StepRecord(step=r.step, loads=tuple(list(r.loads)),
                                 overflows=tuple(list(r.overflows)),
                                 inst_rtts=tuple(list(r.inst_rtts)))
                      for r in telemetry.records),
        final_cwnds=tuple(float(repr(v)) for v in telemetry.final_cwnds),
        config=telemetry.config)


def old_jain(values):
    """Jain's index as one pass per sum, value by value."""
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values):
        raise ValueError("fairness requires nonnegative values")
    total = plain_sum(values)
    square_sum = plain_sum(v * v for v in values)
    if total == 0 or square_sum == 0:
        raise ValueError("undefined fairness: all values are zero")
    return (total * total) / (len(values) * square_sum)


def outcome(function, *args):
    try:
        return "value", repr(function(*args))
    except Exception as exc:  # compared across both formulas
        return type(exc), str(exc)


class TestReuse:
    # score() adds a replayed cycle's step values without building its
    # copies, and runs of equal windows with _repeated_add; both must give
    # the plain loops' floats bit for bit, also where records share tuples
    @settings(max_examples=60, deadline=None)
    @given(strategy=st.sampled_from(STRATEGY_NAMES),
           rows=st.lists(st.tuples(st.floats(5.0, 200.0), st.floats(1.0, 100.0)),
                         min_size=1, max_size=4),
           agents=st.integers(1, 3000), steps=st.integers(1, 300))
    def test_replayed_run_scores_as_fresh_copies(self, strategy, rows, agents, steps):
        topology = Topology("drawn", tuple(PathSpec(i + 1, capacity, rtt)
                                           for i, (capacity, rtt) in enumerate(rows)))
        # epsilon 0 keeps epsilon-greedy free of an rng, so its run can replay
        telemetry = run(SimConfig(topology=topology,
                                  strategy=StrategyKind(strategy, epsilon=0.0),
                                  num_agents=agents, engine=EngineParams(steps=steps)))
        replayed = len({id(r.loads) for r in telemetry.records}) < steps
        event(f"replayed: {replayed}")
        shared, fresh = score(telemetry), score(fresh_copy(telemetry))
        assert repr(shared) == repr(fresh)
        for field in dataclasses.fields(shared):
            assert getattr(shared, field.name) == getattr(fresh, field.name)

    # score() adds a replayed cycle's step values once per repeat, or at
    # once where they are all equal, without building its copies; the
    # same records given as a tuple are scored one by one
    @settings(max_examples=80, deadline=None)
    @given(strategy=st.sampled_from(STRATEGY_NAMES),
           rows=st.lists(st.tuples(st.floats(5.0, 200.0), st.floats(1.0, 100.0)),
                         min_size=1, max_size=4),
           agents=st.integers(1, 5000), steps=st.integers(1, 400),
           aimd=st.sampled_from([AimdParams(), AimdParams(alpha=0.73, initial_cwnd=0.37)]))
    def test_kept_cycle_scores_as_its_tuple(self, strategy, rows, agents, steps, aimd):
        topology = Topology("drawn", tuple(PathSpec(i + 1, capacity, rtt)
                                           for i, (capacity, rtt) in enumerate(rows)))
        telemetry = run(SimConfig(topology=topology,
                                  strategy=StrategyKind(strategy, epsilon=0.0),
                                  num_agents=agents, aimd=aimd, engine=EngineParams(steps=steps)))
        assume(telemetry.records.parts()[2])
        whole = Telemetry(tuple(telemetry.records), telemetry.final_cwnds, telemetry.config)
        assert whole.records.parts()[2] == 0
        assert repr(score(telemetry)) == repr(score(whole))

    def test_a_herd_replays_and_scores_as_fresh_copies(self):
        telemetry = run(SimConfig(topology=default_topology(), strategy=StrategyKind("min_rtt"),
                                  num_agents=500, engine=EngineParams(steps=300)))
        assert len({id(r.loads) for r in telemetry.records}) < 300
        assert score(telemetry) == score(fresh_copy(telemetry))

    def test_shared_loads_with_other_overflows_read_their_own(self):
        loads = (60.0, 0.0, 0.0)
        first, second = (10.0, 0.0, 0.0), (2.5, 0.0, 0.0)
        rtts = (20.0, 50.0, 80.0)
        t = synthetic([loads])
        t = Telemetry(records=(StepRecord(0, loads, first, rtts),
                               StepRecord(1, loads, second, rtts),
                               StepRecord(2, loads, first, rtts)),
                      final_cwnds=t.final_cwnds, config=t.config)
        assert loss(t) == (10.0 + 2.5 + 10.0) / 3
        assert score(t) == score(fresh_copy(t))

    def test_overflow_error_names_the_first_step_whose_spread_overflows(self):
        steady, wild = synthetic([(1.0, 2.0, 3.0), (1e200, 0.0, 0.0)]).records
        t = synthetic([(1.0, 2.0, 3.0)])
        t = Telemetry(records=(steady, StepRecord(1, wild.loads, wild.overflows, wild.inst_rtts),
                               StepRecord(2, steady.loads, steady.overflows, steady.inst_rtts),
                               StepRecord(3, wild.loads, wild.overflows, wild.inst_rtts)),
                      final_cwnds=t.final_cwnds, config=t.config)
        with pytest.raises(ValueError, match="spread of step 1 overflows"):
            score(t)

    # a run is one object repeated, as run() lists a cohort, or equal but
    # distinct floats; `rounds` repeats the runs as unsorted classes, as
    # run() lists weighted round robin's cursor classes, with a remainder
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(), st.floats(0.0, 1e-300), st.floats(1.0, 100.0),
                  st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e154, math.inf, math.nan]),
                  st.integers(-1, 3)),
        st.one_of(st.integers(1, 3), st.integers(1, 3000)),
        st.booleans()), min_size=1, max_size=6),
        st.integers(1, 3), st.booleans())
    def test_jain_fairness_equals_the_plain_formula(self, runs, rounds, as_tuple):
        classes = [v for value, count, distinct in runs
                   for v in ([float(repr(value)) for _ in range(count)]
                             if distinct and type(value) is float else [value] * count)]
        values = classes * rounds + classes[:len(classes) // 2] if rounds > 1 else classes
        if as_tuple:
            values = tuple(values)
        assert outcome(jain_fairness, values) == outcome(old_jain, values)

    def test_jain_fairness_refuses_a_negative_before_an_overflowing_int(self):
        values = [1.0, 10 ** 400, -1.0]
        assert outcome(jain_fairness, values) == outcome(old_jain, values) == (
            ValueError, "fairness requires nonnegative values")

    @pytest.mark.parametrize("values", [
        (2.5,) * 40 + (1.5,) * 3 + (2.5,) * 40,
        (1.0, 1.0, 1.0, 1.7) * 60,
        (1.0,) * 17 + (2.0,) + (1.0,) * 17,
        (0.1,) * 5000 + (0.3,) * 5000 + (0.1,),
        (1e154,) * 40,
        (1.4e154,) * 40,
        (5e-324,) * 40,
        (-1.0,) * 40,
        (-0.0,) * 40,
        (0.1,) * 400,
        (1,) + (1.0,) * 40,
        (1.0,) * 40 + (1,),
        (True,) + (1.0,) * 40,
    ])
    def test_jain_fairness_of_interrupted_runs_equals_the_plain_formula(self, values):
        # the herd test takes only windows that all equal a positive float
        # whose square is finite and nonzero: a run interrupted by another
        # value, a square sum that overflows (1e154), a square that is
        # infinite (1.4e154) or underflows (5e-324), a negative or zero
        # herd, and a herd with an int or bool among its floats must give
        # the plain formula's value or refusal
        assert outcome(jain_fairness, values) == outcome(old_jain, values)
