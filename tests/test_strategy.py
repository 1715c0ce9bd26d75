import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mpsim import (
    StrategyKind,
    select_attribute_aware,
    select_min_load,
    select_min_rtt,
    wrr_schedule,
)
from reference import (
    SelectorState,
    naive_run,
    select_epsilon_greedy,
    select_round_robin,
    select_wrr,
)

RTTS = (20.0, 50.0, 80.0)
HIGH_COST = frozenset({"high-cost"})
NO_TAGS = frozenset()

# one value per path, drawn from a few so that ties are common
random_values = st.lists(st.sampled_from([1.0, 20.0, 20.5, 500.0]) | st.floats(1.0, 500.0),
                         min_size=1, max_size=6).map(tuple)


class TestMinRtt:
    def test_uncongested_default(self):
        assert select_min_rtt(RTTS) == 1

    def test_tie_breaks_to_lowest_id(self):
        assert select_min_rtt((30.0, 30.0, 80.0)) == 1

    def test_argmin(self):
        assert select_min_rtt((60.0, 50.0, 80.0)) == 2

    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_input_rejected(self, empty):
        with pytest.raises(ValueError):
            select_min_rtt(empty)

    @given(random_values)
    def test_returns_a_path_of_least_rtt(self, rtts):
        chosen = select_min_rtt(rtts)
        assert 1 <= chosen <= len(rtts) and rtts[chosen - 1] == min(rtts)


class TestMinLoad:
    def test_unique_argmin(self):
        assert select_min_load((40.0, 10.0, 20.0)) == 2

    def test_step_zero_tie(self):
        assert select_min_load((0.0, 0.0, 0.0)) == 1

    def test_close_argmin(self):
        assert select_min_load((5.0, 5.0, 4.9)) == 3

    def test_tie_after_a_heavier_path_breaks_to_lowest_id(self):
        assert select_min_load((9.0, 4.0, 4.0)) == 2

    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_input_rejected(self, empty):
        with pytest.raises(ValueError):
            select_min_load(empty)


class TestAttributeAware:
    def test_filters_then_min_rtt(self):
        assert select_attribute_aware(RTTS, (NO_TAGS, NO_TAGS, HIGH_COST), {"high-cost"}) == 1

    def test_empty_filter_is_min_rtt(self):
        rtts = (60.0, 50.0, 80.0)
        assert select_attribute_aware(rtts, (HIGH_COST,) * 3, set()) == select_min_rtt(rtts)

    def test_filter_removes_best_path(self):
        assert select_attribute_aware((90.0, 50.0, 20.0), (NO_TAGS, NO_TAGS, HIGH_COST),
                                      {"high-cost"}) == 2

    def test_tie_among_admissible_breaks_to_lowest_id(self):
        assert select_attribute_aware((30.0, 30.0, 30.0), (HIGH_COST, NO_TAGS, NO_TAGS),
                                      {"high-cost"}) == 2

    def test_all_filtered_is_an_error(self):
        with pytest.raises(ValueError, match="no admissible path"):
            select_attribute_aware((20.0,), (HIGH_COST,), {"high-cost"})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            select_attribute_aware((), (), {"high-cost"})

    @given(random_values)
    def test_never_returns_forbidden(self, rtts):
        tags = tuple(HIGH_COST if path_id % 2 else NO_TAGS
                     for path_id in range(1, len(rtts) + 1))
        if all(tags):
            with pytest.raises(ValueError):
                select_attribute_aware(rtts, tags, {"high-cost"})
        else:
            chosen = select_attribute_aware(rtts, tags, {"high-cost"})
            assert "high-cost" not in tags[chosen - 1]


class TestRoundRobin:
    def test_first_slot(self):
        assert select_round_robin(SelectorState(rr_cursor=0), 3) == 1

    def test_wrapped_cursor(self):
        assert select_round_robin(SelectorState(rr_cursor=5), 3) == 3

    def test_fixed_cycle(self):
        state = SelectorState()
        assert [select_round_robin(state, 3) for _ in range(6)] == [1, 2, 3, 1, 2, 3]

    def test_cursor_advances_by_one_per_call(self):
        state = SelectorState()
        for expected in range(5):
            assert state.rr_cursor == expected
            select_round_robin(state, 3)


class TestWrrSchedule:
    def test_default_capacities(self):
        sched = wrr_schedule((50.0, 100.0, 80.0))
        assert len(sched) == 23
        assert Counter(sched) == {1: 5, 2: 10, 3: 8}

    def test_equal_weights_alternate(self):
        assert wrr_schedule((10.0, 10.0)) == (1, 2)

    def test_single_path(self):
        assert wrr_schedule((30.0,)) == (1,)

    def test_non_integer_capacities_rounded(self):
        assert Counter(wrr_schedule((1.4, 2.6))) == {1: 1, 2: 3}

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="round to zero"):
            wrr_schedule((0.2, 0.3))

    def test_no_capacities_rejected(self):
        with pytest.raises(ValueError, match="^no capacities given$"):
            wrr_schedule(())

    def test_smooth_interleaving_avoids_runs(self):
        # smooth WRR spreads the heavy path instead of bunching it
        sched = wrr_schedule((50.0, 100.0, 80.0))
        assert all(sched[i] != sched[i + 1] for i in range(len(sched) - 1))


class TestSelectWrr:
    def test_first_slot_is_heaviest_path(self):
        sched = wrr_schedule((50.0, 100.0, 80.0))
        assert select_wrr(SelectorState(rr_cursor=0), sched) == 2

    def test_counts_over_one_period(self):
        sched = wrr_schedule((50.0, 100.0, 80.0))
        state = SelectorState()
        picks = Counter(select_wrr(state, sched) for _ in range(23))
        assert picks == {1: 5, 2: 10, 3: 8}

    def test_counts_over_two_periods(self):
        sched = wrr_schedule((50.0, 100.0, 80.0))
        state = SelectorState()
        picks = Counter(select_wrr(state, sched) for _ in range(46))
        assert picks == {1: 10, 2: 20, 3: 16}

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            select_wrr(SelectorState(), ())


class TestEpsilonGreedy:
    def test_epsilon_zero_is_min_rtt(self):
        state = SelectorState(rng=random.Random("x"))
        rtts = (60.0, 50.0, 80.0)
        assert all(select_epsilon_greedy(state, rtts, 0.0) == select_min_rtt(rtts)
                   for _ in range(500))

    def test_epsilon_one_uniform_within_3_sigma(self):
        state = SelectorState(rng=random.Random("freq"))
        n = 10_000
        counts = Counter(select_epsilon_greedy(state, RTTS, 1.0) for _ in range(n))
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        for path_id in (1, 2, 3):
            assert abs(counts[path_id] / n - 1 / 3) <= 3 * sigma

    def test_exploit_share_at_epsilon_point_one(self):
        state = SelectorState(rng=random.Random("lln"))
        n = 100_000
        hits = sum(select_epsilon_greedy(state, RTTS, 0.1) == 1 for _ in range(n))
        assert abs(hits / n - (0.9 + 0.1 / 3)) <= 0.01

    def test_same_seed_reproduces_sequence(self):
        seq1 = [select_epsilon_greedy(SelectorState(rng=random.Random("s:7")), RTTS, 0.3)
                for _ in range(1)]
        a = SelectorState(rng=random.Random("s:7"))
        b = SelectorState(rng=random.Random("s:7"))
        seq_a = [select_epsilon_greedy(a, RTTS, 0.3) for _ in range(200)]
        seq_b = [select_epsilon_greedy(b, RTTS, 0.3) for _ in range(200)]
        assert seq_a == seq_b
        assert seq1[0] == seq_a[0]

    def test_missing_rng_rejected(self):
        with pytest.raises(ValueError):
            select_epsilon_greedy(SelectorState(), RTTS, 0.5)


class TestBlest:
    # the engine steps blest by min-RTT's rule; the oracle keeps BLEST's
    # filter (paths within filter_factor of the best RTT, then min-RTT),
    # which for positive RTTs and a factor >= 1 always keeps the min-RTT
    # path, so the two give the same records
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), path_count=st.integers(1, 4),
           filter_factor=st.floats(1.0, 10.0), agents=st.integers(1, 60))
    def test_filter_keeps_the_min_rtt_path(self, data, path_count, filter_factor, agents):
        rtt = st.sampled_from([10.0, 20.0, 20.5, 80.0]) | st.floats(1.0, 200.0)
        paths = [{"id": i + 1, "cap": data.draw(st.floats(1.0, 100.0)), "rtt": data.draw(rtt),
                  "attrs": ()} for i in range(path_count)]
        blest = naive_run(paths, "blest", agents, 40, 0, filter_factor=filter_factor)
        assert blest == naive_run(paths, "min_rtt", agents, 40, 0)


class TestStrategyKind:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            StrategyKind("bogus")

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            StrategyKind("epsilon_greedy", epsilon=eps)

    def test_filter_factor_is_not_an_option(self):
        # BLEST's filter always keeps the min-RTT path, so its factor moved
        # no output; the oracle's default stays readable on the class
        with pytest.raises(TypeError, match="filter_factor"):
            StrategyKind("blest", filter_factor=2.0)
        assert StrategyKind.filter_factor == StrategyKind("blest").filter_factor == 1.5
