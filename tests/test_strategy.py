import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mpsim import (
    PathView,
    StrategyKind,
    select_attribute_aware,
    select_blest,
    select_min_load,
    select_min_rtt,
    wrr_schedule,
)
from reference import SelectorState, select_epsilon_greedy, select_round_robin, select_wrr


def views(rtts=(20.0, 50.0, 80.0), loads=(0.0, 0.0, 0.0), high_cost=()):
    caps = (50.0, 100.0, 80.0)
    return [
        PathView(path_id=i + 1, capacity_mbps=caps[i % 3], inst_rtt_ms=rtts[i],
                 prev_load_mbps=loads[i],
                 attributes=frozenset({"high-cost"}) if (i + 1) in high_cost else frozenset())
        for i in range(len(rtts))
    ]


random_views = st.lists(
    st.tuples(st.floats(1.0, 500.0), st.floats(0.0, 1000.0)),
    min_size=1, max_size=6,
).map(lambda pairs: [
    PathView(path_id=i + 1, capacity_mbps=100.0, inst_rtt_ms=r, prev_load_mbps=l)
    for i, (r, l) in enumerate(pairs)
])


class TestMinRtt:
    def test_uncongested_default(self):
        assert select_min_rtt(views((20.0, 50.0, 80.0))) == 1

    def test_tie_breaks_to_lowest_id(self):
        assert select_min_rtt(views((30.0, 30.0, 80.0))) == 1

    def test_argmin(self):
        assert select_min_rtt(views((60.0, 50.0, 80.0))) == 2

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            select_min_rtt([])

    @given(random_views)
    def test_returns_id_present_in_view(self, vs):
        assert select_min_rtt(vs) in {v.path_id for v in vs}


class TestMinLoad:
    def test_unique_argmin(self):
        assert select_min_load(views(loads=(40.0, 10.0, 20.0))) == 2

    def test_step_zero_tie(self):
        assert select_min_load(views(loads=(0.0, 0.0, 0.0))) == 1

    def test_close_argmin(self):
        assert select_min_load(views(loads=(5.0, 5.0, 4.9))) == 3

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            select_min_load([])


class TestAttributeAware:
    def test_filters_then_min_rtt(self):
        assert select_attribute_aware(
            views((20.0, 50.0, 80.0), high_cost=(3,)), {"high-cost"}) == 1

    def test_empty_filter_is_min_rtt(self):
        vs = views((60.0, 50.0, 80.0))
        assert select_attribute_aware(vs, set()) == select_min_rtt(vs)

    def test_filter_removes_best_path(self):
        assert select_attribute_aware(
            views((90.0, 50.0, 20.0), high_cost=(3,)), {"high-cost"}) == 2

    def test_all_filtered_is_an_error(self):
        vs = views((20.0,), high_cost=(1,))
        with pytest.raises(ValueError, match="no admissible path"):
            select_attribute_aware(vs, {"high-cost"})

    @given(random_views)
    def test_never_returns_forbidden(self, vs):
        tagged = [
            PathView(v.path_id, v.capacity_mbps, v.inst_rtt_ms, v.prev_load_mbps,
                     frozenset({"high-cost"}) if v.path_id % 2 else frozenset())
            for v in vs
        ]
        if all("high-cost" in v.attributes for v in tagged):
            with pytest.raises(ValueError):
                select_attribute_aware(tagged, {"high-cost"})
        else:
            chosen = select_attribute_aware(tagged, {"high-cost"})
            assert "high-cost" not in tagged[chosen - 1].attributes


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
        vs = views((60.0, 50.0, 80.0))
        assert all(select_epsilon_greedy(state, vs, 0.0) == select_min_rtt(vs)
                   for _ in range(500))

    def test_epsilon_one_uniform_within_3_sigma(self):
        state = SelectorState(rng=random.Random("freq"))
        vs = views()
        n = 10_000
        counts = Counter(select_epsilon_greedy(state, vs, 1.0) for _ in range(n))
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        for path_id in (1, 2, 3):
            assert abs(counts[path_id] / n - 1 / 3) <= 3 * sigma

    def test_exploit_share_at_epsilon_point_one(self):
        state = SelectorState(rng=random.Random("lln"))
        vs = views((20.0, 50.0, 80.0))
        n = 100_000
        hits = sum(select_epsilon_greedy(state, vs, 0.1) == 1 for _ in range(n))
        assert abs(hits / n - (0.9 + 0.1 / 3)) <= 0.01

    def test_same_seed_reproduces_sequence(self):
        vs = views()
        seq1 = [select_epsilon_greedy(SelectorState(rng=random.Random("s:7")), vs, 0.3)
                for _ in range(1)]
        a = SelectorState(rng=random.Random("s:7"))
        b = SelectorState(rng=random.Random("s:7"))
        seq_a = [select_epsilon_greedy(a, vs, 0.3) for _ in range(200)]
        seq_b = [select_epsilon_greedy(b, vs, 0.3) for _ in range(200)]
        assert seq_a == seq_b
        assert seq1[0] == seq_a[0]

    def test_missing_rng_rejected(self):
        with pytest.raises(ValueError):
            select_epsilon_greedy(SelectorState(), views(), 0.5)


class TestBlest:
    def test_uncongested_default_filters_to_best(self):
        assert select_blest(views((20.0, 50.0, 80.0)), 1.5) == 1

    def test_candidate_set_keeps_close_paths(self):
        assert select_blest(views((20.0, 28.0, 80.0)), 1.5) == 1

    def test_all_equal_ties_to_lowest_id(self):
        assert select_blest(views((40.0, 40.0, 40.0)), 1.5) == 1

    @given(random_views)
    def test_equals_min_rtt_on_any_view(self, vs):
        assert select_blest(vs, 1.5) == select_min_rtt(vs)


class TestStrategyKind:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            StrategyKind("bogus")

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            StrategyKind("epsilon_greedy", epsilon=eps)

    def test_filter_factor_range(self):
        with pytest.raises(ValueError):
            StrategyKind("blest", filter_factor=0.9)


class TestPathViewContract:
    FIELDS = ("path_id", "capacity_mbps", "inst_rtt_ms", "prev_load_mbps", "attributes")

    def test_field_order(self):
        assert PathView._fields == self.FIELDS

    def test_attributes_default_to_empty(self):
        view = PathView(1, 50.0, 20.0, 0.0)
        assert view.attributes == frozenset()
        assert type(view.attributes) is frozenset

    @pytest.mark.parametrize("field", FIELDS)
    def test_fields_cannot_be_assigned(self, field):
        view = PathView(1, 50.0, 20.0, 0.0)
        with pytest.raises(AttributeError):
            setattr(view, field, 2)

    def test_hashable_and_equal_by_value(self):
        a = PathView(2, 100.0, 50.0, 3.5, frozenset({"high-cost"}))
        b = PathView(path_id=2, capacity_mbps=100.0, inst_rtt_ms=50.0, prev_load_mbps=3.5,
                     attributes=frozenset({"high-cost"}))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, PathView(2, 100.0, 50.0, 3.6)}) == 2

    @pytest.mark.parametrize("select", [
        select_min_rtt,
        select_min_load,
        lambda vs: select_attribute_aware(vs, {"high-cost"}),
        lambda vs: select_blest(vs, 1.5),
        lambda vs: select_epsilon_greedy(SelectorState(rng=random.Random("v")), vs, 0.5),
    ], ids=["min_rtt", "min_load", "attribute_aware", "blest", "epsilon_greedy"])
    def test_selectors_accept_positional_and_keyword_views(self, select):
        rows = [(1, 50.0, 31.0, 40.0, frozenset({"high-cost"})),
                (2, 100.0, 30.0, 70.0, frozenset()),
                (3, 80.0, 90.0, 10.0, frozenset())]
        positional = [PathView(*row) for row in rows]
        keyword = [PathView(**dict(zip(self.FIELDS, row))) for row in rows]
        assert positional == keyword
        assert select(positional) == select(keyword) in (1, 2, 3)
