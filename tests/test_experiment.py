import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mpsim
from mpsim import (
    STRATEGY_NAMES,
    EngineParams,
    SimConfig,
    SummaryRow,
    SweepSpec,
    StrategyKind,
    all_strategies,
    cell_seed,
    default_topology,
    emit_epsilon,
    emit_summary,
    parse_summary_csv,
    run,
    score,
    sweep_agents,
    sweep_epsilon,
)
from mpsim.experiment import SUMMARY_HEADER

STEPS = 40  # grid behavior, not absolute scores, is under test here


def small_spec(**overrides):
    defaults = dict(
        topology=default_topology(),
        strategies=all_strategies(),
        agent_counts=(10, 25),
        steps=STEPS,
        seed=0,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepAgents:
    def test_row_count_is_grid_size(self):
        rows = sweep_agents(small_spec())
        assert len(rows) == 7 * 2

    def test_full_default_grid_shape(self):
        spec = SweepSpec(topology=default_topology(), strategies=all_strategies(),
                         steps=10)
        rows = sweep_agents(spec)
        assert len(rows) == 49

    def test_order_strategy_major_agents_ascending(self):
        rows = sweep_agents(small_spec(agent_counts=(25, 10)))
        assert [(r.strategy, r.agents) for r in rows][:4] == [
            ("min_rtt", 10), ("min_rtt", 25), ("min_load", 10), ("min_load", 25)]

    def test_single_cell_equals_direct_run(self):
        spec = small_spec(strategies=(StrategyKind("min_rtt"),), agent_counts=(10,))
        row = sweep_agents(spec)[0]
        config = SimConfig(topology=spec.topology, strategy=StrategyKind("min_rtt"),
                           num_agents=10, engine=EngineParams(steps=STEPS),
                           seed=cell_seed(0, "min_rtt", 10))
        expected = score(run(config))
        assert row == SummaryRow("min_rtt", 10, expected.oscillation, expected.loss,
                                 expected.fairness, expected.efficiency,
                                 expected.stability, expected.loss_avoidance)

    def test_sweep_deterministic(self):
        assert sweep_agents(small_spec()) == sweep_agents(small_spec())

    def test_cells_independent_of_grid_shape(self):
        full = sweep_agents(small_spec())
        solo = sweep_agents(small_spec(strategies=(StrategyKind("blest"),),
                                       agent_counts=(25,)))[0]
        match = [r for r in full if r.strategy == "blest" and r.agents == 25]
        assert match == [solo]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            small_spec(strategies=())
        with pytest.raises(ValueError):
            small_spec(agent_counts=())


def test_import_loads_no_process_pool():
    # mpsim runs its cells in the calling process, so importing it must
    # not pay for concurrent.futures and multiprocessing
    code = ("import sys, mpsim, mpsim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(mpsim.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


class TestSweepEpsilon:
    def test_cardinality(self):
        points = sweep_epsilon((0.0, 0.1, 0.2, 0.3, 0.4, 0.5), 20,
                               default_topology(), steps=STEPS)
        assert [p.epsilon for p in points] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def test_csv_shape(self):
        points = sweep_epsilon((0.0, 0.5), 20, default_topology(), steps=STEPS)
        text = emit_epsilon(points)
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,efficiency,loss"
        assert len(lines) == 3


class TestEmitSummary:
    ROW = SummaryRow("min_rtt", 10, 4.25, 2.44, 0.33, 44.79, 0.19, 0.29)

    def test_csv_header_and_line(self):
        text = emit_summary([self.ROW])
        lines = text.strip().split("\n")
        assert lines[0] == "strategy,agents,oscillation,loss,fairness,efficiency,stability,loss_avoidance"
        assert lines[1] == "min_rtt,10,4.25,2.44,0.33,44.79,0.19,0.29"

    def test_csv_rounds_to_two_decimals(self):
        row = SummaryRow("blest", 50, 1.23456, 0.0, 0.333333, 99.999, 0.4477, 1.0)
        line = emit_summary([row]).strip().split("\n")[1]
        assert line == "blest,50,1.23,0.00,0.33,100.00,0.45,1.00"

    def test_markdown_table(self):
        text = emit_summary([self.ROW], fmt="markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| strategy | agents |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert "| min_rtt | 10 | 4.25 |" in lines[2] + "|"

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="^no rows to emit$"):
            emit_summary([])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit_summary([self.ROW], fmt="xml")

    def test_deterministic_bytes(self):
        rows = sweep_agents(small_spec(agent_counts=(10,)))
        assert emit_summary(rows) == emit_summary(rows)

    def test_raw_round_trips_full_precision(self):
        rows = sweep_agents(small_spec(strategies=(StrategyKind("min_load"),),
                                       agent_counts=(10,)))
        text = emit_summary(rows, raw=True)
        assert parse_summary_csv(text) == rows

    @given(st.lists(st.builds(
        SummaryRow, st.sampled_from(STRATEGY_NAMES), st.integers(min_value=1),
        *[st.floats(allow_nan=False, allow_infinity=False)] * 6), min_size=1, max_size=8))
    def test_raw_round_trips_generated_rows(self, rows):
        assert parse_summary_csv(emit_summary(rows, raw=True)) == rows

    def test_rounded_identities_survive_rendering(self):
        rows = sweep_agents(small_spec())
        for line in emit_summary(rows).strip().split("\n")[1:]:
            parts = line.split(",")
            osc, lam = float(parts[2]), float(parts[3])
            stab, avoid = float(parts[6]), float(parts[7])
            assert abs(stab - 1.0 / (1.0 + osc)) <= 0.005 + 0.005 / (1.0 + osc)
            assert abs(avoid - 1.0 / (1.0 + lam)) <= 0.005 + 0.005 / (1.0 + lam)


class TestParseSummaryCsv:
    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_summary_csv("not,a,summary\n1,2,3\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_summary_csv("")

    def test_rejects_a_non_integer_agent_count_naming_row_and_column(self):
        text = emit_summary([TestEmitSummary.ROW]).replace("min_rtt,10,", "min_rtt,ten,")
        with pytest.raises(ValueError, match="^row 2, column 'agents': not an integer: 'ten'$"):
            parse_summary_csv(text)

    def test_rejects_a_header_without_rows(self):
        with pytest.raises(ValueError, match="^results file has no data rows$"):
            parse_summary_csv(",".join(SUMMARY_HEADER) + "\n")

    def test_skips_a_blank_line_between_rows(self):
        other = dataclasses.replace(TestEmitSummary.ROW, strategy="blest", agents=50)
        header, first, second = emit_summary([TestEmitSummary.ROW, other], raw=True).splitlines()
        rows = parse_summary_csv(f"{header}\n{first}\n\n{second}\n")
        assert rows == parse_summary_csv(f"{header}\n{first}\n{second}\n")
        assert rows == [TestEmitSummary.ROW, other]

    def test_rejects_truncated_row(self):
        text = emit_summary([TestEmitSummary.ROW]).rsplit(",", 1)[0] + "\n"
        with pytest.raises(ValueError):
            parse_summary_csv(text)

    @pytest.mark.parametrize("column", SUMMARY_HEADER[2:])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "oops"])
    def test_rejects_non_finite_number_naming_row_and_column(self, column, value):
        rows = [TestEmitSummary.ROW, TestEmitSummary.ROW]
        lines = emit_summary(rows).splitlines()
        fields = lines[2].split(",")
        fields[SUMMARY_HEADER.index(column)] = value
        lines[2] = ",".join(fields)
        with pytest.raises(ValueError, match=f"row 3, column '{column}'.*{value}"):
            parse_summary_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("agents", ["0", "-5"])
    def test_rejects_an_agent_count_below_1_naming_row_and_column(self, agents):
        lines = emit_summary([TestEmitSummary.ROW, TestEmitSummary.ROW]).splitlines()
        fields = lines[2].split(",")
        fields[SUMMARY_HEADER.index("agents")] = agents
        lines[2] = ",".join(fields)
        with pytest.raises(ValueError, match=f"row 3, column 'agents'.*'{agents}'"):
            parse_summary_csv("\n".join(lines) + "\n")

    def test_rejects_a_field_beyond_the_csv_limit_naming_its_row(self):
        # csv.reader refuses a field longer than csv.field_size_limit()
        # (131,072 characters by default) with csv.Error
        lines = emit_summary([TestEmitSummary.ROW, TestEmitSummary.ROW]).splitlines()
        lines[2] = lines[2].replace(",", "," + "9" * 200_000, 1)
        with pytest.raises(ValueError, match="row 3: field larger than field limit"):
            parse_summary_csv("\n".join(lines) + "\n")

    def test_rejects_unknown_strategy_naming_row_and_column(self):
        text = emit_summary([TestEmitSummary.ROW]).replace("min_rtt", "min_rttx")
        with pytest.raises(ValueError, match="row 2, column 'strategy'.*min_rttx"):
            parse_summary_csv(text)
