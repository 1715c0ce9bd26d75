"""Experiment grids and report rendering.

sweep_agents runs a (strategy x agent-count) grid and summarizes each
cell into one row; sweep_epsilon runs the exploration-factor
sensitivity line at a fixed agent count. Cells derive independent seeds
from (sweep seed, strategy label, agents), so results do not depend on
grid shape or execution order. Cells run one after another in the
calling process, in grid order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .engine import DEFAULT_STEPS, EngineParams, SimConfig, _index, run
from .metrics import score
from .strategy import STRATEGY_NAMES, StrategyKind
from .topology import Topology

DEFAULT_AGENT_COUNTS = (10, 25, 50, 100, 150, 250, 500)


@dataclass(frozen=True)
class SweepSpec:
    topology: Topology
    strategies: tuple[StrategyKind, ...]
    agent_counts: tuple[int, ...] = DEFAULT_AGENT_COUNTS
    steps: int = DEFAULT_STEPS
    seed: int = 0

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("sweep needs at least one strategy")
        if not self.agent_counts:
            raise ValueError("sweep needs at least one agent count")


@dataclass(frozen=True)
class SummaryRow:
    strategy: str
    agents: int
    oscillation: float
    loss: float
    fairness: float
    efficiency: float
    stability: float
    loss_avoidance: float


@dataclass(frozen=True)
class EpsilonPoint:
    epsilon: float
    efficiency: float
    loss: float


# each table's columns are its row type's fields; score columns share AxiomScores' names
SUMMARY_HEADER = tuple(field.name for field in fields(SummaryRow))
EPSILON_HEADER = tuple(field.name for field in fields(EpsilonPoint))
_summary_cells = attrgetter(*SUMMARY_HEADER)
_summary_scores = attrgetter(*SUMMARY_HEADER[2:])
_epsilon_scores = attrgetter(*EPSILON_HEADER[1:])


def all_strategies() -> tuple[StrategyKind, ...]:
    """The full strategy set in canonical report order."""
    return tuple(StrategyKind(name) for name in STRATEGY_NAMES)


def cell_seed(seed: int, strategy_label: str, agents: int) -> int:
    """Stable per-cell seed so cells are independent and reorderable. The
    seed must be an integer, as SimConfig's: 1.0 and True would label apart."""
    digest = hashlib.sha256(f"{_index(seed, 'seed')}:{strategy_label}:{agents}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_cell(topology: Topology, kind: StrategyKind, label: str, agents: int, steps: int,
              seed: int) -> SummaryRow:
    config = SimConfig(
        topology=topology,
        strategy=kind,
        num_agents=agents,
        engine=EngineParams(steps=steps),
        seed=cell_seed(seed, label, agents),
    )
    return SummaryRow(kind.name, agents, *_summary_scores(score(run(config))))


def sweep_agents(spec: SweepSpec) -> list[SummaryRow]:
    """One row per (strategy, agent count), strategy-major, counts ascending."""
    return [_run_cell(spec.topology, kind, kind.name, agents, spec.steps, spec.seed)
            for kind in spec.strategies
            for agents in sorted(spec.agent_counts)]


def sweep_epsilon(epsilons, agents: int, topology: Topology,
                  steps: int = DEFAULT_STEPS, seed: int = 0) -> list[EpsilonPoint]:
    """Efficiency/loss of epsilon-greedy across an exploration grid."""
    kinds = [StrategyKind("epsilon_greedy", epsilon=eps) for eps in epsilons]
    rows = [_run_cell(topology, kind, f"epsilon_greedy[{kind.epsilon}]", agents, steps, seed)
            for kind in kinds]
    return [EpsilonPoint(kind.epsilon, *_epsilon_scores(row)) for kind, row in zip(kinds, rows)]


def _format_value(value, raw: bool) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(value) if raw else f"{value:.2f}"


def emit_summary(rows: list[SummaryRow], fmt: str = "csv", raw: bool = False) -> str:
    """Render sweep rows as CSV (2 d.p., or full precision with raw) or markdown."""
    if not rows:
        raise ValueError("no rows to emit")
    cells = [_summary_cells(row) for row in rows]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for values in cells:
            writer.writerow([values[0]] + [_format_value(v, raw) for v in values[1:]])
        return buffer.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(SUMMARY_HEADER) + " |",
                 "|" + "|".join([" --- "] * len(SUMMARY_HEADER)) + "|"]
        for values in cells:
            rendered = [values[0]] + [_format_value(v, raw=False) for v in values[1:]]
            lines.append("| " + " | ".join(rendered) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'markdown'")


def emit_epsilon(points: list[EpsilonPoint], raw: bool = False) -> str:
    """Render an epsilon sensitivity sweep as CSV."""
    if not points:
        raise ValueError("no rows to emit")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EPSILON_HEADER)
    for point in points:
        writer.writerow([repr(point.epsilon) if raw else f"{point.epsilon:g}",
                         *(_format_value(v, raw) for v in _epsilon_scores(point))])
    return buffer.getvalue()


def parse_summary_csv(text: str) -> list[SummaryRow]:
    """Read back a summary CSV (raw or rounded) for re-rendering.

    A row with an unknown strategy, a number that does not parse or is
    not finite, or an agent count below 1 is refused with its row (the
    header is row 1) and column, a row that is not readable CSV with its
    row.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        return _summary_rows(reader)
    except csv.Error as exc:
        raise ValueError(f"row {reader.line_num}: {exc}") from None


def _summary_rows(reader) -> list[SummaryRow]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty results file") from None
    if tuple(header) != SUMMARY_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        where = f"row {reader.line_num}"
        if len(record) != len(SUMMARY_HEADER):
            raise ValueError(f"{where}: malformed row {record!r}")
        if record[0] not in STRATEGY_NAMES:
            raise ValueError(f"{where}, column 'strategy': unknown strategy {record[0]!r}; "
                             f"valid names: {', '.join(STRATEGY_NAMES)}")
        try:
            agents = int(record[1])
        except ValueError:
            raise ValueError(f"{where}, column 'agents': not an integer: {record[1]!r}") from None
        if agents < 1:
            raise ValueError(f"{where}, column 'agents': not a positive integer: {record[1]!r}")
        values = []
        for column, raw in zip(SUMMARY_HEADER[2:], record[2:]):
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{where}, column {column!r}: not a finite number: {raw!r}")
            values.append(value)
        rows.append(SummaryRow(record[0], agents, *values))
    if not rows:
        raise ValueError("results file has no data rows")
    return rows
