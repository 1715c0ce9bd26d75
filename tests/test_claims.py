"""The abstract's four claims (PAPER.md) as predicates over the rows of
the reproduction grid, `mpsim sweep --all-strategies`, on the default
topology. Each claim names its metric and the endpoints it reads: N = 10
(low contention) and N = 500 (high contention).

`benchmarks/audit.py` prints the same predicates' results next to the
per-cell residuals against REFERENCE_TABLE.
"""

import functools

import pytest

from mpsim import SweepSpec, all_strategies, default_topology, sweep_agents

LOW, HIGH = 10, 500
# "increasing by over 18,000%": the loss at N = 500 exceeds 181 times the loss at N = 10
LOSS_RISE = 181.0
FAIR = 0.99


def _goodput(row):
    return row.efficiency - row.loss


def greedy_loss_explodes(cell):
    """1. Greedy min_rtt's loss rises by over 18,000% from N = 10 to 500."""
    low, high = cell("min_rtt", LOW).loss, cell("min_rtt", HIGH).loss
    return high > LOSS_RISE * low, f"min_rtt loss {low:.4g} -> {high:.4g}"


def cooperative_is_fair_and_stable_but_underuses(cell):
    """2. Cooperative round robin is fair and stable but underuses capacity.

    Fair: Jain fairness >= 0.99 at N = 10 and 500. Stable: stability no
    lower than min_rtt's at N = 500. Underuses: its goodput (efficiency -
    loss) stays below weighted round robin's at N = 10 and 500, which
    splits by capacity.
    """
    fair = all(cell("round_robin", n).fairness >= FAIR for n in (LOW, HIGH))
    stable = cell("round_robin", HIGH).stability >= cell("min_rtt", HIGH).stability
    under = all(_goodput(cell("round_robin", n)) < _goodput(cell("weighted_round_robin", n))
                for n in (LOW, HIGH))
    detail = ", ".join(
        f"N={n}: fairness {cell('round_robin', n).fairness:.4f}, goodput "
        f"{_goodput(cell('round_robin', n)):.2f} vs WRR "
        f"{_goodput(cell('weighted_round_robin', n)):.2f}" for n in (LOW, HIGH))
    detail += (f"; stability@{HIGH} {cell('round_robin', HIGH).stability:.5f} vs min_rtt "
               f"{cell('min_rtt', HIGH).stability:.5f}")
    return fair and stable and under, detail


def epsilon_greedy_most_efficient(cell):
    """3. Epsilon-greedy is the most efficient strategy at N = 500."""
    eps = cell("epsilon_greedy", HIGH).efficiency
    rival = max((kind.name for kind in all_strategies() if kind.name != "epsilon_greedy"),
                key=lambda name: cell(name, HIGH).efficiency)
    best = cell(rival, HIGH).efficiency
    return eps > best, f"epsilon_greedy {eps:.2f} vs {rival} {best:.2f}"


def epsilon_greedy_damps_the_herd(cell):
    """4. Epsilon-greedy damps the greedy herd's instability.

    Its oscillation grows by a smaller factor than min_rtt's from N = 10
    to 500.
    """
    eps = cell("epsilon_greedy", HIGH).oscillation / cell("epsilon_greedy", LOW).oscillation
    greedy = cell("min_rtt", HIGH).oscillation / cell("min_rtt", LOW).oscillation
    return eps < greedy, f"oscillation x{eps:.3f} vs min_rtt x{greedy:.3f}"


CLAIMS = (greedy_loss_explodes, cooperative_is_fair_and_stable_but_underuses,
          epsilon_greedy_most_efficient, epsilon_greedy_damps_the_herd)


def cell_lookup(rows):
    """The claims' view of sweep rows: cell(strategy, agents) -> row."""
    by_cell = {(row.strategy, row.agents): row for row in rows}
    return lambda strategy, agents: by_cell[(strategy, agents)]


@functools.lru_cache(maxsize=None)
def grid_rows():
    return tuple(sweep_agents(SweepSpec(topology=default_topology(),
                                        strategies=all_strategies())))


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.__name__ for claim in CLAIMS])
def test_default_topology_upholds_the_claim(claim):
    holds, detail = claim(cell_lookup(grid_rows()))
    assert holds, f"{claim.__doc__.splitlines()[0]} {detail}"
