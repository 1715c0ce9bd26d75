"""Path selection policies.

Every selector is a pure function of the previous step's per-path RTTs
or loads, the engine's StepRecord tuples (path id i at index i - 1).
The cyclic policies and epsilon-greedy have no selector here: the
engine derives their cursors from the step index and draws from one
stream per run itself, since its loops decide for many agents at once.
Ties are always broken toward the lowest path id so that runs are
order-stable and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Collection, Iterable, Sequence

STRATEGY_NAMES = (
    "min_rtt",
    "min_load",
    "attribute_aware",
    "round_robin",
    "weighted_round_robin",
    "epsilon_greedy",
    "blest",
)

DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class StrategyKind:
    """A strategy name plus its tunables."""

    name: str
    epsilon: float = DEFAULT_EPSILON
    # not an option: only perfbench/checks.py's oracle call reads it (ROADMAP item 2)
    filter_factor: ClassVar[float] = 1.5

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.name!r}; valid names: {', '.join(STRATEGY_NAMES)}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


def select_min_rtt(rtts: Sequence[float]) -> int:
    """Greedy: the path with the lowest observed instantaneous RTT."""
    if not rtts:
        raise ValueError("cannot select from no paths")
    return rtts.index(min(rtts)) + 1


def select_min_load(loads: Sequence[float]) -> int:
    """Cooperative: the path that carried the least load last step."""
    if not loads:
        raise ValueError("cannot select from no paths")
    return loads.index(min(loads)) + 1


def select_attribute_aware(rtts: Sequence[float], attributes: Sequence[Collection[str]],
                           forbidden_tags: Iterable[str]) -> int:
    """Min-RTT among the paths whose tags (`attributes`, one set per
    path) include no forbidden tag."""
    forbidden = frozenset(forbidden_tags)
    admissible = [(rtt, path_id) for path_id, (rtt, tags) in enumerate(zip(rtts, attributes), 1)
                  if forbidden.isdisjoint(tags)]
    if not admissible:
        raise ValueError("no admissible path after attribute filtering")
    return min(admissible)[1]


def wrr_schedule(capacities_mbps: Sequence[float]) -> tuple[int, ...]:
    """Build the smooth weighted-round-robin slot sequence.

    Capacities are rounded to integers and reduced by their GCD; each
    path then owns weight/gcd slots per period. Slots are interleaved by
    the smooth-WRR rule: every slot each path gains its weight in
    credit, and the path with the most credit (lowest id on ties) is
    scheduled and pays the total weight back.
    """
    if not capacities_mbps:
        raise ValueError("no capacities given")
    weights = [int(round(c)) for c in capacities_mbps]
    if all(w <= 0 for w in weights):
        raise ValueError("all capacities round to zero")
    divisor = math.gcd(*(w for w in weights if w > 0))
    reduced = [w // divisor if w > 0 else 0 for w in weights]
    period = sum(reduced)
    credits = [0] * len(reduced)
    schedule = []
    for _ in range(period):
        for i, weight in enumerate(reduced):
            credits[i] += weight
        chosen = max(range(len(reduced)), key=lambda i: (credits[i], -i))
        credits[chosen] -= period
        schedule.append(chosen + 1)
    return tuple(schedule)
