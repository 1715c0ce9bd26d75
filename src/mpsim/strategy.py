"""Path selection policies.

Every selector is a pure function of the agent's view of the network.
The cyclic policies and epsilon-greedy have no selector here: the
engine derives their cursors from the step index and draws from each
agent's rng itself, since its loops decide for many agents at once.
Ties are always broken toward the lowest path id so that runs are
order-stable and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

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
DEFAULT_BLEST_FILTER = 1.5


class PathView(NamedTuple):
    """What one agent can observe about one path when deciding.

    inst_rtt_ms and prev_load_mbps describe the previous completed step;
    at step 0 they are the base RTT and zero.

    A NamedTuple rather than a frozen dataclass: it is just as immutable
    and hashable, and the engine builds one per path on every step that
    consults a selector, where a positional NamedTuple costs about a
    third of a frozen dataclass's keyword construction.
    """

    path_id: int
    capacity_mbps: float
    inst_rtt_ms: float
    prev_load_mbps: float
    attributes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StrategyKind:
    """A strategy name plus its tunables."""

    name: str
    epsilon: float = DEFAULT_EPSILON
    filter_factor: float = DEFAULT_BLEST_FILTER

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.name!r}; valid names: {', '.join(STRATEGY_NAMES)}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 1.0 <= self.filter_factor < math.inf:
            raise ValueError("filter_factor must be finite and >= 1")


# rank keys (field, path_id): ties go to the lowest path id
_by_rtt = attrgetter("inst_rtt_ms", "path_id")
_by_load = attrgetter("prev_load_mbps", "path_id")


def select_min_rtt(views: Sequence[PathView]) -> int:
    """Greedy: the path with the lowest observed instantaneous RTT."""
    if not views:
        raise ValueError("cannot select from an empty path view")
    return min(views, key=_by_rtt).path_id


def select_min_load(views: Sequence[PathView]) -> int:
    """Cooperative: the path that carried the least load last step."""
    if not views:
        raise ValueError("cannot select from an empty path view")
    return min(views, key=_by_load).path_id


def select_attribute_aware(views: Sequence[PathView], forbidden_tags: Iterable[str]) -> int:
    """Drop paths carrying any forbidden tag, then pick by min-RTT."""
    forbidden = frozenset(forbidden_tags)
    admissible = [v for v in views if not (v.attributes & forbidden)]
    if not admissible:
        raise ValueError("no admissible path after attribute filtering")
    return select_min_rtt(admissible)


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


def select_blest(views: Sequence[PathView], filter_factor: float = DEFAULT_BLEST_FILTER) -> int:
    """Keep paths within filter_factor of the best RTT, then pick the fastest.

    Queueing delay is already folded into inst_rtt_ms, so the earliest
    completion estimate reduces to the instantaneous RTT itself.
    """
    if not views:
        raise ValueError("cannot select from an empty path view")
    best = min(v.inst_rtt_ms for v in views)
    candidates = [v for v in views if v.inst_rtt_ms <= filter_factor * best]
    return select_min_rtt(candidates)
