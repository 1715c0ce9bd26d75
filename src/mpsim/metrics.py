"""Axiomatic scoring of simulation telemetry.

All quantities are time averages over the run: efficiency is the mean
aggregate sent load, loss the mean aggregate overflow, oscillation the
mean cross-path dispersion of load within a step. Stability and loss
avoidance are the bounded inverses 1/(1+x) of oscillation and loss.
Fairness is Jain's index over the final congestion windows. score()
refuses a score that is not finite with a ValueError that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .engine import Telemetry


@dataclass(frozen=True)
class AxiomScores:
    oscillation: float
    loss: float
    fairness: float
    efficiency: float
    goodput: float
    stability: float
    loss_avoidance: float


def _step_means(telemetry: Telemetry) -> tuple[float, float, float]:
    """Means over steps of the total sent load, the total overflow and
    the population std of load across paths, from one pass over the
    records. Each mean sums its per-step values in step order."""
    records = telemetry.records
    if not records:
        raise ValueError("telemetry has no records")
    if not records[0].loads:
        raise ValueError("telemetry has no paths")
    sent, overflow, spread = [], [], []
    for record in records:
        loads = record.loads
        paths = len(loads)
        total = sum(loads)
        mean = total / paths
        sent.append(total)
        overflow.append(sum(record.overflows))
        try:
            spread.append(math.sqrt(sum([(v - mean) ** 2 for v in loads]) / paths))
        except OverflowError:
            raise ValueError(f"oscillation is not finite: the load spread of step "
                             f"{record.step} overflows") from None
    steps = len(records)
    return sum(sent) / steps, sum(overflow) / steps, sum(spread) / steps


def efficiency(telemetry: Telemetry) -> float:
    """Mean over steps of the total sent load, in Mbps."""
    return _step_means(telemetry)[0]


def loss(telemetry: Telemetry) -> float:
    """Mean over steps of the total overflow, in Mbps."""
    return _step_means(telemetry)[1]


def oscillation(telemetry: Telemetry) -> float:
    """Mean over steps of the population std of load across paths."""
    return _step_means(telemetry)[2]


def stability(oscillation_mbps: float) -> float:
    """1/(1+oscillation): 1.0 for a perfectly steady load split."""
    if oscillation_mbps < 0:
        raise ValueError("oscillation must be >= 0")
    return 1.0 / (1.0 + oscillation_mbps)


def loss_avoidance(loss_mbps: float) -> float:
    """1/(1+loss): 1.0 means zero congestion loss."""
    if loss_mbps < 0:
        raise ValueError("loss must be >= 0")
    return 1.0 / (1.0 + loss_mbps)


def jain_fairness(final_cwnds: Sequence[float]) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2), from 1/n up to 1.0."""
    if not final_cwnds:
        raise ValueError("need at least one value")
    if any(v < 0 for v in final_cwnds):
        raise ValueError("fairness requires nonnegative values")
    total = sum(final_cwnds)
    square_sum = sum(v * v for v in final_cwnds)
    # square_sum can underflow to zero for subnormal inputs even when
    # the plain sum does not; both cases are effectively all-zero
    if total == 0 or square_sum == 0:
        raise ValueError("undefined fairness: all values are zero")
    return (total * total) / (len(final_cwnds) * square_sum)


def score(telemetry: Telemetry) -> AxiomScores:
    """Bundle all axiom scores for one run; refuse a non-finite one."""
    eff, lam, osc = _step_means(telemetry)
    fairness = jain_fairness(telemetry.final_cwnds)
    # goodput, stability and loss avoidance are finite when these are
    for name, value in (("oscillation", osc), ("loss", lam), ("fairness", fairness),
                        ("efficiency", eff)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value}")
    return AxiomScores(
        oscillation=osc,
        loss=lam,
        fairness=fairness,
        efficiency=eff,
        goodput=eff - lam,
        stability=stability(osc),
        loss_avoidance=loss_avoidance(lam),
    )
