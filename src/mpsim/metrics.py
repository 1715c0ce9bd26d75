"""Axiomatic scoring of simulation telemetry.

All quantities are time averages over the run: efficiency is the mean
aggregate sent load, loss the mean aggregate overflow, oscillation the
mean cross-path dispersion of load within a step. Stability and loss
avoidance are the bounded inverses 1/(1+x) of oscillation and loss.
Fairness is Jain's index over the final congestion windows. score()
refuses a score that is not finite with a ValueError that names it.
Scoring costs O(distinct steps + runs of equal windows): a record with
an earlier record's `loads` and `overflows` tuples (a replayed cycle's)
reuses that step's values, and a run of equal windows adds itself and
its square in O(log count). Float sums add in order, never by sum(), which
compensates from CPython 3.12 on, so scores match on every interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .engine import Telemetry, _repeated_add


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
    """Means over steps of the total sent load, the total overflow and the
    population std of load across paths, each summed in step order."""
    records = telemetry.records
    if not records:
        raise ValueError("telemetry has no records")
    if not records[0].loads:
        raise ValueError("telemetry has no paths")
    seen = {}  # id(loads) -> step values, overflows; records keep each id's tuple
    sent = overflow = spread = 0
    for record in records:
        loads, overflows = record.loads, record.overflows
        step = seen.get(id(loads))
        if step is None or step[3] is not overflows:
            total = lost = deviation = 0
            for v in loads:
                total += v
            for v in overflows:
                lost += v
            mean = total / len(loads)
            try:
                for v in loads:
                    deviation += (v - mean) ** 2
            except OverflowError:
                raise ValueError(f"oscillation is not finite: the load spread of step "
                                 f"{record.step} overflows") from None
            step = seen[id(loads)] = total, lost, math.sqrt(deviation / len(loads)), overflows
        sent, overflow, spread = sent + step[0], overflow + step[1], spread + step[2]
    steps = len(records)
    return sent / steps, overflow / steps, spread / steps


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
    """Jain's index (sum x)^2 / (n * sum x^2), from 1/n up to 1.0. Both sums
    add value by value, but a leading run of equal positive values with a
    finite nonzero float square takes one _repeated_add each: the same floats."""
    if not final_cwnds:
        raise ValueError("need at least one value")
    total = square_sum = start = 0
    for v, run in groupby(final_cwnds):
        count, square = len(list(run)), v * v
        if count == 1 or type(square) is not float or not (v > 0 and 0.0 < square < math.inf):
            break
        total = _repeated_add(total + v, v, count - 1)
        square_sum = _repeated_add(square_sum + square, square, count - 1)
        start += count
    rest = final_cwnds[start:]
    if any(v < 0 for v in rest):
        raise ValueError("fairness requires nonnegative values")
    for v in rest:
        total += v
        square_sum += v * v
    # square_sum can underflow to zero for subnormal inputs even when
    # the plain sum does not; both cases are effectively all-zero
    if total == 0 or square_sum == 0:
        raise ValueError("undefined fairness: all values are zero")
    return (total * total) / (len(final_cwnds) * square_sum)


def score(telemetry: Telemetry) -> AxiomScores:
    """Bundle all axiom scores for one run, reading each distinct step and
    run of equal windows once (see the module docstring); refuse a non-finite one."""
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
