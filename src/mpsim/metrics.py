"""Axiomatic scoring of simulation telemetry.

All quantities are time averages over the run: efficiency is the mean
aggregate sent load, loss the mean aggregate overflow, oscillation the
mean cross-path dispersion of load within a step. Stability and loss
avoidance are the bounded inverses 1/(1+x) of oscillation and loss.
Fairness is Jain's index over the final congestion windows. score()
refuses a score that is not finite with a ValueError that names it.
Scoring costs O(computed steps + windows) Python steps: each
computed record's step values are found once, and a replayed cycle's
(`Records.parts`) added per repeat without building its copies, at once
where all are equal and their partial sums exact (a settled herd's at
the floor). A herd's final windows, all equal, add at once where their
partial sums are exact; any others add one by one. Float sums
add in order, never by sum(), which compensates from CPython 3.12 on, so
scores match on every interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    before, cycle_records, cycles, after = telemetry.records.parts()
    if not before:
        raise ValueError("telemetry has no records")
    if not before[0].loads:
        raise ValueError("telemetry has no paths")
    values = []  # each computed record's step values, in step order
    for record in before + after:
        loads = record.loads
        total = lost = deviation = 0
        for v in loads:
            total += v
        for v in record.overflows:
            lost += v
        mean = total / len(loads)
        try:
            for v in loads:
                deviation += (v - mean) ** 2
        except OverflowError:
            raise ValueError(f"oscillation is not finite: the load spread of step "
                             f"{record.step} overflows") from None
        values.append((total, lost, math.sqrt(deviation / len(loads))))
    split, period = len(before), len(cycle_records)
    means = []
    for column in zip(*values):
        running = 0
        for v in column[:split]:
            running += v
        # the cycle's values once per repeat; where all are equal, as one run
        cycle_values, repeats = column[split - period:split], cycles
        if repeats and cycle_values.count(v) == period and 0.0 <= v < math.inf:
            running, repeats = _repeated_add(running, v, cycles * period), 0
        for v in cycle_values * repeats + column[split:]:
            running += v
        means.append(running / (len(values) + cycles * period))
    return tuple(means)


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
    """Jain's index (sum x)^2 / (n * sum x^2), from 1/n up to 1.0, both sums
    added value by value. A settled herd's windows, all equal to one
    positive float with a finite nonzero square, take one _repeated_add
    per sum: the same floats, at once where every partial sum is exact."""
    if not final_cwnds:
        raise ValueError("need at least one value")
    n, first = len(final_cwnds), final_cwnds[0]
    if (type(first) is float and first > 0.0 and 0.0 < first * first < math.inf
            and final_cwnds.count(first) == n):
        total = _repeated_add(0, first, n)
        return total * total / (n * _repeated_add(0, first * first, n))
    total = square_sum = 0
    for v in final_cwnds:
        if v < 0.0:
            raise ValueError("fairness requires nonnegative values")
        try:
            total += v
            square_sum += v * v
        except OverflowError:
            # an int beyond the float range: a negative value anywhere
            # still takes precedence
            if any(x < 0 for x in final_cwnds):
                raise ValueError("fairness requires nonnegative values") from None
            raise
    # square_sum can underflow to zero for subnormal inputs even when
    # the plain sum does not; both cases are effectively all-zero
    if total == 0 or square_sum == 0:
        raise ValueError("undefined fairness: all values are zero")
    return (total * total) / (n * square_sum)


def score(telemetry: Telemetry) -> AxiomScores:
    """Bundle all axiom scores for one run, reading each computed step and
    window once (see the module docstring); refuse a non-finite one."""
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
