"""Axiomatic scoring of simulation telemetry.

All quantities are time averages over the run: efficiency is the mean
aggregate sent load, loss the mean aggregate overflow, oscillation the
mean cross-path dispersion of load within a step. Stability and loss
avoidance are the bounded inverses 1/(1+x) of oscillation and loss.
Fairness is Jain's index over the final congestion windows. score()
refuses a score that is not finite with a ValueError that names it.
Scoring costs O(computed steps + runs of windows) Python steps: each
computed record's step values are found once, and a replayed cycle's
(`Records.parts`) added per repeat without building its copies, at once
where all are equal (a settled herd's). Every long run of one window
object (run() repeats one per cohort or cursor class) adds itself and
its square in O(log count), after a C-level identity scan. Float sums
add in order, never by sum(), which compensates from CPython 3.12 on, so
scores match on every interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
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
        # the cycle's values once per repeat; where all are equal, at once
        # (a zero adds nothing)
        cycle_values, repeats = column[split - period:split], cycles
        if repeats and cycle_values.count(v) == period and 0.0 <= v < math.inf:
            running, repeats = _repeated_add(running, v, cycles * period) if v else running, 0
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


# a run of one object adds value by value unless it is longer than this:
# a shorter one costs less that way than _run_end's probes
_LONG_RUN = 16


def _run_end(values: Sequence[float], start: int) -> int | None:
    """The index past the run of the object values[start], which
    values[start + 1] repeats, or None if the run is _LONG_RUN values long
    or shorter. The run is extended by chunks of doubling, then halving
    length, each probed at its far end and confirmed by one `count`,
    which compares by identity first: O(length) C work and O(log length)
    Python steps. A sequence of one object repeated, such as a herd's
    windows from run(), takes one `count`."""
    v, n = values[start], len(values)
    if not start and values[-1] is v and values.count(v) == n:
        return n
    i, span = start + _LONG_RUN, _LONG_RUN  # values[start..i] are v
    if i >= n or values[start + 1:i + 1].count(v) < span:
        return None
    while i + span < n and values[i + span] is v and values[i + 1:i + span + 1].count(v) == span:
        i, span = i + span, 2 * span
    while span > 1:
        span //= 2
        if i + span < n and values[i + span] is v and values[i + 1:i + span + 1].count(v) == span:
            i += span
    return i + 1


def jain_fairness(final_cwnds: Sequence[float]) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2), from 1/n up to 1.0. Both sums
    add value by value, but the rest of every long run of one repeated
    positive object with a finite nonzero float square, wherever it lies,
    takes one _repeated_add each: the same floats, in O(log length) Python
    steps per run (see _run_end)."""
    if not final_cwnds:
        raise ValueError("need at least one value")
    values, n = final_cwnds, len(final_cwnds)
    items = iter(values)
    total = square_sum = i = recheck = 0
    last = square = None
    for v in items:
        if (v is last and i >= recheck and type(square) is float and v > 0.0
                and 0.0 < square < math.inf):
            # values[i - 1] starts a run: add its rest at once if it is long
            end = _run_end(values, i - 1)
            if end is not None:
                total = _repeated_add(total, v, end - i)
                square_sum = _repeated_add(square_sum, square, end - i)
                if end == n:
                    break
                next(islice(items, end - i - 1, end - i - 1), None)
                i = end
                continue
            recheck = i + _LONG_RUN
        if v < 0.0:
            raise ValueError("fairness requires nonnegative values")
        square = v * v
        try:
            total += v
            square_sum += square
        except OverflowError:
            # an int beyond the float range: a negative value anywhere
            # still takes precedence
            if any(x < 0 for x in values):
                raise ValueError("fairness requires nonnegative values") from None
            raise
        last = v
        i += 1
    # square_sum can underflow to zero for subnormal inputs even when
    # the plain sum does not; both cases are effectively all-zero
    if total == 0 or square_sum == 0:
        raise ValueError("undefined fairness: all values are zero")
    return (total * total) / (n * square_sum)


def score(telemetry: Telemetry) -> AxiomScores:
    """Bundle all axiom scores for one run, reading each computed step and
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
