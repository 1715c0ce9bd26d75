"""Acceptance gate: one test per numbered criterion.

Each test prints a `[C##] PASS|FAIL <label>` line (run pytest with -s to
see the report) and fails loudly if any of its checks miss. Simulation
criteria run on the default topology at 300 steps with seed 0 unless a
criterion says otherwise.

C01, C06 and C11 compare against REFERENCE_TABLE values. C07 instead
checks what the documented model (README "Model", the step docstring
and tests/reference.py's update_cwnd) implies at its cell, written in
the model's constants: its reference oscillation needs windows of 2.0
under loss on every step, which that model does not give. A model
change that moves the C07 cell must update its derivation with it.
"""

import functools
import math
import random

from mpsim import (
    AimdParams,
    EngineParams,
    SimConfig,
    StrategyKind,
    default_topology,
    emit_summary,
    jain_fairness,
    loss_avoidance,
    run,
    score,
    stability,
    sweep_epsilon,
    timeseries_csv,
)
from mpsim.experiment import SummaryRow
from reference import apportion_loss, oracle_agrees

STRATEGIES = ("min_rtt", "min_load", "attribute_aware", "round_robin",
              "weighted_round_robin", "epsilon_greedy", "blest")
AGENT_GRID = (10, 25, 50, 100, 150, 250, 500)

# Known-good axiomatic summary used as the regression anchor:
# (strategy, agents, oscillation, loss, fairness, efficiency,
#  stability, loss_avoidance)
# The round_robin rows fit flows whose window is fixed at 2.0 and that
# run no congestion control: efficiency lies within 0.4% of 2N, loss
# within 1.1 Mbps of the mean over paths of max(0, 2N - capacity), and
# loss is 0.00 at N=10, where loss-free AIMD growth of at least 0.125 per
# step could not last 300 steps. That is a fit to the numbers, not a
# known cause; no documented model gives such windows, and the rows rank
# round_robin@500 (1001.58) above epsilon_greedy@500 (570.12), against
# C11. C07 therefore does not compare against them.
REFERENCE_TABLE = (
    ("min_rtt", 10, 4.25, 2.44, 0.33, 44.79, 0.19, 0.29),
    ("min_rtt", 25, 5.58, 0.43, 0.34, 38.42, 0.15, 0.70),
    ("min_rtt", 50, 10.04, 24.81, 0.34, 75.11, 0.09, 0.04),
    ("min_rtt", 100, 5.51, 50.37, 0.34, 100.95, 0.15, 0.02),
    ("min_rtt", 150, 8.38, 100.78, 0.34, 151.38, 0.11, 0.01),
    ("min_rtt", 250, 12.90, 201.71, 0.34, 252.31, 0.07, 0.00),
    ("min_rtt", 500, 28.00, 454.24, 0.34, 504.84, 0.03, 0.00),
    ("min_load", 10, 5.25, 0.09, 0.33, 60.01, 0.16, 0.92),
    ("min_load", 25, 7.86, 6.59, 0.33, 74.89, 0.11, 0.13),
    ("min_load", 50, 10.64, 10.21, 0.34, 75.63, 0.09, 0.09),
    ("min_load", 100, 6.23, 20.52, 0.34, 101.02, 0.14, 0.05),
    ("min_load", 150, 8.91, 70.95, 0.34, 151.45, 0.10, 0.01),
    ("min_load", 250, 14.67, 151.94, 0.34, 252.37, 0.06, 0.01),
    ("min_load", 500, 26.84, 424.08, 0.34, 504.58, 0.04, 0.00),
    ("attribute_aware", 10, 4.30, 2.42, 0.33, 44.72, 0.19, 0.29),
    ("attribute_aware", 25, 5.43, 0.44, 0.34, 38.42, 0.16, 0.70),
    ("attribute_aware", 50, 10.40, 24.99, 0.34, 75.31, 0.09, 0.04),
    ("attribute_aware", 100, 5.09, 50.38, 0.34, 100.92, 0.16, 0.02),
    ("attribute_aware", 150, 8.74, 100.90, 0.34, 151.50, 0.10, 0.01),
    ("attribute_aware", 250, 14.04, 201.75, 0.34, 252.35, 0.07, 0.00),
    ("attribute_aware", 500, 28.33, 454.34, 0.34, 504.94, 0.03, 0.00),
    ("round_robin", 10, 9.44, 0.00, 1.00, 20.05, 0.10, 1.00),
    ("round_robin", 25, 23.63, 0.08, 1.00, 50.16, 0.04, 0.93),
    ("round_robin", 50, 47.21, 23.36, 1.00, 100.28, 0.02, 0.04),
    ("round_robin", 100, 94.27, 123.13, 1.00, 200.26, 0.01, 0.01),
    ("round_robin", 150, 141.44, 223.29, 1.00, 300.46, 0.01, 0.00),
    ("round_robin", 250, 235.70, 423.52, 1.00, 500.69, 0.00, 0.00),
    ("round_robin", 500, 471.43, 924.42, 1.00, 1001.58, 0.00, 0.00),
    ("weighted_round_robin", 10, 29.21, 0.92, 0.90, 59.93, 0.03, 0.52),
    ("weighted_round_robin", 25, 31.16, 2.91, 0.85, 115.24, 0.03, 0.26),
    ("weighted_round_robin", 50, 23.57, 6.21, 0.88, 168.98, 0.04, 0.14),
    ("weighted_round_robin", 100, 28.69, 24.52, 0.92, 206.47, 0.03, 0.04),
    ("weighted_round_robin", 150, 31.36, 40.90, 0.93, 235.25, 0.03, 0.02),
    ("weighted_round_robin", 250, 38.93, 93.34, 0.96, 303.45, 0.03, 0.01),
    ("weighted_round_robin", 500, 109.03, 313.57, 0.97, 536.20, 0.01, 0.00),
    ("epsilon_greedy", 10, 4.41, 1.05, 0.36, 41.46, 0.18, 0.49),
    ("epsilon_greedy", 25, 6.70, 4.16, 0.39, 48.63, 0.13, 0.19),
    ("epsilon_greedy", 50, 9.75, 16.68, 0.41, 73.15, 0.09, 0.06),
    ("epsilon_greedy", 100, 5.71, 49.73, 0.43, 113.90, 0.15, 0.02),
    ("epsilon_greedy", 150, 9.05, 100.10, 0.43, 171.27, 0.10, 0.01),
    ("epsilon_greedy", 250, 13.27, 200.56, 0.43, 284.38, 0.07, 0.00),
    ("epsilon_greedy", 500, 25.11, 451.71, 0.43, 570.12, 0.04, 0.00),
    ("blest", 10, 4.16, 2.43, 0.33, 44.76, 0.19, 0.29),
    ("blest", 25, 5.14, 0.49, 0.34, 38.48, 0.16, 0.67),
    ("blest", 50, 10.08, 24.83, 0.34, 75.13, 0.09, 0.04),
    ("blest", 100, 5.52, 50.30, 0.34, 100.90, 0.15, 0.02),
    ("blest", 150, 8.20, 100.77, 0.34, 151.37, 0.11, 0.01),
    ("blest", 250, 13.89, 201.68, 0.34, 252.28, 0.07, 0.00),
    ("blest", 500, 26.26, 453.93, 0.34, 504.53, 0.04, 0.00),
)


@functools.lru_cache(maxsize=None)
def sim(strategy, agents, steps=300, seed=0, epsilon=0.1):
    config = SimConfig(
        topology=default_topology(),
        strategy=StrategyKind(strategy, epsilon=epsilon),
        num_agents=agents,
        engine=EngineParams(steps=steps),
        seed=seed,
    )
    return run(config)


@functools.lru_cache(maxsize=None)
def scores(strategy, agents, steps=300, seed=0, epsilon=0.1):
    return score(sim(strategy, agents, steps, seed, epsilon))


class Criterion:
    def __init__(self, cid, label):
        self.cid = cid
        self.label = label
        self.failures = []

    def expect(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def done(self):
        status = "PASS" if not self.failures else "FAIL"
        suffix = ("" if not self.failures else " :: " + "; ".join(self.failures))
        print(f"[{self.cid}] {status} {self.label}{suffix}")
        assert not self.failures, f"[{self.cid}] {self.label}{suffix}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_c01_bounded_score_formulas_match_reference_rows():
    c = Criterion("C01", "stability/loss-avoidance formulas reproduce every reference row")
    assert round(stability(4.25), 2) == 0.19
    assert round(loss_avoidance(2.44), 2) == 0.29
    # the tabulated oscillation/loss inputs are themselves rounded to
    # 2 d.p., which can shift the derived score by one final digit
    slack = 0.0105
    for name, agents, osc, lam, _, _, stab, avoid in REFERENCE_TABLE:
        c.expect(abs(stability(osc) - stab) <= slack,
                 f"stability({osc}) != {stab} for {name}@{agents}")
        c.expect(abs(loss_avoidance(lam) - avoid) <= slack,
                 f"loss_avoidance({lam}) != {avoid} for {name}@{agents}")
    c.done()


def test_c02_jain_fairness_properties():
    c = Criterion("C02", "Jain fairness: extremes, scale and permutation invariance")
    for n in (1, 2, 10, 500):
        c.expect(abs(jain_fairness([2.5] * n) - 1.0) < 1e-12, f"equal vector n={n}")
        c.expect(abs(jain_fairness([1.0] + [0.0] * (n - 1)) - 1.0 / n) < 1e-12,
                 f"one-hot vector n={n}")
    rng = random.Random(20240901)
    for trial in range(1000):
        values = [rng.uniform(0.001, 100.0) for _ in range(rng.randint(1, 40))]
        base = jain_fairness(values)
        factor = rng.uniform(0.01, 50.0)
        c.expect(abs(jain_fairness([v * factor for v in values]) - base) < 1e-9,
                 f"scale invariance broke on trial {trial}")
        shuffled = values[:]
        rng.shuffle(shuffled)
        c.expect(abs(jain_fairness(shuffled) - base) < 1e-9,
                 f"permutation invariance broke on trial {trial}")
        c.expect(1.0 / len(values) - 1e-12 <= base <= 1.0 + 1e-12,
                 f"range violated on trial {trial}")
    c.done()


def test_c03_loss_apportionment_conserves_overflow():
    c = Criterion("C03", "per-path loss shares sum to the overflow (10,000 fuzzed vectors)")
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10_000):
        loads = [rng.uniform(0.0, 100.0) for _ in range(rng.randint(1, 30))]
        capacity = rng.uniform(0.0, 150.0)
        losses, overflow = apportion_loss(loads, capacity)
        worst = max(worst, abs(sum(losses) - overflow))
        if overflow != max(0.0, sum(loads) - capacity):
            c.expect(False, "overflow identity broke")
            break
    c.expect(worst <= 1e-9, f"worst conservation error {worst}")
    c.done()


def test_c04_goodput_identity_on_all_suite_runs():
    c = Criterion("C04", "efficiency - loss equals mean capped delivered load")
    caps = default_topology().capacities()
    for name in STRATEGIES:
        for agents in (10, 100, 500):
            telemetry = sim(name, agents)
            s = scores(name, agents)
            capped = sum(
                sum(min(l, cap) for l, cap in zip(r.loads, caps))
                for r in telemetry.records
            ) / len(telemetry.records)
            c.expect(abs((s.efficiency - s.loss) - capped) <= 1e-6,
                     f"{name}@{agents}: {(s.efficiency - s.loss) - capped}")
    c.done()


def test_c05_determinism_bytes():
    c = Criterion("C05", "same config+seed gives byte-identical telemetry and reports")
    for name, agents in (("min_rtt", 100), ("epsilon_greedy", 250)):
        config = SimConfig(topology=default_topology(),
                           strategy=StrategyKind(name),
                           num_agents=agents, engine=EngineParams(steps=300), seed=77)
        t1, t2 = run(config), run(config)
        c.expect(t1.records == t2.records, f"{name}: records differ")
        c.expect(t1.final_cwnds == t2.final_cwnds, f"{name}: cwnds differ")
        c.expect(timeseries_csv(t1) == timeseries_csv(t2), f"{name}: csv differs")
        s1, s2 = score(t1), score(t2)
        row = lambda s: SummaryRow(name, agents, s.oscillation, s.loss, s.fairness,
                                   s.efficiency, s.stability, s.loss_avoidance)
        c.expect(emit_summary([row(s1)]) == emit_summary([row(s2)]),
                 f"{name}: report differs")
    c.done()


def test_c06_min_rtt_table_reproduction():
    c = Criterion("C06", "min_rtt efficiency/loss at 100 and 500 agents within 5%")
    s100 = scores("min_rtt", 100)
    c.expect(within(s100.efficiency, 100.95, 0.05), f"eff@100 = {s100.efficiency:.2f}")
    c.expect(within(s100.loss, 50.37, 0.05), f"loss@100 = {s100.loss:.2f}")
    s500 = scores("min_rtt", 500)
    c.expect(within(s500.efficiency, 504.84, 0.05), f"eff@500 = {s500.efficiency:.2f}")
    c.expect(within(s500.loss, 454.24, 0.05), f"loss@500 = {s500.loss:.2f}")
    c.done()


def test_c07_round_robin_oscillation_and_fairness():
    s = scores("round_robin", 500)
    c = Criterion("C07", f"round_robin@500 pinned at the window floor: oscillation "
                         f"{s.oscillation:.2f} = sqrt(2)/3 x N x cwnd_floor, exact fairness")
    telemetry = sim("round_robin", 500)
    config = telemetry.config
    aimd = config.aimd
    mean_load = sum(sum(r.loads) for r in telemetry.records) / len(telemetry.records)
    # Windows start at the floor and rotate in lockstep, so each step puts
    # the whole population on one path. Even at the floor that load exceeds
    # the largest capacity, so every sender loses on every step and keeps
    # max(cwnd_floor, beta * cwnd_floor) = cwnd_floor: the mean load is
    # N x cwnd_floor, whatever alpha and the RTTs are.
    floor_load = config.num_agents * aimd.cwnd_floor
    c.expect(aimd.initial_cwnd == aimd.cwnd_floor
             and floor_load > max(config.topology.capacities()),
             "premise: windows do not start at cwnd_floor, or N x cwnd_floor fits on a path")
    for r in telemetry.records:
        active = [i for i, load in enumerate(r.loads) if load > 0.0]
        if len(active) != 1 or r.overflows[active[0]] <= 0.0:
            c.expect(False, f"step {r.step}: load is not on one overflowing path")
            break
    c.expect(all(w == aimd.cwnd_floor for w in telemetry.final_cwnds),
             f"final windows up to {max(telemetry.final_cwnds)}, not cwnd_floor")
    c.expect(abs(mean_load - floor_load) <= 1e-9 * floor_load,
             f"mean load {mean_load:.2f}, want N x cwnd_floor = {floor_load:.2f}")
    # synchronized rotation concentrates each step's load on one path,
    # so oscillation is sqrt(2)/3 of the mean load
    c.expect(abs(s.oscillation - mean_load * math.sqrt(2.0) / 3.0) <= 1e-6,
             f"oscillation {s.oscillation:.2f} deviates from closed form")
    c.expect(s.fairness == 1.0, f"fairness = {s.fairness}")
    c.expect(oracle_agrees(telemetry), "naive reference disagrees with the engine")
    c.done()


def test_c08_herd_effect_loss_explosion():
    c = Criterion("C08", "min_rtt loss grows by >= 150x from 10 to 500 agents")
    lo = scores("min_rtt", 10).loss
    hi = scores("min_rtt", 500).loss
    c.expect(lo > 0, "loss at 10 agents is zero")
    if lo > 0:
        c.expect(hi / lo >= 150.0, f"ratio = {hi / lo:.1f}")
    c.done()


def test_c09_attribute_aware_policy_and_scores():
    c = Criterion("C09", "attribute_aware avoids the high-cost path and tracks min_rtt")
    for agents in AGENT_GRID:
        telemetry = sim("attribute_aware", agents)
        c.expect(all(r.loads[2] == 0.0 for r in telemetry.records),
                 f"path 3 carried load at N={agents}")
        sa, sm = scores("attribute_aware", agents), scores("min_rtt", agents)
        for field in ("oscillation", "loss", "fairness", "efficiency",
                      "stability", "loss_avoidance"):
            a, m = getattr(sa, field), getattr(sm, field)
            c.expect(abs(a - m) <= 0.05 * abs(m) + 1e-9,
                     f"{field}@{agents}: {a:.4f} vs min_rtt {m:.4f}")
    c.done()


def test_c10_blest_converges_to_min_rtt():
    c = Criterion("C10", "blest makes min_rtt's choices and matches its rows within 2%")
    for agents in AGENT_GRID:
        tb, tm = sim("blest", agents), sim("min_rtt", agents)
        c.expect(
            all(rb.loads == rm.loads for rb, rm in zip(tb.records, tm.records)),
            f"per-step loads differ at N={agents}")
        sb, sm = scores("blest", agents), scores("min_rtt", agents)
        for field in ("oscillation", "loss", "fairness", "efficiency",
                      "stability", "loss_avoidance"):
            b, m = getattr(sb, field), getattr(sm, field)
            c.expect(abs(b - m) <= 0.02 * abs(m) + 1e-9,
                     f"{field}@{agents}: {b:.4f} vs {m:.4f}")
    c.done()


def test_c11_epsilon_greedy_highest_efficiency():
    c = Criterion("C11", "epsilon_greedy(0.1)@500 beats all strategies, near 570.12")
    eff = {name: scores(name, 500).efficiency for name in STRATEGIES}
    eps_eff = eff["epsilon_greedy"]
    rivals = {k: v for k, v in eff.items() if k != "epsilon_greedy"}
    runner_up = max(rivals, key=rivals.get)
    c.expect(eps_eff > rivals[runner_up],
             f"{eps_eff:.2f} not above {runner_up} ({rivals[runner_up]:.2f})")
    c.expect(within(eps_eff, 570.12, 0.10),
             f"efficiency = {eps_eff:.2f}, target 570.12 +/- 10%")
    c.done()


def test_c12_epsilon_sensitivity():
    c = Criterion("C12", "more exploration trades efficiency for much lower loss")
    points = sweep_epsilon((0.0, 0.1, 0.2, 0.3, 0.4, 0.5), 500, default_topology())
    c.expect(len(points) == 6, f"{len(points)} records")
    by_eps = {p.epsilon: p for p in points}
    c.expect(by_eps[0.5].loss < by_eps[0.0].loss,
             f"loss(0.5) = {by_eps[0.5].loss:.2f} !< loss(0) = {by_eps[0.0].loss:.2f}")
    baseline = scores("min_rtt", 500)
    c.expect(within(by_eps[0.0].efficiency, baseline.efficiency, 0.05),
             "eps=0 efficiency diverges from min_rtt")
    c.expect(abs(by_eps[0.0].loss - baseline.loss) <= 0.05 * baseline.loss,
             "eps=0 loss diverges from min_rtt")
    c.done()


def test_c13_wrr_beats_round_robin_on_loss():
    c = Criterion("C13", "WRR loses less than round_robin everywhere; sane goodput at 500")
    for agents in AGENT_GRID:
        w = scores("weighted_round_robin", agents).loss
        r = scores("round_robin", agents).loss
        c.expect(w < r, f"N={agents}: wrr {w:.2f} !< rr {r:.2f}")
    s = scores("weighted_round_robin", 500)
    g = s.efficiency - s.loss
    c.expect(180.0 <= g <= 230.0 + 1e-9, f"goodput@500 = {g:.2f}")
    c.done()


def test_c14_stability_degrades_with_contention():
    c = Criterion("C14", "stability at 500 agents below stability at 10, per strategy")
    for name in STRATEGIES:
        lo = scores(name, 10).stability
        hi = scores(name, 500).stability
        c.expect(hi < lo, f"{name}: {hi:.4f} !< {lo:.4f}")
    c.done()


def test_c15_reference_engine_equivalence():
    c = Criterion("C15", "naive reference reproduces engine telemetry bit for bit")
    for name in STRATEGIES:
        for agents in (1, 3, 10):
            c.expect(oracle_agrees(sim(name, agents, steps=50, seed=42)),
                     f"{name} N={agents} diverges from reference")
        # windows twice the default scale that start above the floor, so a
        # non-unit scale and the initial window are checked too
        scaled = SimConfig(topology=default_topology(), strategy=StrategyKind(name),
                           num_agents=10,
                           aimd=AimdParams(initial_cwnd=6.0, alpha=2.0, cwnd_floor=2.0),
                           engine=EngineParams(steps=50), seed=42)
        c.expect(oracle_agrees(run(scaled)),
                 f"{name} N=10 with initial_cwnd 6, alpha 2, cwnd_floor 2 diverges from reference")
    c.done()
