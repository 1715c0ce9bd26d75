"""Command-line entry point: single runs, sweeps, and report rendering.

Defaults reproduce the shipped experiment setup (DEFAULT_STEPS steps,
DEFAULT_EPSILON, built-in three-path topology, the standard agent grid),
so a bare `mpsim sweep` regenerates the full summary table. The seed
defaults to a fixed value; no code path reads the clock or OS entropy.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict

from .engine import DEFAULT_STEPS, EngineParams, SimConfig, run, timeseries_csv
from .experiment import (
    DEFAULT_AGENT_COUNTS,
    SweepSpec,
    emit_epsilon,
    emit_summary,
    parse_summary_csv,
    sweep_agents,
    sweep_epsilon,
)
from .metrics import score
from .strategy import DEFAULT_EPSILON, STRATEGY_NAMES, StrategyKind
from .topology import TopologyError, default_topology, parse_topology


def _load_topology(path: str | None):
    if path is None:
        return default_topology()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_topology(handle.read())
    except OSError as exc:
        raise TopologyError(f"cannot read topology file: {exc}") from None


def _refuse_unwritable(*outs: str | None) -> None:
    """Refuse, before any simulation, an output path that open() would
    refuse: an empty one, a directory, or one whose parent directory is
    missing or not writable; and a file that two outputs name, where the
    second would overwrite the first. Nothing is opened, so no file is
    created or truncated."""
    named = set()
    for out in outs:
        if out is None or out == "-":
            continue
        parent = os.path.dirname(out) or "."
        if os.path.isdir(out):
            code = errno.EISDIR
        elif not out or not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(parent, os.W_OK) or (os.path.exists(out)
                                                and not os.access(out, os.W_OK)):
            code = errno.EACCES
        elif os.path.realpath(out) in named:
            raise ValueError(f"cannot write two outputs to one file: {out}")
        else:
            named.add(os.path.realpath(out))
            continue
        raise ValueError(f"cannot write output file: {OSError(code, os.strerror(code), out)}")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from None


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def cmd_run(args) -> int:
    if args.epsilon is not None and args.strategy != "epsilon_greedy":
        raise ValueError("--epsilon applies only with --strategy epsilon_greedy")
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    topology = _load_topology(args.topology)
    kind = StrategyKind(args.strategy, epsilon=epsilon)
    config = SimConfig(
        topology=topology,
        strategy=kind,
        num_agents=args.agents,
        engine=EngineParams(steps=args.steps),
        seed=args.seed,
    )
    telemetry = run(config)
    scores = score(telemetry)
    doc = {
        "strategy": kind.name,
        "agents": args.agents,
        "steps": args.steps,
        "seed": args.seed,
        "topology": topology.name,
        "scores": asdict(scores),
    }
    if kind.name == "epsilon_greedy":
        doc["epsilon"] = epsilon
    _write_output(json.dumps(doc, indent=2) + "\n", args.out)
    if args.timeseries:
        _write_output(timeseries_csv(telemetry), args.timeseries)
    return 0


def _refuse_unread_flags(args) -> None:
    """Refuse a flag that the chosen sweep mode would leave unread, and
    --epsilon when no swept strategy is epsilon_greedy; the mode-specific
    options default to None, so a given one shows."""
    if args.epsilon_grid is not None:
        unread = ("strategies", "agents_list", "all_strategies", "epsilon", "format")
        reason = "does not apply with --epsilon-grid"
    else:
        unread, reason = ("agents",), "applies only with --epsilon-grid; use --agents-list"
        if args.strategies is not None and args.all_strategies:
            raise ValueError("--all-strategies cannot be combined with --strategies")
        if (args.epsilon is not None and args.strategies is not None
                and "epsilon_greedy" not in args.strategies):
            raise ValueError("--epsilon applies only when epsilon_greedy is swept")
    for dest in unread:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} {reason}")


def cmd_sweep(args) -> int:
    _refuse_unread_flags(args)
    if args.epsilon_grid is not None:
        if not args.epsilon_grid:
            print("error: empty epsilon grid", file=sys.stderr)
            return 2
        agents = 500 if args.agents is None else args.agents
        points = sweep_epsilon(args.epsilon_grid, agents, _load_topology(args.topology),
                               steps=args.steps, seed=args.seed)
        _write_output(emit_epsilon(points, raw=args.raw), args.out)
        return 0

    names = args.strategies if args.strategies is not None else STRATEGY_NAMES
    counts = args.agents_list if args.agents_list is not None else DEFAULT_AGENT_COUNTS
    if not names or not counts:
        print("error: empty sweep grid", file=sys.stderr)
        return 2
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    strategies = tuple(StrategyKind(name, epsilon=epsilon) for name in names)
    spec = SweepSpec(topology=_load_topology(args.topology), strategies=strategies,
                     agent_counts=tuple(counts), steps=args.steps, seed=args.seed)
    rows = sweep_agents(spec)
    _write_output(emit_summary(rows, fmt=args.format or "csv", raw=args.raw), args.out)
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            rows = parse_summary_csv(handle.read())
    except OSError as exc:
        print(f"error: cannot read results file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(emit_summary(rows, fmt=args.format, raw=args.raw), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsim",
        description="Deterministic multipath path-selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one configuration and score it")
    run_p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    run_p.add_argument("--agents", type=int, default=100)
    run_p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--epsilon", type=float,
                       help=f"exploration probability for epsilon_greedy (default {DEFAULT_EPSILON})")
    run_p.add_argument("--topology", help="topology JSON file (default: built-in)")
    run_p.add_argument("--out", help="output file for the score summary (default: stdout)")
    run_p.add_argument("--timeseries", help="also write per-step per-path CSV here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run an experiment grid")
    sweep_p.add_argument("--all-strategies", action="store_true", default=None,
                         help="sweep every strategy (the default)")
    sweep_p.add_argument("--strategies", type=lambda s: tuple(s.split(",")),
                         help="comma-separated strategy names")
    sweep_p.add_argument("--agents-list", type=_int_list,
                         help="comma-separated agent counts "
                              f"(default {','.join(map(str, DEFAULT_AGENT_COUNTS))})")
    sweep_p.add_argument("--epsilon-grid", type=_float_list,
                         help="comma-separated epsilons: run the sensitivity sweep instead")
    sweep_p.add_argument("--agents", type=int, help="agent count for --epsilon-grid (default 500)")
    sweep_p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--epsilon", type=float, help=f"for epsilon_greedy (default {DEFAULT_EPSILON})")
    sweep_p.add_argument("--topology")
    sweep_p.add_argument("--format", choices=("csv", "markdown"), help="default csv")
    sweep_p.add_argument("--raw", action="store_true",
                         help="full-precision CSV instead of 2 decimal places")
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=cmd_sweep)

    report_p = sub.add_parser("report", help="re-render stored sweep results")
    report_p.add_argument("--in", dest="infile", required=True)
    report_p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    report_p.add_argument("--raw", action="store_true", help="full precision; needs --format csv")
    report_p.add_argument("--out")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "raw", False) and args.format == "markdown":
            raise ValueError("--raw applies only to CSV output, not to markdown")
        _refuse_unwritable(args.out, getattr(args, "timeseries", None))
        return args.func(args)
    except (TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
