"""Distance of the reproduction grid from the reference table, cell by cell.

    python3 benchmarks/audit.py [ROOT]

ROOT is a checkout (default: the one holding this script); the audit
imports mpsim from ROOT/src and the reference from ROOT/tests. It runs
the 49 cells of `mpsim sweep --all-strategies` (every strategy at the
default agent counts, default topology, 300 steps, seed 0) and prints,
per (strategy, N), each of oscillation, loss, fairness and efficiency
with its residual against tests/test_acceptance.py's REFERENCE_TABLE,
relative to the reference value. A `*` marks a value within 5% by the
tests' own `within`. It then prints the count within 5% per metric and
of whole rows, and whether each of the paper's four claims
(tests/test_claims.py) holds on these rows.
"""

import argparse
import os
import sys

METRICS = ("oscillation", "loss", "fairness", "efficiency")
TOLERANCE = 0.05


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "tests")]
    import mpsim
    from test_acceptance import REFERENCE_TABLE, within
    from test_claims import CLAIMS, cell_lookup

    reference = {(row[0], row[1]): dict(zip(METRICS, row[2:6])) for row in REFERENCE_TABLE}
    rows = mpsim.sweep_agents(mpsim.SweepSpec(topology=mpsim.default_topology(),
                                              strategies=mpsim.all_strategies()))
    print(f"{'strategy':<21} {'N':>3}" + "".join(f" {name:>27}" for name in METRICS))
    close = dict.fromkeys(METRICS, 0)
    whole_rows = compared = 0
    for row in rows:
        target = reference.get((row.strategy, row.agents))
        if target is None:
            continue
        compared += 1
        cells = []
        hits = 0
        for name in METRICS:
            value, ref = getattr(row, name), target[name]
            hit = within(value, ref, TOLERANCE)
            hits += hit
            close[name] += hit
            residual = (value - ref) / abs(ref) if ref else float("inf")
            cells.append(f"{value:9.2f} vs {ref:7.2f} {residual:+7.1%}{'*' if hit else ' '}")
        whole_rows += hits == len(METRICS)
        print(f"{row.strategy:<21} {row.agents:>3} " + " ".join(cells))
    print()
    print(f"within {TOLERANCE:.0%}: " + ", ".join(f"{name} {close[name]}/{compared}"
                                                 for name in METRICS)
          + f"; whole rows {whole_rows}/{compared}")
    cell = cell_lookup(rows)
    for claim in CLAIMS:
        holds, detail = claim(cell)
        print(f"claim {claim.__doc__.splitlines()[0]} -> {'holds' if holds else 'FAILS'} "
              f"({detail})")


if __name__ == "__main__":
    main()
