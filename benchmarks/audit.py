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

Last come the reference's own figures. Its noise floor: per metric, how
many of the 42 ordered pairs of twin rows (min_rtt, attribute_aware and
blest at one N, which should be identical: the path all three choose is
not high-cost) lie within 5% of each other. A 5% match means no more
than the twins' agreement allows. Then the four claims applied to the
reference rows themselves.
"""

import argparse
import itertools
import os
import sys

METRICS = ("oscillation", "loss", "fairness", "efficiency")
TOLERANCE = 0.05
# strategies whose reference rows should be identical (see the docstring)
TWINS = ("min_rtt", "attribute_aware", "blest")


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
    print_claims("claim", CLAIMS, cell)

    agents = sorted({n for name, n in reference if name in TWINS})
    pairs = [(a, b, n) for a, b in itertools.permutations(TWINS, 2) for n in agents]
    agree = {name: sum(within(reference[(a, n)][name], reference[(b, n)][name], TOLERANCE)
                       for a, b, n in pairs) for name in METRICS}
    print()
    print(f"reference noise floor, ordered twin pairs of {', '.join(TWINS)} within "
          f"{TOLERANCE:.0%}: " + ", ".join(f"{name} {agree[name]}/{len(pairs)}"
                                            for name in METRICS))
    print_claims("reference claim", CLAIMS,
                 cell_lookup([mpsim.SummaryRow(*row) for row in REFERENCE_TABLE]))


def print_claims(label, claims, cell):
    for claim in claims:
        holds, detail = claim(cell)
        print(f"{label} {claim.__doc__.splitlines()[0]} -> {'holds' if holds else 'FAILS'} "
              f"({detail})")


if __name__ == "__main__":
    main()
