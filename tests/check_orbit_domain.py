"""Check the packed local-complementation orbit scan on every small connected graph.

For every labelled connected graph with n <= 5 vertices (1 + 1 + 4 + 38 +
728 graphs), ``graphstate.lc_orbit_min_max_degree`` must return the same
``OrbitResult`` as the edge-set search ``oracle.lc_orbit_edge_sets`` at
budgets 1, 2, 3 and 100000, and ``graphstate.local_complement`` must agree
with ``oracle.local_complement_edges`` at every vertex.  Not collected by
pytest (a few seconds); run it as

    PYTHONPATH=src python tests/check_orbit_domain.py [max_n]

It prints the number of graphs checked per n and exits 1 listing any
disagreement, or if a graph count differs from the known number of
labelled connected graphs.
"""

import itertools
import sys

from edlkit import oracle
from edlkit.graphstate import SimpleGraph, lc_orbit_min_max_degree, local_complement

BUDGETS = (1, 2, 3, 100000)
# Labelled connected graphs on n vertices (OEIS A001187).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def connected_graphs(n):
    """Every labelled connected simple graph on vertices 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        g = SimpleGraph(n, tuple(p for j, p in enumerate(pairs) if mask >> j & 1))
        if g.is_connected():
            yield g


def orbit_mismatches(max_n):
    """``(graphs checked per n, disagreements)`` for n = 1..max_n."""
    counts, bad = {}, []
    for n in range(1, max_n + 1):
        counts[n] = 0
        for g in connected_graphs(n):
            counts[n] += 1
            for budget in BUDGETS:
                if lc_orbit_min_max_degree(g, budget=budget) != oracle.lc_orbit_edge_sets(g, budget=budget):
                    bad.append("orbit of %s at budget %d" % (g.edges, budget))
            for v in range(1, n + 1):
                if local_complement(g, v) != oracle.local_complement_edges(g, v):
                    bad.append("local complement of %s at vertex %d" % (g.edges, v))
        if n in CONNECTED_COUNTS and counts[n] != CONNECTED_COUNTS[n]:
            bad.append("%d connected graphs on %d vertices, expected %d"
                       % (counts[n], n, CONNECTED_COUNTS[n]))
    return counts, bad


def main(argv):
    max_n = int(argv[0]) if argv else 5
    counts, bad = orbit_mismatches(max_n)
    print("checked %d connected graphs (%s), budgets %s: %d disagree"
          % (sum(counts.values()), ", ".join("n=%d: %d" % kv for kv in counts.items()),
             list(BUDGETS), len(bad)))
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
