"""Check the packed local-complementation orbit scan on every small connected graph.

For every labelled connected graph with n <= 5 vertices (1 + 1 + 4 + 38 +
728 graphs), ``graphstate.lc_orbit_min_max_degree`` must return the same
``OrbitResult`` as the edge-set search ``oracle.lc_orbit_edge_sets`` at
budgets 1, 2, 3 and 100000, ``graphstate.local_complement`` must agree
with ``oracle.local_complement_edges`` at every vertex, and
``graphstate.graph_state`` must be a +1 eigenvector of every dense stabilizer
``X_v prod_{j ~ v} Z_j``.  After that pass, every mask the scans left in the
shared per-vertex-count memo (``graphstate._SPREAD``) must toggle exactly the
pairs inside its neighbourhood.  Not collected by pytest (a few seconds);
run it as

    PYTHONPATH=src python tests/check_orbit_domain.py [max_n]

It prints the number of graphs and memoised masks checked per n and exits 1
listing any disagreement, or if a graph count differs from the known number
of labelled connected graphs.
"""

import itertools
import sys

import numpy as np

from edlkit import graphstate, oracle, qcore
from edlkit.graphstate import SimpleGraph, graph_state, lc_orbit_min_max_degree, local_complement

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


def stabilizer_matrix(graph, v):
    """Dense X_v prod_{j~v} Z_j from the edge-list neighbours, independent of
    the closed-form amplitudes of ``graph_state``."""
    n = graph.n
    ops = []
    for j in range(1, n + 1):
        if j == v:
            ops.append(np.array([[0, 1], [1, 0]], dtype=complex))
        elif j in graph.neighbors(v):
            ops.append(np.array([[1, 0], [0, -1]], dtype=complex))
        else:
            ops.append(np.eye(2, dtype=complex))
    return qcore.kron(*ops)


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
            psi = graph_state(g).amplitudes
            for v in range(1, n + 1):
                if local_complement(g, v) != oracle.local_complement_edges(g, v):
                    bad.append("local complement of %s at vertex %d" % (g.edges, v))
                if np.max(np.abs(stabilizer_matrix(g, v) @ psi - psi)) > 1e-12:
                    bad.append("graph state of %s at stabilizer %d" % (g.edges, v))
        if n in CONNECTED_COUNTS and counts[n] != CONNECTED_COUNTS[n]:
            bad.append("%d connected graphs on %d vertices, expected %d"
                       % (counts[n], n, CONNECTED_COUNTS[n]))
    return counts, bad


def pair_toggle_mask(nbs, n):
    """Independent local-complementation mask: bit ``a n + b`` for every ordered
    pair ``a != b`` of neighbours in ``nbs``, the packed edge (a, b) it toggles."""
    members = [a for a in range(n) if nbs >> a & 1]
    return sum(1 << (a * n + b) for a in members for b in members if a != b)


def memo_mismatches(max_n):
    """``(masks checked per n, disagreements)`` over the shared mask memo for n = 1..max_n."""
    counts, bad = {}, []
    for n in range(1, max_n + 1):
        memo = graphstate._SPREAD.get(n, {})
        counts[n] = len(memo)
        bad.extend("memoised mask of neighbourhood %s at n=%d" % (bin(nbs), n)
                   for nbs, mask in memo.items() if mask != pair_toggle_mask(nbs, n))
    return counts, bad


def main(argv):
    max_n = int(argv[0]) if argv else 5
    counts, bad = orbit_mismatches(max_n)
    masks, bad_masks = memo_mismatches(max_n)
    bad += bad_masks
    print("checked %d connected graphs (%s) with their graph states, budgets %s, "
          "and %d memoised masks (%s): %d disagree"
          % (sum(counts.values()), ", ".join("n=%d: %d" % kv for kv in counts.items()),
             list(BUDGETS), sum(masks.values()), ", ".join("n=%d: %d" % kv for kv in masks.items()),
             len(bad)))
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
