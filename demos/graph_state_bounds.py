"""Determination bounds for graph states via local complementation.

A graph state is pinned by its (1 + max degree)-body marginals, and the
bound is invariant under local Clifford operations, so we scan the local
complementation orbit for the representative with the smallest maximum
degree.  k-uniformity gives matching lower bounds.
"""

from edlkit import (SimpleGraph, graph_bounds, graph_state, lc_orbit_min_max_degree,
                    local_complement, uniformity_level)

# Path and cycle graphs: degree 2 somewhere in the orbit, bounds close at 3.
for n in (4, 5, 6, 7):
    b = graph_bounds(SimpleGraph.cycle(n))
    print("cycle %d: bounds (%d, %d), orbit size %d" % (n, b.lo, b.hi, b.orbit.visited))

# The diamond (a 4-cycle plus one chord) looks like degree 3, but one local
# complementation turns it into the plain 4-cycle.
diamond = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
print("diamond max degree:", diamond.max_degree())
print("after complementing at vertex 1:", local_complement(diamond, 1).edges)
b = graph_bounds(diamond)
print("diamond bounds:", (b.lo, b.hi), "witness edges:", b.orbit.witness.edges)

# The star is the GHZ state; its orbit never drops below degree n-1.
star = SimpleGraph.from_edges(5, [(1, j) for j in range(2, 6)])
b = graph_bounds(star)
print("star bounds:", (b.lo, b.hi))

# The two cubic graphs on six vertices behave very differently: the prism
# state is 3-uniform (every 3-body marginal maximally mixed), which lifts
# the lower bound to meet the degree bound.
prism = SimpleGraph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                                   (1, 4), (2, 5), (3, 6)])
k33 = SimpleGraph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
for name, g in (("prism", prism), ("K33", k33)):
    level = uniformity_level(graph_state(g))
    b = graph_bounds(g)
    pinned = "-> determination length exactly %d" % b.hi if level + 1 == b.hi else ""
    print("%s: uniformity %d, bounds (%d, %d) %s" % (name, level, b.lo, b.hi, pinned))

# A 10-vertex scan: the Petersen graph's orbit, each graph stored as one
# 100-bit integer.  The whole orbit is visited, so no graph in it drops to
# maximum degree 2, and the bound 1 + 3 = 4 is the best the orbit gives.
petersen = SimpleGraph.from_edges(10, [(j, j % 5 + 1) for j in range(1, 6)]
                                  + [(j, j + 5) for j in range(1, 6)]
                                  + [(j + 5, (j + 1) % 5 + 6) for j in range(1, 6)])
orbit = lc_orbit_min_max_degree(petersen)
print("petersen: visited %d, exhausted %s, witness max degree %d"
      % (orbit.visited, orbit.exhausted, orbit.witness.max_degree()))
