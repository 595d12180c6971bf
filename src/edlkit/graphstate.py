"""Graph states, local complementation orbits, and determination bounds.

The graph state of a simple graph is the unique joint +1 eigenstate of the
stabilizers ``X_i prod_{j ~ i} Z_j``; equivalently CZ gates applied to
``|+>^n`` along the edges.  Determination length is invariant under local
unitaries, and local complementation at a vertex realizes exactly the local
Clifford orbit of the state, so scanning that orbit for the smallest
maximum degree tightens the generic upper bound 1 + max degree.  The lower
bound 3 holds for every graph state on three or more qubits.

Orbit work runs on adjacency bitmasks: a graph is a tuple of ``n`` integers
whose entry ``v-1`` has bit ``u-1`` set iff ``u ~ v``.  The tuple is the
canonical form the orbit search hashes; a ``SimpleGraph`` is built only for
the result.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import EdlkitError

LOWER_BOUND = 3


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..n, stored as frozen edge set."""

    n: int
    edges: tuple  # sorted tuple of (u, v) pairs with u < v

    def __post_init__(self):
        if self.n < 1:
            raise EdlkitError("DIM_MISMATCH", "need at least one vertex")
        norm = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise EdlkitError("BAD_VERTEX", "self-loop at vertex %d" % u)
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise EdlkitError("BAD_VERTEX", "edge (%d,%d) outside 1..%d" % (u, v, self.n))
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def from_edges(cls, n, pairs):
        return cls(n, tuple((int(u), int(v)) for u, v in pairs))

    @classmethod
    def path(cls, n):
        return cls.from_edges(n, [(j, j + 1) for j in range(1, n)])

    @classmethod
    def cycle(cls, n):
        if n < 3:
            raise EdlkitError("BAD_VERTEX", "a cycle needs n >= 3")
        return cls.from_edges(n, [(j, j + 1) for j in range(1, n)] + [(1, n)])

    def neighbors(self, v):
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def degree(self, v):
        return len(self.neighbors(v))

    def max_degree(self):
        return max((self.degree(v) for v in range(1, self.n + 1)), default=0)

    def is_connected(self):
        return _connected(_adjacency(self))


def _adjacency(graph):
    """Adjacency bitmasks: entry ``v-1`` has bit ``u-1`` set iff ``u ~ v``."""
    adj = [0] * graph.n
    for u, v in graph.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return tuple(adj)


def _from_adjacency(adj):
    n = len(adj)
    return SimpleGraph(n, tuple((a + 1, b + 1) for a in range(n)
                                for b in range(a + 1, n) if adj[a] >> b & 1))


def _connected(adj):
    """Whether vertex 1 reaches every vertex."""
    seen = todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen == (1 << len(adj)) - 1


def _max_degree(adj):
    return max(map(int.bit_count, adj))


def _lc_step(adj, v):
    """Local complement at 0-based ``v``: XOR-ing ``N(v)`` without ``a`` into
    the row of each neighbour ``a`` toggles every pair inside ``N(v)``."""
    nbs = rest = adj[v]
    out = list(adj)
    while rest:
        low = rest & -rest  # bit of the next neighbour a
        out[low.bit_length() - 1] ^= nbs ^ low
        rest ^= low
    return tuple(out)


def graph_state(graph):
    """State vector of the graph state: CZ along every edge applied to |+>^n.

    The amplitudes are ``2^(-n/2) (-1)^(number of edges with both endpoints
    excited)``.  The stabilizer conditions are verified before returning.
    """
    n = graph.n
    if n > qcore.MAX_QUBITS:
        raise EdlkitError("TOO_LARGE", "n=%d exceeds the dense cap" % n)
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for u, v in graph.edges:
        parity ^= (idx >> (n - u)) & (idx >> (n - v))  # particle j sits on index bit n-j
    amp = 2.0 ** (-n / 2.0) * (1 - 2 * (parity & 1)).astype(complex)
    psi = qcore.PureVector(n, amp)
    for v in range(1, n + 1):
        if np.max(np.abs(_apply_stabilizer(psi.amplitudes, graph, v) - psi.amplitudes)) > 1e-10:
            raise EdlkitError("SOLVER_FAIL", "stabilizer check failed at vertex %d" % v)
    return psi


def _apply_stabilizer(amp, graph, v):
    """Apply X_v prod_{j ~ v} Z_j to a state vector."""
    n = graph.n
    src = np.arange(amp.shape[0]) ^ (1 << (n - v))
    parity = np.zeros_like(src)
    for nb in graph.neighbors(v):
        parity ^= src >> (n - nb)
    return (1 - 2 * (parity & 1)) * amp[src]


def local_complement(graph, v):
    """Toggle every edge inside the neighborhood of ``v`` (an involution)."""
    if not 1 <= v <= graph.n:
        raise EdlkitError("BAD_VERTEX", "vertex %d outside 1..%d" % (v, graph.n))
    return _from_adjacency(_lc_step(_adjacency(graph), v - 1))


@dataclass(frozen=True)
class OrbitResult:
    min_max_degree: int
    exhausted: bool
    visited: int
    witness: SimpleGraph  # a graph in the orbit achieving the minimum


def lc_orbit_min_max_degree(graph, budget=100000):
    """Smallest maximum degree over the local-complementation orbit.

    Breadth-first search with the tuple of adjacency bitmasks as canonical
    form.  The result is exact (``exhausted=True``) when the orbit fits in the
    budget or the theoretical minimum 2 is reached (a connected graph on three
    or more vertices cannot have maximum degree below 2).
    """
    start = _adjacency(graph)
    if not _connected(start):
        raise EdlkitError("DISCONNECTED", "local-complementation orbit scan needs a connected graph")
    best = _max_degree(start)
    best_adj = start
    seen = {start}
    frontier = deque([start])
    floor = 2 if graph.n >= 3 else 1
    while frontier and len(seen) < budget and best > floor:
        cur = frontier.popleft()
        for v in range(graph.n):
            nxt = _lc_step(cur, v)
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
            deg = _max_degree(nxt)
            if deg < best:
                best = deg
                best_adj = nxt
            if best <= floor:
                break
    exhausted = not frontier or best <= floor
    return OrbitResult(best, exhausted, len(seen), _from_adjacency(best_adj))


@dataclass(frozen=True)
class GraphBounds:
    lo: int
    hi: int
    exact_hi: bool
    orbit: OrbitResult


def graph_bounds(graph, budget=100000):
    """Determination-length bounds (lo, hi) for a connected graph state.

    lo is always 3; hi is 1 plus the smallest maximum degree over the
    local-complementation orbit (local unitaries preserve the length).  A
    disconnected graph raises ``DISCONNECTED`` from the orbit scan.
    """
    if graph.n < 3:
        raise EdlkitError("BAD_VERTEX", "bounds need n >= 3")
    orbit = lc_orbit_min_max_degree(graph, budget=budget)
    return GraphBounds(LOWER_BOUND, 1 + orbit.min_max_degree, orbit.exhausted, orbit)


def uniformity_level(psi, tol=1e-9):
    """Largest k such that every k-qubit marginal is maximally mixed (0 if none).

    A k-uniform state cannot be determined, nor its entanglement detected,
    by marginals of k or fewer qubits.  Each marginal is ``M M^dagger``, with
    ``M`` the amplitude tensor with the kept qubits first, reshaped to
    ``(2^k, 2^(n-k))``; so the scan needs only the ``2^n`` amplitudes and
    runs up to the ``PureVector`` cap of ``qcore.MAX_QUBITS`` qubits.
    """
    n = psi.n
    tensor = psi.amplitudes.reshape([2] * n)  # axis j-1 is particle j
    level = 0
    for k in range(1, n):
        eye = np.eye(1 << k) / (1 << k)
        for combo in itertools.combinations(range(n), k):
            rest = [j for j in range(n) if j not in combo]
            m = tensor.transpose(combo + tuple(rest)).reshape(1 << k, -1)
            if np.max(np.abs(m @ m.conj().T - eye)) > tol:
                return level
        level = k
    return level
