"""Graph states, local complementation orbits, and determination bounds.

The graph state of a simple graph is the unique joint +1 eigenstate of the
stabilizers ``X_i prod_{j ~ i} Z_j``; equivalently CZ gates applied to
``|+>^n`` along the edges.  Determination length is invariant under local
unitaries, and local complementation at a vertex realizes exactly the local
Clifford orbit of the state, so scanning that orbit for the smallest
maximum degree tightens the generic upper bound 1 + max degree.  The lower
bound 3 holds for every graph state on three or more qubits.

Orbit work runs on one integer per graph: row ``v-1`` of the adjacency
bitmasks (bit ``u-1`` set iff ``u ~ v``) sits in bits ``[(v-1) n, v n)``.
That integer is the canonical form the orbit search queues and hashes, and
local complementation at ``v`` is one XOR with a mask that depends only on
``n`` and the neighbourhood of ``v``.  For ``n <= qcore.MAX_QUBITS`` those
masks are memoised in one table per vertex count, shared by every orbit scan
of the process and filled only as neighbourhoods are met, so it never holds
more than the ``2^n`` neighbourhoods that exist (2,046 masks over all such
``n``).  Larger graphs memoise their masks per scan.  A ``SimpleGraph`` is
built only for the result.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import EdlkitError
from .qcore import _is_integer

LOWER_BOUND = 3


def _check_vertex_count(n):
    """DIM_MISMATCH unless ``n`` is a positive integer."""
    if not _is_integer(n) or n < 1:
        raise EdlkitError("DIM_MISMATCH", "need a positive integer vertex count, got %r" % (n,))


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..n, stored as frozen edge set."""

    n: int
    edges: tuple  # sorted tuple of (u, v) pairs with u < v

    def __post_init__(self):
        _check_vertex_count(self.n)
        object.__setattr__(self, "n", int(self.n))
        norm = set()
        for u, v in self.edges:
            if not (_is_integer(u) and _is_integer(v)):
                raise EdlkitError("BAD_VERTEX", "edge (%r, %r) needs integer endpoints" % (u, v))
            u, v = int(u), int(v)
            if u == v:
                raise EdlkitError("BAD_VERTEX", "self-loop at vertex %d" % u)
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise EdlkitError("BAD_VERTEX", "edge (%d,%d) outside 1..%d" % (u, v, self.n))
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def from_edges(cls, n, pairs):
        return cls(n, tuple(pairs))

    @classmethod
    def path(cls, n):
        _check_vertex_count(n)
        return cls.from_edges(n, [(j, j + 1) for j in range(1, n)])

    @classmethod
    def cycle(cls, n):
        _check_vertex_count(n)
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


def _pack(adj):
    """One integer per graph: row ``v`` (0-based) in bits ``[v n, v n + n)``."""
    n = len(adj)
    return sum(row << v * n for v, row in enumerate(adj))


def _unpack(packed, n):
    full = (1 << n) - 1
    return tuple(packed >> v * n & full for v in range(n))


# Local-complementation masks per vertex count n <= qcore.MAX_QUBITS:
# neighbourhood -> _spread(nbs, n).  Each entry is a function of its keys alone,
# so sharing the memo across scans and threads changes no result; two threads
# that miss together store one value.  Above the cap a table of up to 2^n masks
# could outgrow what ``budget`` bounds, so those scans keep their own memo.
_SPREAD = {}


def _spread(nbs, n):
    """The XOR mask of local complementation at a vertex with neighbourhood
    ``nbs``: row ``a`` of each neighbour gets ``nbs`` without ``a``, which
    toggles every pair inside ``nbs``."""
    mask, rest = 0, nbs
    while rest:
        low = rest & -rest  # bit of the next neighbour a
        mask |= (nbs ^ low) << (low.bit_length() - 1) * n
        rest ^= low
    return mask


def graph_state(graph):
    """State vector of the graph state: CZ along every edge applied to |+>^n.

    The amplitudes are the exact closed form ``2^(-n/2) (-1)^(number of edges
    with both endpoints excited)``; the tests check every stabilizer
    ``X_v prod_{j ~ v} Z_j`` against it with dense Pauli products.
    """
    n = graph.n
    if n > qcore.MAX_QUBITS:
        raise EdlkitError("TOO_LARGE", "n=%d exceeds the dense cap" % n)
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for u, v in graph.edges:
        parity ^= (idx >> (n - u)) & (idx >> (n - v))  # particle j sits on index bit n-j
    return qcore.PureVector(n, 2.0 ** (-n / 2.0) * (1 - 2 * (parity & 1)).astype(complex))


def local_complement(graph, v):
    """Toggle every edge inside the neighborhood of ``v`` (an involution)."""
    if not _is_integer(v) or not 1 <= v <= graph.n:
        raise EdlkitError("BAD_VERTEX", "vertex %r outside 1..%d" % (v, graph.n))
    adj = _adjacency(graph)
    return _from_adjacency(_unpack(_pack(adj) ^ _spread(adj[v - 1], graph.n), graph.n))


@dataclass(frozen=True)
class OrbitResult:
    min_max_degree: int
    exhausted: bool
    visited: int
    witness: SimpleGraph  # a graph in the orbit achieving the minimum


def lc_orbit_min_max_degree(graph, budget=100000):
    """Smallest maximum degree over the local-complementation orbit.

    Breadth-first search over graphs packed into one integer each (row ``v``
    of the adjacency bitmasks in bits ``[v n, v n + n)``), which is both the
    queued state and the ``seen`` key.  Local complementation at ``v`` is
    one XOR with a mask that depends only on ``n`` and the neighbourhood of
    ``v``.  Up to ``qcore.MAX_QUBITS`` vertices the masks live in one memo
    per vertex count, shared across calls and grown only by the
    neighbourhoods met (at most ``2^n`` of them); larger graphs memoise them
    for the call.  ``budget`` caps the number of distinct graphs visited.
    The result is exact (``exhausted=True``) when the orbit fits in the
    budget or the theoretical minimum 2 is reached (a connected graph on
    three or more vertices cannot have maximum degree below 2).
    """
    if not _is_integer(budget) or budget < 1:
        raise EdlkitError("BAD_BUDGET", "orbit budget must be a positive integer, got %r" % (budget,))
    adj = _adjacency(graph)
    if not _connected(adj):
        raise EdlkitError("DISCONNECTED", "local-complementation orbit scan needs a connected graph")
    n = graph.n
    full = (1 << n) - 1
    shifts = range(0, n * n, n)
    start = _pack(adj)
    best = _max_degree(adj)
    best_packed = start
    spread = _SPREAD.setdefault(n, {}) if n <= qcore.MAX_QUBITS else {}
    seen = {start}
    frontier = deque([start])
    floor = 2 if n >= 3 else 1
    while frontier and len(seen) < budget and best > floor:
        cur = frontier.popleft()
        for shift in shifts:
            nbs = cur >> shift & full
            try:
                nxt = cur ^ spread[nbs]
            except KeyError:
                mask = spread[nbs] = _spread(nbs, n)
                nxt = cur ^ mask
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
            for row in shifts:  # stop at the first degree that is not below best
                if (nxt >> row & full).bit_count() >= best:
                    break
            else:
                best = max([(nxt >> row & full).bit_count() for row in shifts])
                best_packed = nxt
            if best <= floor:
                break
    exhausted = not frontier or best <= floor
    return OrbitResult(best, exhausted, len(seen), _from_adjacency(_unpack(best_packed, n)))


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
    ``M`` the amplitudes split by ``qcore._split`` into the kept qubits and the
    rest, shape ``(2^k, 2^(n-k))``; so the scan needs only the ``2^n`` amplitudes and
    runs up to the ``PureVector`` cap of ``qcore.MAX_QUBITS`` qubits.  BAD_TOL unless
    ``tol`` is finite and at least 0.
    """
    qcore._check_tol(tol)
    n = psi.n
    level = 0
    for k in range(1, n):
        eye = np.eye(1 << k) / (1 << k)
        for combo in itertools.combinations(range(n), k):  # particle j+1 is bit j
            m = qcore._split(psi.amplitudes, n, sum(1 << j for j in combo))
            if np.max(np.abs(m @ m.conj().T - eye)) > tol:
                return level
        level = k
    return level
