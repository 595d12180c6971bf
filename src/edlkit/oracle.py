"""Brute-force reference implementations used to cross-check the fast paths.

The brute-force routines are plain loop nests over computational basis
indices and deliberately share no code with the implementations they check
(``qcore.partial_trace``, the Hankel criteria, the hypergraph counting
formula, the Pascal-rule marginals of ``symmetric``).  Sizes are small,
clarity wins over speed.  :func:`diagonal_marginal_binomial` builds each
diagonal marginal weight from the full weights with one binomial Fraction per
term, as a reference for the moment walk of
``symmetric.diagonal_marginal``.  :func:`exact_det` is
the cofactor-expansion determinant that freezes exact Hankel minors and,
through Sylvester's criterion, checks the elimination in
``symmetric._exact_psd``.  :func:`lc_orbit_edge_sets` runs the
local-complementation orbit search on ``SimpleGraph`` edge sets, as a
reference for the adjacency-bitmask search of ``graphstate``.

The generic SDP references (:func:`build_fdw_problem`, :func:`_linmap_matrix`)
state a program as svec-packed constraint rows for ``witness.solve_sdp``,
which tests compare against the matrix-native fast paths.  They take Pauli
strings and partial transposes from the Kronecker-product and index routines
of ``qcore``.  What they share with the fast paths is the witness module's
description of the program (``_collection_of``, ``_allowed_strings``,
``_bipartition_masks``) and, through ``solve_sdp``, its splitting loop.

Index convention matches the rest of the package: particle 1 is the most
significant bit of a computational index.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from . import qcore
from .errors import EdlkitError
from .graphstate import OrbitResult, SimpleGraph
from .witness import (SdpBlock, SdpProblem, _allowed_strings, _bipartition_masks,
                      _collection_of, smat, svec)


def _popcount(x):
    return bin(x).count("1")


def _as_array(rho):
    mat = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise EdlkitError("DIM_MISMATCH", "expected a square matrix")
    return mat


def dense_from_diagonal(lam, n):
    """Dense density matrix of ``sum_i lam[i] |D_n^i><D_n^i|``."""
    lam = [float(x) for x in lam]
    if len(lam) != n + 1:
        raise EdlkitError("DIM_MISMATCH", "need n+1 weights, got %d for n=%d" % (len(lam), n))
    d = 1 << n
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            i = _popcount(r)
            if i == _popcount(c):
                out[r, c] = lam[i] / math.comb(n, i)
    return out


def diagonal_marginal_binomial(lam, n, k):
    """Dicke weights of the k-qubit marginal of ``sum_i lam[i] |D_n^i><D_n^i|``.

    Each term is the hypergeometric factor ``C(k, s) C(n-k, i-s) / C(n, i)``,
    taken as a Fraction when every weight is exact.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in lam)
    out = []
    for s in range(k + 1):
        acc = Fraction(0) if exact else 0.0
        for i in range(s, n - k + s + 1):
            num = math.comb(k, s) * math.comb(n - k, i - s)
            if exact:
                acc += lam[i] * Fraction(num, math.comb(n, i))
            else:
                acc += lam[i] * num / math.comb(n, i)
        out.append(acc)
    return tuple(out)


def dense_from_symmetric(a, n):
    """Dense matrix of ``sum_ij a[i,j] |D_n^i><D_n^j|`` from its coefficient matrix."""
    a = np.asarray(getattr(a, "a", a), dtype=complex)
    if a.shape != (n + 1, n + 1):
        raise EdlkitError("DIM_MISMATCH", "coefficient matrix must be (n+1)x(n+1)")
    d = 1 << n
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        i = _popcount(r)
        for c in range(d):
            j = _popcount(c)
            out[r, c] = a[i, j] / math.sqrt(math.comb(n, i) * math.comb(n, j))
    return out


def brute_marginal(rho, n, keep):
    """Partial trace by explicit index loops.

    ``keep`` is an iterable of 1-based particle labels; the result orders the
    kept particles ascending.
    """
    mat = _as_array(rho)
    if mat.shape[0] != 1 << n:
        raise EdlkitError("DIM_MISMATCH", "matrix does not match n=%d" % n)
    keep = sorted(set(int(j) for j in keep))
    if not keep:
        raise EdlkitError("EMPTY_SUBSET", "keep set is empty")
    if keep[0] < 1 or keep[-1] > n:
        raise EdlkitError("DIM_MISMATCH", "keep labels outside 1..%d" % n)
    traced = [j for j in range(1, n + 1) if j not in keep]
    k = len(keep)
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for ra in range(1 << k):
        for ca in range(1 << k):
            acc = 0.0 + 0.0j
            for t in range(1 << len(traced)):
                r = 0
                c = 0
                for j in range(1, n + 1):
                    if j in keep:
                        pos = keep.index(j)
                        rb = ra >> (k - 1 - pos) & 1
                        cb = ca >> (k - 1 - pos) & 1
                    else:
                        pos = traced.index(j)
                        rb = cb = t >> (len(traced) - 1 - pos) & 1
                    r = (r << 1) | rb
                    c = (c << 1) | cb
                acc += mat[r, c]
            out[ra, ca] = acc
    return out


def brute_ppt(rho, n, tol=1e-9):
    """PPT check by an index-level partial transpose of the first floor(n/2) qubits.

    Returns ``(is_ppt, min_eigenvalue)``.
    """
    mat = _as_array(rho)
    if mat.shape[0] != 1 << n:
        raise EdlkitError("DIM_MISMATCH", "matrix does not match n=%d" % n)
    nt = n // 2          # number of transposed (most significant) qubits
    lo_bits = n - nt
    d = 1 << n
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        r_hi, r_lo = divmod(r, 1 << lo_bits)
        for c in range(d):
            c_hi, c_lo = divmod(c, 1 << lo_bits)
            out[r, c] = mat[(c_hi << lo_bits) | r_lo, (r_hi << lo_bits) | c_lo]
    min_eig = float(np.linalg.eigvalsh(out)[0])
    return min_eig >= -tol, min_eig


def is_swap_invariant(rho, n, tol=1e-10):
    """True iff the state is invariant under every transposition of two qubits."""
    mat = _as_array(rho)
    if mat.shape[0] != 1 << n:
        raise EdlkitError("DIM_MISMATCH", "matrix does not match n=%d" % n)
    d = 1 << n
    for i, j in itertools.combinations(range(1, n + 1), 2):
        bi, bj = n - i, n - j    # bit positions of the two particles
        perm = np.empty(d, dtype=int)
        for idx in range(d):
            vi = idx >> bi & 1
            vj = idx >> bj & 1
            swapped = idx & ~(1 << bi) & ~(1 << bj) | (vj << bi) | (vi << bj)
            perm[idx] = swapped
        if np.max(np.abs(mat[np.ix_(perm, perm)] - mat)) > tol:
            return False
    return True


def exact_det(rows):
    """Determinant of a small matrix of Fractions via cofactor expansion."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Fraction(0)
    for j in range(d):
        if rows[0][j] == 0:
            continue
        minor = [[rows[r][c] for c in range(d) if c != j] for r in range(1, d)]
        total += (-1) ** j * rows[0][j] * exact_det(minor)
    return total


def _covers_and_connected(chosen, n):
    verts = set()
    for s in chosen:
        verts |= s
    if verts != set(range(1, n + 1)):
        return False
    # breadth-first search on the intersection graph of the chosen subsets
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for idx in range(len(chosen)):
            if idx not in seen and chosen[cur] & chosen[idx]:
                seen.add(idx)
                frontier.append(idx)
    return len(seen) == len(chosen)


def exhaustive_min_connected_cover(n, k):
    """Minimum number of k-subsets of [n] whose union covers [n] and whose
    intersection graph is connected, found by exhaustive search.

    Returns ``(count, witness)`` where witness is a tuple of sorted tuples.
    Intended for n <= 7 and 2 <= k <= 4.
    """
    if not 2 <= k <= n:
        raise EdlkitError("DIM_MISMATCH", "need 2 <= k <= n, got k=%d, n=%d" % (k, n))
    if n > 7 or k > 4 and k < n:
        raise EdlkitError("TOO_LARGE", "exhaustive search capped at n<=7, k<=4")
    all_subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    for count in range(1, len(all_subsets) + 1):
        for combo in itertools.combinations(all_subsets, count):
            if _covers_and_connected(list(combo), n):
                witness = tuple(tuple(sorted(s)) for s in combo)
                return count, witness
    raise EdlkitError("SOLVER_FAIL", "no connected cover found (unreachable)")


def local_complement_edges(graph, v):
    """Local complement at ``v`` on the edge set: toggle every pair of
    neighbours of ``v``."""
    edges = set(graph.edges)
    for pair in itertools.combinations(sorted(graph.neighbors(v)), 2):
        edges ^= {pair}
    return SimpleGraph(graph.n, tuple(sorted(edges)))


def lc_orbit_edge_sets(graph, budget=100000):
    """Local-complementation orbit search over ``SimpleGraph`` objects keyed
    by their sorted edge tuples: the search order, early stop and budget
    rule of ``graphstate.lc_orbit_min_max_degree``, so the two return equal
    ``OrbitResult``s."""
    best = graph.max_degree()
    best_graph = graph
    seen = {graph.edges}
    frontier = deque([graph])
    floor = 2 if graph.n >= 3 else 1
    while frontier and len(seen) < budget and best > floor:
        cur = frontier.popleft()
        for v in range(1, graph.n + 1):
            nxt = local_complement_edges(cur, v)
            if nxt.edges in seen:
                continue
            seen.add(nxt.edges)
            frontier.append(nxt)
            if nxt.max_degree() < best:
                best = nxt.max_degree()
                best_graph = nxt
            if best <= floor:
                break
    exhausted = not frontier or best <= floor
    return OrbitResult(best, exhausted, len(seen), best_graph)


def _linmap_matrix(d_in, d_out, fn):
    """Real matrix of a Hermitian-preserving linear map in svec coordinates."""
    cols = d_in * d_in
    out = np.zeros((d_out * d_out, cols))
    for j in range(cols):
        e = np.zeros(cols)
        e[j] = 1.0
        out[:, j] = svec(fn(smat(e, d_in)))
    return out


def build_fdw_problem(rho, subsets):
    """The witness program as an explicit :class:`SdpProblem` (small n only).

    The generic dense path that cross-checks the structured consensus path
    of :func:`edlkit.witness.fully_decomposable_alpha`.
    """
    mat, n = qcore._as_matrix(rho)
    if n > 3:
        raise EdlkitError("TOO_LARGE", "dense witness assembly capped at 3 qubits")
    coll = _collection_of(n, subsets)
    d = 1 << n
    dsq = d * d
    masks = _bipartition_masks(n)
    m = len(masks)
    strings = set(_allowed_strings(n, coll))
    disallowed = [s for s in ("".join(p) for p in itertools.product("IXYZ", repeat=n))
                  if s not in strings]
    blocks = [SdpBlock(d, "free")] + [SdpBlock(d, "psd")] * (2 * m)
    nvar = (1 + 2 * m) * dsq
    rows = []
    rhs = []
    # unit trace of W
    row = np.zeros(nvar)
    row[:dsq] = svec(np.eye(d))
    rows.append(row)
    rhs.append(1.0)
    # locality: W orthogonal to every Pauli string outside the allowed span
    norm = 2.0 ** (-n / 2.0)
    for s in disallowed:
        row = np.zeros(nvar)
        row[:dsq] = svec(qcore.pauli_string(n, s)) * norm
        rows.append(row)
        rhs.append(0.0)
    # W - P_i - Q_i^(T_i) = 0 for every bipartition
    eye_rows = np.eye(dsq)
    for i, mask in enumerate(masks):
        subset = qcore.Subset(n, mask)
        pt_rows = _linmap_matrix(d, d, lambda x: qcore.partial_transpose(x, subset))
        block_rows = np.zeros((dsq, nvar))
        block_rows[:, :dsq] = eye_rows
        block_rows[:, (1 + i) * dsq:(2 + i) * dsq] = -eye_rows
        block_rows[:, (1 + m + i) * dsq:(2 + m + i) * dsq] = -pt_rows
        rows.append(block_rows)
        rhs.extend([0.0] * dsq)
    objective = [mat] + [None] * (2 * m)
    return SdpProblem(blocks, objective, np.vstack(rows), np.array(rhs))
