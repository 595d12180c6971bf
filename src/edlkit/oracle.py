"""Brute-force reference implementations used to cross-check the fast paths.

The brute-force routines are plain loop nests over computational basis
indices and deliberately share no code with the implementations they check
(``qcore.partial_trace``, the Hankel criteria, the hypergraph counting
formula, the Pascal-rule marginals of ``symmetric``).  Sizes are small,
clarity wins over speed.  :func:`brute_marginal`,
:func:`brute_partial_transpose` and :func:`brute_embed` read each particle's
bit of an index one at a time, as references for the one particle layout of
``qcore`` (``qcore._axes``): the partial trace, the partial transpose and
the flat permutation ``witness._pt_permutation`` built from its axis order,
``witness.expand_operator`` and the marginal split ``qcore._split``.
:func:`diagonal_marginal_binomial` builds each diagonal marginal weight from
the full weights with one binomial Fraction per term, as a reference for the
moment walk of ``symmetric.diagonal_marginal``.  :func:`exact_det` is
the cofactor-expansion determinant that freezes exact Hankel minors and,
through Sylvester's criterion, checks the elimination in
``symmetric._exact_psd``.  :func:`reduce_coeff_matrix_loop` reduces a
Dicke-basis coefficient matrix term by term, as a reference for the Pascal
walk of ``symmetric._reduce_coeff_matrix`` and the probe's reduction table
``witness._reduction_table``.
:func:`alternative_nonneg_point_lp` runs the full coordinate-LP search for an
alternative diagonal solution, as a reference for the zero-pattern cone test
in ``symmetric._alternative_nonneg_point``; it shares the kernel basis of
``symmetric.solution_family`` and ``simplex_max`` with it.
:func:`lc_orbit_edge_sets` runs the
local-complementation orbit search on ``SimpleGraph`` edge sets, as a
reference for the adjacency-bitmask search of ``graphstate``.

The generic SDP references (:func:`build_fdw_problem`, :func:`_linmap_matrix`)
state a program as svec-packed constraint rows for ``witness.solve_sdp``,
which tests compare against the matrix-native fast paths.  Every reference
program has blocks of one size, as ``solve_sdp`` requires: it reads the rows
once as Hermitian functionals on the stack of blocks and iterates on that
stack.  They take Pauli
strings and partial transposes from the Kronecker-product and index routines
of ``qcore``; the fast paths describe locality by partial traces instead and
build no Pauli string.  What the references share with the fast paths is
``witness._collection_of``, ``witness._bipartition_masks`` and, through
``solve_sdp`` and ``witness._solve_pinned``, the ``_admm`` splitting loop.
That loop has its own reference: :func:`admm_reference` is its unfused form
(one temporary per term, the relaxed point kept apart from the dual), sharing
only the loop constants, so a test runs both on the same projections and
compares the iterates; :func:`psd_projection` projects one symmetrised matrix
at a time, as the reference for the batched ``witness._clip_psd``.
:func:`full_determination` is the ``2^n x 2^n`` determination program pinned
on the allowed Pauli strings (:func:`pauli_span`), and
:func:`sdl_pure_full_program` scans the determination length with it at every
level, as a reference for the face step of ``witness.pure_determination_alpha``.
:func:`probe_face_rank` rebuilds the face of ``witness.symmetric_sdl_probe``
from the term-by-term reduction in svec coordinates.

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
from ._simplex import simplex_max
from .graphstate import OrbitResult, SimpleGraph
from .symmetric import solution_family
from .hypergraph import all_k_subsets
from .witness import (ADAPT_EVERY, DEFAULT_TOL, MAX_ITER, RELAX, SIGMA_MAX, SIGMA_MIN,
                      SIGMA_START, SIGMA_STEP, SdpBlock, SdpProblem, _bipartition_masks,
                      _collection_of, _solve_pinned, smat, svec)


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


def alternative_nonneg_point_lp(mix, k, tol=1e-9):
    """Coordinate search for a nonzero ``s`` with ``lam + N s >= 0`` at level k.

    Maximizes and minimizes every free coordinate of ``solution_family(mix, k)``
    by ``simplex_max`` and returns the first point whose value exceeds ``tol``,
    or None.  It runs every coordinate LP at every level, with no zero-pattern
    shortcut.
    """
    N = solution_family(mix, k).basis_array()
    p = N.shape[1]
    for j in range(p):
        for sign in (1.0, -1.0):
            c = np.zeros(p)
            c[j] = sign
            value, point = simplex_max(c, -N, mix.floats, tol=tol)
            if value > tol:
                return point
    return None


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


def reduce_coeff_matrix_loop(n, k, a):
    """k-qubit reduction of a Dicke-basis coefficient matrix, term by term:
    ``|D_n^i><D_n^j|`` contributes ``C(n-k, i-s) sqrt(C(k,s) C(k,t)) / sqrt(C(n,i) C(n,j))``
    to ``|D_k^s><D_k^t|`` with ``t = j - i + s``."""
    b = np.zeros((k + 1, k + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            if a[i, j] == 0:
                continue
            for s in range(k + 1):
                t = j - i + s
                if not 0 <= t <= k or not 0 <= i - s <= n - k:
                    continue
                w = (math.comb(n - k, i - s) * math.sqrt(math.comb(k, s) * math.comb(k, t))
                     / math.sqrt(math.comb(n, i) * math.comb(n, j)))
                b[s, t] += a[i, j] * w
    return b


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


def _particle_bits(n, mask):
    """Index bits of the particles of bitmask ``mask`` (bit j-1 for particle j), most
    significant first: particle j owns bit ``n - j`` of a basis index."""
    return [n - j for j in range(1, n + 1) if mask >> (j - 1) & 1]


def brute_partial_transpose(rho, n, mask):
    """Partial transpose on the particles of bitmask ``mask`` by explicit index loops:
    entry ``(r, c)`` is the entry of ``rho`` whose row and column indices trade the
    bits of those particles."""
    mat = _as_array(rho)
    if mat.shape[0] != 1 << n:
        raise EdlkitError("DIM_MISMATCH", "matrix does not match n=%d" % n)
    swap = sum(1 << b for b in _particle_bits(n, mask))
    out = np.zeros_like(mat)
    for r in range(1 << n):
        for c in range(1 << n):
            out[r, c] = mat[r & ~swap | c & swap, c & ~swap | r & swap]
    return out


def brute_embed(n, mask, h):
    """``h (x) I`` by explicit index loops, the factors of ``h`` on the particles of
    bitmask ``mask`` in ascending order: entry ``(r, c)`` is ``h[r_S, c_S]`` when r
    and c agree on every other particle, else 0."""
    bits = _particle_bits(n, mask)
    other = (1 << n) - 1 - sum(1 << b for b in bits)

    def sub(i):  # the bits of i on the mask, read as a 2^|S|-dimensional index
        return sum((i >> b & 1) << (len(bits) - 1 - t) for t, b in enumerate(bits))

    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for r in range(1 << n):
        for c in range(1 << n):
            if r & other == c & other:
                out[r, c] = h[sub(r), sub(c)]
    return out


def brute_ppt(rho, n, tol=1e-9):
    """PPT check by the index-level partial transpose (:func:`brute_partial_transpose`)
    of the first floor(n/2) qubits.

    Returns ``(is_ppt, min_eigenvalue)``.
    """
    min_eig = float(np.linalg.eigvalsh(brute_partial_transpose(rho, n, (1 << (n // 2)) - 1))[0])
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


def _allowed_strings(n, coll):
    """Pauli label strings whose support fits inside some subset of the collection."""
    def support(labels):  # particle pos+1: bit pos
        return sum(1 << pos for pos, ch in enumerate(labels) if ch != "I")

    return ["".join(labels) for labels in itertools.product("IXYZ", repeat=n)
            if any(support(labels) & ~mask == 0 for mask in coll.edges)]


def pauli_span(n, coll):
    """The allowed Pauli strings of ``coll`` from ``qcore.pauli_string``, flattened and
    scaled to orthonormal rows: ``pauli_span(n, coll) @ vec X`` are the Pauli
    coefficients of X times ``2^(n/2)``."""
    strings = _allowed_strings(n, coll)
    return np.array([qcore.pauli_string(n, s).conj().ravel() for s in strings]) / math.sqrt(1 << n)


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


def full_determination(psi, subsets, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """The ``2^n x 2^n`` determination program with no face step: unit trace and the
    marginals on ``subsets`` pin the coefficients of rho on exactly the allowed Pauli
    strings (:func:`pauli_span`, the identity among them) to those of psi."""
    coll = _collection_of(psi.n, subsets)
    target = psi.to_density().matrix[None]
    return _solve_pinned(target, pauli_span(psi.n, coll), target.ravel(), "determination program",
                         tol, max_iter)


def sdl_pure_full_program(psi, tol=DEFAULT_TOL):
    """Determination length of a pure state with :func:`full_determination` at every
    level: ``(value, alphas)``, determination at ``alpha >= 1 - 100 tol``."""
    alphas = {}
    for k in range(1, psi.n + 1):
        alphas[k] = full_determination(psi, all_k_subsets(psi.n, k), tol=tol).alpha
        if alphas[k] >= 1.0 - 100.0 * tol:
            return k, alphas
    return psi.n, alphas


def probe_face_rank(coeffs, k, cut=1e-9):
    """``(r, rank)``: the dimension r of the face ``ker R_k^*(I - Pi_k)`` of a
    symmetric state and the rank of (trace, ``R_k``) on its ``r x r`` Hermitian
    operators, ``R_k`` taken term by term (:func:`reduce_coeff_matrix_loop`)."""
    n, dd = coeffs.n, coeffs.n + 1
    lin = _linmap_matrix(dd, k + 1, lambda x: reduce_coeff_matrix_loop(n, k, x))
    w, q = np.linalg.eigh(reduce_coeff_matrix_loop(n, k, coeffs.a))
    slack = q[:, w <= cut] @ q[:, w <= cut].conj().T
    # svec is an isometry, so the adjoint of the reduction is the transpose of lin
    w, q = np.linalg.eigh(smat(lin.T @ svec(slack), dd))
    face = q[:, w <= cut]
    r = face.shape[1]
    restricted = _linmap_matrix(
        r, k + 1, lambda x: reduce_coeff_matrix_loop(n, k, face @ x @ face.conj().T))
    s = np.linalg.svd(np.vstack([svec(np.eye(r))[None, :], restricted]), compute_uv=False)
    return r, int(np.sum(s > cut * s[0]))


def psd_projection(stack):
    """Nearest PSD matrix to the Hermitian part of each matrix of a ``(k, d, d)`` stack,
    one matrix at a time: the sum of ``lam |v><v|`` over the positive eigenpairs of
    ``(H + H^dag) / 2``."""
    out = []
    for h in np.asarray(stack, dtype=complex):
        w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
        pos = w > 0.0
        out.append((q[:, pos] * w[pos]) @ q[:, pos].conj().T)
    return np.array(out)


def admm_reference(c, project_affine, project_cone, tol, max_iter):
    """The splitting loop of ``witness._admm`` in its unfused form, one temporary per
    term: ``x = A(z - u - c / sigma)``, ``xr = RELAX x + (1 - RELAX) z``,
    ``z+ = K(xr + u)``, ``u += xr - z+``, with the same stop test, stall window and
    residual-balancing penalty (the dual ``u`` rescaled by ``sigma_old / sigma_new`` at
    every change).  It shares the loop constants with ``witness`` and nothing else, and
    returns the same ``(x, z, status, res_p, res_d, iters, sigma)``."""
    def sqnorm(a):
        return np.vdot(a, a).real

    x = np.zeros_like(c)
    z = np.zeros_like(c)
    u = np.zeros_like(c)
    sigma = SIGMA_START
    shift = c / sigma
    c2 = sqnorm(c)
    tol2 = tol * tol
    stall_window = []
    status = "MAX_ITER"
    rp2 = rd2 = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        x = project_affine(z - u - shift)
        xr = RELAX * x + (1.0 - RELAX) * z
        z_new = project_cone(xr + u)
        u += xr - z_new
        rp2 = sqnorm(x - z_new)
        rd2 = sigma * sigma * sqnorm(z_new - z)
        z = z_new
        x2, z2 = sqnorm(x), sqnorm(z)
        scale2 = max(1.0, x2, z2)
        if rp2 <= tol2 * scale2 and rd2 <= tol2 * scale2:
            status = "OPTIMAL"
            break
        if it % 200 == 0:
            stall_window.append(math.sqrt(rp2) / math.sqrt(scale2))
            if len(stall_window) > 12:
                stall_window.pop(0)
                flat = stall_window[0] < stall_window[-1] * 1.01
                if flat and stall_window[-1] > 1000 * tol and rd2 <= 100 * tol2 * scale2:
                    status = "INFEASIBLE"
                    break
        if it % ADAPT_EVERY == 0:
            num = rp2 * max(sigma * sigma * sqnorm(u), c2)
            den = rd2 * max(x2, z2)
            if num > 0.0 and den > 0.0:
                proposal = min(max(sigma * math.sqrt(math.sqrt(num / den)), SIGMA_MIN), SIGMA_MAX)
                if not sigma / SIGMA_STEP <= proposal <= sigma * SIGMA_STEP:
                    u *= sigma / proposal
                    sigma = proposal
                    shift = c / sigma
    return x, z, status, math.sqrt(rp2), math.sqrt(rd2), it, sigma
