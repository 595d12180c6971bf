"""Semidefinite programming layer: decomposable witnesses and marginal SDPs.

Two convex programs drive everything here.  The witness program minimizes
``Tr(W rho)`` over unit-trace operators that are sums of marginal terms
``H^S (x) I`` and decompose as ``P + Q^(T_S)`` with ``P, Q >= 0`` across
every bipartition; a negative value certifies genuine multipartite
entanglement from the chosen marginals alone.  The determination program
minimizes the fidelity ``<psi| rho |psi>`` over states matching all the
marginals of a pure target; value 1 means the marginals pin the state.

Both are solved by the same first-order operator-splitting loop: alternate
a projection onto the affine constraints against a projection onto the
semidefinite cones (batched eigenvalue clipping), with over-relaxation 1.5.
Every program iterates on a stack of complex matrices with a closed-form
affine step: cached partial-transpose permutations, projectors onto the
allowed Pauli strings, or a constraint span factored once per call.  Only the
generic :func:`solve_sdp` packs its iterate with svec.  Iterations are
deterministic; no external solver is used.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import EdlkitError
from .hypergraph import SubsetCollection, all_k_subsets
from .symmetric import SymmetricCoeffs, _reduce_coeff_matrix

MAX_SDP_QUBITS = 5
DEFAULT_TOL = 1e-7
MAX_ITER = 50000
RELAX = 1.5


# ---------------------------------------------------------------------------
# Hermitian <-> real vector packing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _triu(d):
    """Strict upper-triangle indices of a d x d matrix, read-only."""
    iu = np.triu_indices(d, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def svec(h):
    """Isometric real packing of a Hermitian matrix (diag, sqrt2*Re, sqrt2*Im)."""
    h = np.asarray(h)
    d = h.shape[0]
    iu = _triu(d)
    return np.concatenate([h.diagonal().real,
                           math.sqrt(2.0) * h[iu].real,
                           math.sqrt(2.0) * h[iu].imag])


def smat(v, d):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    iu = _triu(d)
    k = iu[0].size
    out = np.zeros((d, d), dtype=complex)
    out[np.diag_indices(d)] = v[:d]
    upper = (v[d:d + k] + 1j * v[d + k:]) / math.sqrt(2.0)
    out[iu] = upper
    out[(iu[1], iu[0])] = upper.conj()
    return out


# ---------------------------------------------------------------------------
# Problem container and the splitting engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpBlock:
    dim: int
    cone: str  # "psd" or "free"

    def __post_init__(self):
        if self.cone not in ("psd", "free"):
            raise EdlkitError("BAD_KIND", "unknown cone %r" % (self.cone,))


@dataclass
class SdpProblem:
    """Minimize ``sum_b <objective[b], X_b>`` s.t. ``rows @ x = rhs`` and cones.

    ``x`` is the concatenation of the svec of every block.  ``objective``
    entries may be None (no cost on that block).
    """

    blocks: list
    objective: list
    rows: np.ndarray
    rhs: np.ndarray

    def block_slices(self):
        out = []
        off = 0
        for b in self.blocks:
            out.append(slice(off, off + b.dim * b.dim))
            off += b.dim * b.dim
        return out

    def dim(self):
        return sum(b.dim * b.dim for b in self.blocks)

    def cost_vector(self):
        c = np.zeros(self.dim())
        for sl, b, obj in zip(self.block_slices(), self.blocks, self.objective):
            if obj is not None:
                c[sl] = svec(obj)
        return c


@dataclass
class SdpSolution:
    status: str           # "OPTIMAL", "MAX_ITER", "INFEASIBLE"
    objective: float
    blocks: list          # affine-side block matrices
    cone_blocks: list     # cone-side block matrices (exactly PSD)
    primal_residual: float
    dual_residual: float
    iterations: int


def _clip_psd(stack):
    """Project every matrix of a ``(k, d, d)`` stack onto the PSD cone."""
    stack = (stack + stack.conj().transpose(0, 2, 1)) / 2.0
    w, q = np.linalg.eigh(stack)
    w = np.clip(w, 0.0, None)
    return q * w[:, None, :] @ q.conj().transpose(0, 2, 1)


def _sqnorm(a):
    return np.vdot(a, a).real


def _admm(c, project_affine, project_cone, tol, max_iter, sigma=1.0):
    """Shared over-relaxed splitting loop on iterates shaped like ``c``; returns
    (x, z, status, res_p, res_d, iters).  Norms of a Hermitian stack equal svec norms.
    The stop test compares squared norms; square roots are taken only for the
    stall window and the reported residuals."""
    x = np.zeros_like(c)
    z = np.zeros_like(c)
    u = np.zeros_like(c)
    shift = c / sigma
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
        rp2 = _sqnorm(x - z_new)
        rd2 = sigma * sigma * _sqnorm(z_new - z)
        z = z_new
        scale2 = max(1.0, _sqnorm(x), _sqnorm(z))
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
    return x, z, status, math.sqrt(rp2), math.sqrt(rd2), it


def _factor_rows(A, b):
    """Rank-cut thin SVD of ``A``, least-norm solution of ``A x = b``, its residual."""
    u_svd, s_svd, vt_svd = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s_svd > max(1.0, s_svd[0] if s_svd.size else 1.0) * 1e-12))
    ur, sr, vr = u_svd[:, :rank], s_svd[:rank], vt_svd[:rank]
    x_ls = vr.T @ (ur.T @ b / sr)
    return ur, sr, vr, x_ls, float(np.linalg.norm(A @ x_ls - b))


def _solve_pinned(c, basis, rows, anchor, what, tol, max_iter):
    """Minimize ``<c, X>`` over PSD ``X`` (shape ``(1, d, d)``) whose orthogonal projection
    ``basis.T @ rows @ vec X`` equals that of ``anchor``; the affine step is
    ``X - basis.T @ rows @ (vec X - anchor)``.  Returns a DeterminationResult."""
    x, _z, status, res_p, res_d, iters = _admm(
        c, lambda v: v - (basis.T @ (rows @ (v.ravel() - anchor))).reshape(v.shape),
        _clip_psd, tol, max_iter)
    if status != "OPTIMAL":
        raise EdlkitError("MAX_ITER" if status == "MAX_ITER" else "SOLVER_FAIL",
                          "%s did not converge (%s, primal %.2e, dual %.2e, %d iters)"
                          % (what, status, res_p, res_d, iters))
    return DeterminationResult(float(np.vdot(c, x).real), status, x[0], iters, res_p, res_d)


def solve_sdp(problem, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Solve an :class:`SdpProblem` with the operator-splitting loop.

    The affine projection uses a cached thin SVD of the constraint matrix;
    an inconsistent linear system reports INFEASIBLE immediately.  Raises
    nothing on nonconvergence: inspect ``status`` on the returned solution.
    """
    A = np.asarray(problem.rows, dtype=float)
    b = np.asarray(problem.rhs, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0] or A.shape[1] != problem.dim():
        raise EdlkitError("DIM_MISMATCH", "constraint matrix shape %r mismatch" % (A.shape,))
    slices = problem.block_slices()
    ur, sr, vr, x_ls, lin_res = _factor_rows(A, b)
    if lin_res > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        zeros = [np.zeros((bl.dim, bl.dim), dtype=complex) for bl in problem.blocks]
        return SdpSolution("INFEASIBLE", float("nan"), zeros, [z.copy() for z in zeros], lin_res, 0.0, 0)
    psd_groups = {}
    for bl, sl in zip(problem.blocks, slices):
        if bl.cone == "psd":
            psd_groups.setdefault(bl.dim, []).append(sl)

    def project_cone(v):
        out = v.copy()
        for d, members in psd_groups.items():
            clipped = _clip_psd(np.array([smat(v[sl], d) for sl in members]))
            for sl, block in zip(members, clipped):
                out[sl] = svec(block)
        return out

    c = problem.cost_vector()
    x, z, status, res_p, res_d, iters = _admm(
        c, lambda v: v - vr.T @ (ur.T @ (A @ v - b) / sr), project_cone, tol, max_iter)
    blocks = [smat(x[sl], bl.dim) for sl, bl in zip(slices, problem.blocks)]
    cone_blocks = [smat(z[sl], bl.dim) for sl, bl in zip(slices, problem.blocks)]
    return SdpSolution(status, float(c @ x), blocks, cone_blocks, res_p, res_d, iters)


# ---------------------------------------------------------------------------
# Pauli locality structure
# ---------------------------------------------------------------------------

def _collection_of(n, subsets):
    if isinstance(subsets, SubsetCollection):
        coll = subsets
    else:
        coll = SubsetCollection.from_lists(n, [list(s) for s in subsets])
    if coll.n != n:
        raise EdlkitError("DIM_MISMATCH", "collection over n=%d, state over n=%d" % (coll.n, n))
    if len(coll) == 0:
        raise EdlkitError("EMPTY_SUBSET", "need at least one marginal subset")
    return coll


def _support(labels):
    """Subset mask of the non-identity factors of a Pauli label string."""
    return sum(1 << pos for pos, ch in enumerate(labels) if ch != "I")  # particle pos+1: bit pos


def _allowed_strings(n, coll):
    """Pauli label strings whose support fits inside some subset of the collection."""
    supports = ((labels, _support(labels)) for labels in itertools.product("IXYZ", repeat=n))
    return ["".join(labels) for labels, support in supports
            if any(support & ~mask == 0 for mask in coll.edges)]


def _pauli_table(n, strings):
    """Dense matrices of n-qubit Pauli strings as one ``(m, 2^n, 2^n)`` stack,
    by a Kronecker product batched over the strings (particle 1 leftmost)."""
    m = len(strings)
    factors = np.array([[qcore.PAULI_1Q[ch] for ch in s] for s in strings]).reshape(m, n, 2, 2)
    out = np.ones((m, 1, 1), dtype=complex)
    for j in range(n):
        out = (out[:, :, None, :, None] * factors[:, j, None, :, None, :]).reshape(m, 2 << j, 2 << j)
    return out


def _allowed_span(n, coll):
    """Allowed strings of ``coll`` and both factors of the projector onto their span,
    ``paulis.T @ (coeff_rows @ vec X)``, where ``coeff_rows @ vec X`` are Pauli coefficients."""
    strings = _allowed_strings(n, coll)
    paulis = _pauli_table(n, strings).reshape(len(strings), -1)
    return strings, paulis, paulis.conj() / (1 << n)


def _bipartition_masks(n):
    full = (1 << n) - 1
    return [m for m in range(1, full) if m & 1]


def _pt_permutation(n, mask):
    """Flat index permutation implementing the partial transpose on ``mask``."""
    d = 1 << n
    bits = [n - j for j in range(1, n + 1) if mask >> (j - 1) & 1]
    swap = 0
    for b in bits:
        swap |= 1 << b
    idx = np.arange(d * d)
    r, c = idx // d, idx % d
    r2 = (r & ~swap) | (c & swap)
    c2 = (c & ~swap) | (r & swap)
    return r2 * d + c2


def expand_operator(n, labels, h):
    """Embed an operator on the qubits ``labels`` (ascending) into n qubits."""
    labels = tuple(sorted(int(x) for x in labels))
    k = len(labels)
    h = np.asarray(h, dtype=complex)
    if h.shape != (1 << k, 1 << k):
        raise EdlkitError("DIM_MISMATCH", "block shape %r does not match %d qubits" % (h.shape, k))
    d = 1 << n
    idx = np.arange(d)
    sub = np.zeros(d, dtype=int)
    rest = np.zeros(d, dtype=int)
    for j in range(1, n + 1):
        bit = idx >> (n - j) & 1
        if j in labels:
            sub = (sub << 1) | bit
        else:
            rest = (rest << 1) | bit
    match = rest[:, None] == rest[None, :]
    return h[np.ix_(sub, sub)] * match


# ---------------------------------------------------------------------------
# Witness container
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """Fully decomposable entanglement witness with locality blocks.

    ``blocks`` maps marginal subsets to Hermitian operators ``H^S`` with
    ``W = sum_S H^S (x) I``; ``certificates`` maps each bipartition subset
    (particle 1 always inside) to the pair ``(P, Q)`` with
    ``W = P + Q^(T_S)`` and both PSD.
    """

    n: int
    collection: SubsetCollection
    alpha: float
    blocks: list          # (Subset, ndarray) pairs
    certificates: list    # (Subset, P, Q) triples

    def assemble(self):
        d = 1 << self.n
        out = np.zeros((d, d), dtype=complex)
        for subset, h in self.blocks:
            out += expand_operator(self.n, subset.indices, h)
        return out


@dataclass
class WitnessVerdict:
    ok: bool
    failures: list
    trace: float
    max_decomposition_dev: float
    min_certificate_eig: float
    value: float | None   # Tr(W rho) when a state was supplied

    def __bool__(self):
        return self.ok


def verify_witness(witness, rho=None, recon_tol=1e-6, trace_tol=1e-7, psd_tol=1e-7):
    """Re-check a witness from scratch: trace, locality, every certificate.

    Locality holds by reconstruction from the blocks; completeness requires
    one certificate per bipartition class.  Returns a verdict carrying the
    failure list and, when ``rho`` is given, the witness value.
    """
    w = witness.assemble()
    failures = []
    trace = float(np.trace(w).real)
    if abs(trace - 1.0) > trace_tol or abs(np.trace(w).imag) > trace_tol:
        failures.append("trace %.9f deviates from 1" % trace)
    for subset, _h in witness.blocks:
        if subset.mask not in witness.collection.edges:
            failures.append("block subset %s not in the collection" % (subset.indices,))
    expected = set(_bipartition_masks(witness.n))
    seen_masks = set()
    max_dev = 0.0
    min_eig = np.inf
    for subset, p, q in witness.certificates:
        seen_masks.add(subset.mask)
        pt_q = qcore.partial_transpose(q, subset)
        dev = float(np.max(np.abs(w - p - pt_q)))
        max_dev = max(max_dev, dev)
        ep = float(np.linalg.eigvalsh((p + p.conj().T) / 2)[0])
        eq = float(np.linalg.eigvalsh((q + q.conj().T) / 2)[0])
        min_eig = min(min_eig, ep, eq)
        if dev > recon_tol:
            failures.append("decomposition residual %.3e at bipartition %s" % (dev, subset.indices))
        if min(ep, eq) < -psd_tol:
            failures.append("certificate not PSD at bipartition %s (eig %.3e)" % (subset.indices, min(ep, eq)))
    if seen_masks != expected:
        failures.append("certificates cover %d of %d bipartitions" % (len(seen_masks), len(expected)))
    value = None
    if rho is not None:
        mat, n_rho = qcore._as_matrix(rho)
        if n_rho != witness.n:
            raise EdlkitError("DIM_MISMATCH", "state and witness qubit counts differ")
        value = float(np.trace(w @ mat).real)
    if min_eig is np.inf:
        min_eig = float("nan")
    return WitnessVerdict(len(failures) == 0, failures, trace, max_dev, float(min_eig), value)


# ---------------------------------------------------------------------------
# Fully decomposable witness program
# ---------------------------------------------------------------------------

def _check_sdp_size(n):
    if n > MAX_SDP_QUBITS:
        raise EdlkitError("TOO_LARGE", "SDP layer capped at %d qubits, got n=%d" % (MAX_SDP_QUBITS, n))


def fully_decomposable_alpha(rho, subsets, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Minimum witness value over unit-trace fully decomposable witnesses
    built from the marginals in ``subsets``.

    Returns ``(alpha, witness)``.  The iterate is the stack ``(W, P_1..P_m,
    Q_1..Q_m)``; its consensus structure (one shared W against per-bipartition
    decompositions) gives the affine projection in closed form.
    """
    mat, n = qcore._as_matrix(rho)
    _check_sdp_size(n)
    coll = _collection_of(n, subsets)
    d = 1 << n
    masks = _bipartition_masks(n)
    m = len(masks)
    # block i of an (m, d, d) stack, partially transposed on masks[i]
    pt_index = np.array([_pt_permutation(n, mask) + i * d * d for i, mask in enumerate(masks)])
    strings, paulis, coeff_rows = _allowed_span(n, coll)

    def pt(blocks):
        return blocks.ravel()[pt_index].reshape(m, d, d)

    def project_affine(v):
        p, q = v[1:1 + m], v[1 + m:]
        ks = p + pt(q)
        w = (v[0] + 0.5 * ks.sum(axis=0)) / (1.0 + m / 2.0)
        w = (paulis.T @ (coeff_rows @ w.ravel())).reshape(d, d)
        w.flat[::d + 1] += (1.0 - np.trace(w).real) / d
        r = 0.5 * (w - ks)
        return np.concatenate([w[None], p + r, q + pt(r)])

    def project_cone(v):
        return np.concatenate([v[:1], _clip_psd(v[1:])])

    c = np.zeros((1 + 2 * m, d, d), dtype=complex)
    c[0] = (mat + mat.conj().T) / 2.0
    x, z, status, res_p, res_d, iters = _admm(c, project_affine, project_cone, tol, max_iter)
    if status != "OPTIMAL":
        raise EdlkitError("MAX_ITER" if status == "MAX_ITER" else "SOLVER_FAIL",
                          "witness program did not converge (%s, primal %.2e, dual %.2e, %d iters)"
                          % (status, res_p, res_d, iters))
    w_mat = x[0]
    alpha = float(np.trace(w_mat @ mat).real)
    witness = _witness_from_solution(n, coll, alpha, strings, coeff_rows @ w_mat.ravel(),
                                     masks, z[1:1 + m], z[1 + m:])
    return alpha, witness


def _witness_from_solution(n, coll, alpha, strings, coeffs, masks, p_mats, q_mats):
    # expand W over the allowed strings; each string is charged to the first
    # collection subset containing its support (the identity to the first)
    block_terms = {mask: [] for mask in coll.edges}
    for s, coeff in zip(strings, coeffs):
        if abs(coeff) < 1e-14:
            continue
        support = _support(s)
        home = next(mask for mask in coll.edges if support & ~mask == 0)
        block_terms[home].append((s, coeff))
    blocks = []
    for mask in coll.edges:
        labels = qcore.Subset(n, mask).indices
        terms = block_terms[mask]
        table = _pauli_table(len(labels), ["".join(s[j - 1] for j in labels) for s, _c in terms])
        blocks.append((qcore.Subset(n, mask), np.tensordot([c.real for _s, c in terms], table, axes=1)))
    certificates = [(qcore.Subset(n, mask), p, q)
                    for mask, p, q in zip(masks, p_mats, q_mats)]
    return Witness(n, coll, alpha, blocks, certificates)


def noise_threshold(alpha, n):
    """White-noise robustness: ``(1-p) rho + p I/2^n`` stays detected for
    ``p < 2^n alpha / (2^n alpha - 1)``.
    """
    if not alpha < 0:
        raise EdlkitError("NOT_NEGATIVE", "noise threshold needs a negative witness value")
    scale = (1 << n) * alpha
    return float(scale / (scale - 1.0))


def edl_upper_bound(rho, tol=DEFAULT_TOL):
    """Smallest k whose witness program already certifies entanglement.

    Returns ``(k, alpha, witness)`` or ``(None, last_alpha, None)`` when no
    level is conclusive (the margin is ``alpha < -10 tol``).
    """
    mat, n = qcore._as_matrix(rho)
    _check_sdp_size(n)
    alpha = float("nan")
    for k in range(2, n + 1):
        alpha, witness = fully_decomposable_alpha(mat, all_k_subsets(n, k), tol=tol)
        if alpha < -10.0 * tol:
            return k, alpha, witness
    return None, alpha, None


def refit_certificates(witness, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Recompute the per-bipartition decompositions of a witness from its W.

    Each bipartition is an independent feasibility program: find PSD ``P, Q``
    with ``P + Q^(T_S) = W``; partial transpose is an orthogonal involution, so
    its projection is ``r = W - P - Q^(T_S); P += r/2; Q += r^(T_S)/2``.
    Returns a new witness with fresh certificates.
    """
    n = witness.n
    _check_sdp_size(n)
    w = witness.assemble()
    w = (w + w.conj().T) / 2.0
    d = 1 << n
    certificates = []
    for mask in _bipartition_masks(n):
        perm = _pt_permutation(n, mask)

        def project_affine(v, perm=perm):
            r = 0.5 * (w - v[0] - v[1].ravel()[perm].reshape(d, d))
            return np.stack([v[0] + r, v[1] + r.ravel()[perm].reshape(d, d)])

        subset = qcore.Subset(n, mask)
        z, status = _admm(np.zeros((2, d, d), dtype=complex), project_affine, _clip_psd,
                          tol, max_iter)[1:3]
        if status != "OPTIMAL":
            raise EdlkitError("INFEASIBLE" if status == "INFEASIBLE" else "MAX_ITER",
                              "no decomposition found at bipartition %s (%s)"
                              % (subset.indices, status))
        certificates.append((subset, z[0], z[1]))
    return Witness(witness.n, witness.collection, witness.alpha, witness.blocks, certificates)


# ---------------------------------------------------------------------------
# Pure-state determination program
# ---------------------------------------------------------------------------

@dataclass
class DeterminationResult:
    alpha: float
    status: str
    rho: np.ndarray       # the minimizing compatible state
    iterations: int
    primal_residual: float
    dual_residual: float


def pure_determination_alpha(psi, subsets, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Minimum fidelity with ``psi`` over states sharing its listed marginals.

    Value 1 means those marginals determine the state; the minimizer itself
    is returned as the certificate (a different compatible state when the
    value drops below 1).
    """
    if not isinstance(psi, qcore.PureVector):
        raise EdlkitError("DIM_MISMATCH", "expected a PureVector")
    n = psi.n
    _check_sdp_size(n)
    coll = _collection_of(n, subsets)
    target = psi.to_density().matrix[None]
    # Tr rho = 1 and the marginals on coll pin the coefficients of rho on exactly
    # the allowed Pauli strings (the identity among them) to those of psi
    _strings, paulis, coeff_rows = _allowed_span(n, coll)
    return _solve_pinned(target, paulis, coeff_rows, target.ravel(), "determination program",
                         tol, max_iter)


def sdl_pure(psi, tol=DEFAULT_TOL):
    """Determination length of a pure state by scanning the marginal size.

    Returns ``(value, alphas)`` where alphas records the program value at
    each size; determination is declared at ``alpha >= 1 - 100 tol``.
    """
    n = psi.n
    _check_sdp_size(n)
    alphas = {}
    for k in range(1, n + 1):
        res = pure_determination_alpha(psi, all_k_subsets(n, k), tol=tol)
        alphas[k] = res.alpha
        if res.alpha >= 1.0 - 100.0 * tol:
            return k, alphas
    return n, alphas


# ---------------------------------------------------------------------------
# Symmetric-subspace determination probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    verdict: str          # "UNIQUE" or "NONUNIQUE"
    max_deviation: float
    witness_coeffs: np.ndarray | None
    trials: int

    def __bool__(self):
        return self.verdict == "UNIQUE"


def symmetric_sdl_probe(coeffs, k, trials=8, tol=DEFAULT_TOL, seed=20240811):
    """Numerically probe whether the level-k marginals pin a symmetric state
    within the symmetric family.

    Random linear functionals are minimized and maximized over the
    compatible set; any optimum escaping the input's value flags
    NONUNIQUE with the deviating coefficient matrix as witness.  UNIQUE is
    a sampled verdict, not a proof.
    """
    if not isinstance(coeffs, SymmetricCoeffs):
        raise EdlkitError("DIM_MISMATCH", "expected SymmetricCoeffs")
    n = coeffs.n
    if not 1 <= k <= n:
        raise EdlkitError("BAD_LEVEL", "marginal size %d outside 1..%d" % (k, n))
    dd = n + 1
    # (trace, level-k reduction) on row-major vec X, factored once for all solves
    units = np.eye(dd * dd).reshape(-1, dd, dd)
    rows = np.array([np.append(np.trace(e), _reduce_coeff_matrix(n, k, e).real) for e in units]).T
    rhs = np.append(1.0, _reduce_coeff_matrix(n, k, coeffs.a))
    _ur, _sr, vr, anchor, lin_res = _factor_rows(rows, rhs)
    if lin_res > 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
        raise EdlkitError("SOLVER_FAIL", "probe constraints are inconsistent (INFEASIBLE, "
                          "residual %.2e, 0 iters)" % lin_res)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _t in range(trials):
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        f = (g + g.conj().T) / 2.0
        f /= np.linalg.norm(f)
        base = float(np.trace(f @ coeffs.a).real)
        for sign in (1.0, -1.0):
            res = _solve_pinned(sign * f[None], vr, vr, anchor, "probe solve", tol, MAX_ITER)
            dev = abs(sign * res.alpha - base)
            worst = max(worst, dev)
            if dev > 100.0 * tol:
                return ProbeResult("NONUNIQUE", dev, res.rho, trials)
    return ProbeResult("UNIQUE", worst, None, trials)
