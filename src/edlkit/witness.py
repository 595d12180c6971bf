"""Semidefinite programming layer: decomposable witnesses and marginal SDPs.

Two convex programs drive everything here.  The witness program minimizes
``Tr(W rho)`` over unit-trace operators that are sums of marginal terms
``H^S (x) I`` and decompose as ``P + Q^(T_S)`` with ``P, Q >= 0`` across
every bipartition; a negative value certifies genuine multipartite
entanglement from the chosen marginals alone.  The determination program
minimizes the fidelity ``<psi| rho |psi>`` over states matching all the
marginals of a pure target; value 1 means the marginals pin the state.

Both questions read the marginal map ``X -> (Tr_(not S) V X V^dag)_S`` over the
subsets S of a collection (:func:`_marginal_rows`, one partial trace per subset
on the columns of V).  At ``V = I`` its row space is the span of the local
operators ``sum_S H^S (x) I``, whose orthonormal basis is built in closed form
(:func:`_locality_span`: products of ``I/sqrt 2`` off a support and of ``E01``,
``E10``, ``(E00 - E11)/sqrt 2`` on it, with no decomposition); the witness
program projects onto it and the whole-space determination program pins it.  The
blocks ``H^S`` of a solved W are split off by successive partial traces
(:func:`_split_blocks`).  There are no Pauli strings in this module;
``oracle.pauli_span`` keeps them as the independent reference for the span.
Which axis belongs to which particle is decided in ``qcore`` alone
(``qcore._axes``): the map reads each subset through the marginal split
``qcore._split``, a block ``H^S`` becomes ``H^S (x) I`` through
``qcore._embed`` (behind :func:`expand_operator`), and the flat
partial-transpose permutations (:func:`_pt_permutation`) are the axis order
``qcore._pt_axes`` applied to the flat indices.

Determination (:func:`pure_determination_alpha`, for any marginal collection;
:func:`determination_levels` calls it once per marginal size) first takes a
face step (facial reduction; the local-Hamiltonian uniqueness argument of Chen
et al. 2013).  The support projectors ``Pi_S`` of the marginals give
``H = sum_S (I - Pi_S) (x) I >= 0``, which every compatible state annihilates,
so all of them live on ``ker H``.  One routine (:func:`_face_verdict`) decides
a proper face for both maps, the dense marginal map of a pure state and the
Dicke-basis reduction of the symmetric probe: a one-dimensional face, or a map
injective on the face's ``r x r`` operators (one SVD rank), certifies
determination with no solve; an input positive definite on the face has an
exact second compatible state (a pure target, of rank one, never has); otherwise
the program runs on the ``r x r`` face, pinned by the map's rows at ``V`` = the
face.  The whole space is the trivial face, reached exactly when every marginal
has full rank: then no ``2^n x 2^n`` H is built, and the same program runs at
``V = I`` (route ``full_program``).  One :class:`DeterminationResult` records
the route, the face and the solve.  The probe's UNIQUE verdict is a rank
certificate.

Both are solved by the same first-order operator-splitting loop: alternate
a projection onto the affine constraints against a projection onto the
semidefinite cones (batched eigenvalue clipping), with over-relaxation 1.5.
One iteration is one closed-form affine step, one batched ``eigh`` of the PSD
blocks and a few passes over the iterate: the cone input is built in place in
the buffer of the scaled dual, which the dual update then reuses, and ``eigh``
reads only the lower triangle of a stack that is Hermitian by construction, so
nothing is symmetrised.  ``oracle.admm_reference`` keeps the unfused loop as
the reference for these iterates.
The penalty adapts by residual balancing (Boyd et al. 2011, sec. 3.4.1, in
the normalised form of OSQP's adaptive rho): every 25 iterations it moves
towards the point where the normalised primal and dual residuals agree, when
that move exceeds a factor 5.  No single fixed penalty suits every input.
The determination, refit and generic programs also run safeguarded type-II
Anderson acceleration (Zhang, O'Donoghue & Boyd 2020) of the loop's fixed
point in the cone input ``v = z + u`` (:class:`_Anderson`): up to
``ANDERSON_MEMORY`` difference pairs, one extrapolation on every other
iteration (``ANDERSON_EVERY``) off the penalty iterations, kept only if its
residual at the next iteration does not grow, and the memory cleared at every
penalty change.  Every other iteration is the most often this can extrapolate:
the safeguard and the stop test read the plain step after an extrapolated
point.  The witness program runs the plain loop, whose iterates
``admm_reference`` keeps.
Every program iterates on a stack of complex matrices and takes one of two
closed-form affine steps.  The decomposition step (:func:`_decomposition`)
projects every pair ``(P_i, Q_i)`` of the stack ``(P_1..P_m, Q_1..Q_m)`` onto
``P_i + Q_i^(T_i) = W`` through one partial-transpose gather built once per call.
The certificate refit takes it with W fixed.  The witness program takes it on the
same stack, with no W block: its W is the mean of the sums ``P_i + Q_i^(T_i)``
projected onto the span of the local operators, with its trace fixed to 1.  The
pinned-row step (:func:`_pinned_step`) is
``X - span^dag (span vec X - pinned)`` for orthonormal rows ``span``: a basis
of the local operators (whole-space determination), of a face's constraint
rows, or of the Hermitian functionals that the generic :func:`solve_sdp` reads
once from its svec-packed rows.  No iterate is packed with svec.  A solve that
stops short of OPTIMAL raises through one helper (:func:`_optimal`).
Iterations are deterministic; no external solver is used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import qcore
from .errors import EdlkitError
from .hypergraph import SubsetCollection, all_k_subsets
from .symmetric import SymmetricCoeffs, _reduce_coeff_matrix

MAX_SDP_QUBITS = 5
DEFAULT_TOL = 1e-7
MAX_ITER = 50000
RELAX = 1.5
ADAPT_EVERY = 25
SIGMA_START, SIGMA_MIN, SIGMA_MAX = 1.0, 1e-6, 1e6
SIGMA_STEP = 5.0
ANDERSON_MEMORY, ANDERSON_EVERY = 10, 2
FACE_CUT = 1e-9


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

    ``x`` is the concatenation of the svec of every block, and every block has
    one size.  ``objective`` entries may be None (no cost on that block).
    """

    blocks: list
    objective: list
    rows: np.ndarray
    rhs: np.ndarray


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
    """Project every matrix of a Hermitian ``(k, d, d)`` stack onto the PSD cone, into a
    new array.  ``eigh`` reads only the lower triangle, so a stack that is Hermitian
    up to rounding needs no symmetrising first."""
    w, q = np.linalg.eigh(stack)
    return q * np.maximum(w, 0.0)[:, None, :] @ q.conj().transpose(0, 2, 1)


def _sqnorm(a):
    return np.vdot(a, a).real


class _Anderson:
    """Safeguarded type-II Anderson acceleration (Zhang, O'Donoghue & Boyd 2020) of the
    loop's fixed point ``v = T(v)``, ``v`` the cone input and ``g = v - T(v)`` its residual.

    :meth:`next_input` takes each point with its residual and returns the next cone
    input: the plain step ``v - g``, or when asked to extrapolate,
    ``v - g - (dV - dG) gamma`` over the stored difference pairs ``(dV, dG)`` of
    consecutive points, ``gamma`` the real least-squares fit of ``g`` by ``dG``.  An
    extrapolated point is kept only if its residual is no larger than that of the point
    it came from; otherwise that point's plain step is taken and the pairs are dropped.
    ``memory`` slots hold the pairs and the previous point, which takes the oldest
    pair's slot once all are full: at most ``2 memory`` iterate-sized arrays, and
    ``memory`` pairs at each extrapolation."""

    def __init__(self, memory, like):
        self.dv = np.empty((memory, like.size), like.dtype)
        self.dg = np.empty_like(self.dv)
        self.clear()

    def clear(self):
        """Drop every pair and the previous point (the fixed-point map changed)."""
        self.last = None  # slot of the previous point; the pairs fill the slots before it
        self.pairs = 0
        self.ref2 = None  # |g|^2 at the point the pending extrapolation came from

    def next_input(self, v, g, extrapolate):
        """The cone input after point ``v`` with residual ``g``, and whether it is the
        plain step from ``v``."""
        ref2, self.ref2 = self.ref2, None
        if ref2 is not None and _sqnorm(g) > ref2:
            self.pairs = 0
            return (self.dv[self.last] - self.dg[self.last]).reshape(v.shape), False
        memory = len(self.dv)
        flat_v, flat_g = v.reshape(-1), g.reshape(-1)
        if self.last is not None:
            np.subtract(flat_v, self.dv[self.last], out=self.dv[self.last])
            np.subtract(flat_g, self.dg[self.last], out=self.dg[self.last])
            self.pairs += 1
        step = v - g
        plain = not (extrapolate and self.pairs)
        if not plain:
            rows = slice(None) if self.pairs == memory else [
                (self.last - j) % memory for j in range(self.pairs)]
            dv, dg = self.dv[rows], self.dg[rows]
            # real coefficients: Re <a, b> of complex arrays is the dot of their float views
            dg_real = dg.view(np.float64)
            # the k x k normal equations by eigh, cut like lstsq's default rcond; the loop
            # runs eigh already, and a first lstsq call adds about 1 MB of resident memory
            w, q = np.linalg.eigh(dg_real @ dg_real.T)
            keep = w > len(w) * np.finfo(float).eps * w[-1]
            gamma = q[:, keep] @ (q[:, keep].T @ (dg_real @ flat_g.view(np.float64)) / w[keep])
            step -= (gamma @ dv - gamma @ dg).reshape(v.shape)
            self.ref2 = _sqnorm(g)
        self.last = 0 if self.last is None else (self.last + 1) % memory
        if self.pairs == memory:
            self.pairs -= 1
        self.dv[self.last] = flat_v
        self.dg[self.last] = flat_g
        return step, plain


def _admm(c, project_affine, project_cone, tol, max_iter, memory=0):
    """Shared over-relaxed splitting loop on iterates shaped like ``c``; returns
    (x, z, status, res_p, res_d, iters, sigma).  Norms of a Hermitian stack equal svec norms.
    The stop test compares squared norms; square roots are taken only for the
    stall window and the reported residuals.

    The penalty ``sigma`` starts at ``SIGMA_START``.  Every ``ADAPT_EVERY`` iterations
    it is balanced against the normalised residuals ``pn = |x - z| / max(|x|, |z|)``
    and ``dn = |sigma dz| / max(|sigma u|, |c|)``: the proposal
    ``sigma sqrt(pn / dn)``, clamped to ``[SIGMA_MIN, SIGMA_MAX]``, is taken
    only when it moves sigma by more than a factor ``SIGMA_STEP``; the scaled
    dual ``u`` is then rescaled by ``sigma_old / sigma_new`` and ``shift``
    recomputed.  Both projections are Euclidean, so neither depends on sigma.
    The final penalty is returned.  ``project_cone`` must return a new array and leave
    its argument untouched.  BAD_TOL unless ``tol`` is finite and at least 0.

    ``memory > 0`` accelerates the fixed point of the cone input ``v = z + u``,
    ``T(v) = v + RELAX (P_A(2 P_C(v) - v - c / sigma) - P_C(v))`` with residual
    ``RELAX (z - x)``, by :class:`_Anderson` with that many pairs.  It extrapolates on
    the iterations divisible by ``ANDERSON_EVERY`` (2, every other one) except a penalty
    iteration, and its safeguard runs at the next iteration, before the penalty rule; a
    penalty change clears it.  The stop test, the stall window and the penalty rule read
    only plain steps, whose ``x`` and ``z`` come from one point: the step after a kept
    extrapolation is one, the older point's step after a rejected one is not.
    ``memory = 0`` runs the plain loop."""
    qcore._check_tol(tol)
    x = np.zeros_like(c)
    z = np.zeros_like(c)
    u = np.zeros_like(c)
    accel = _Anderson(memory, c) if memory else None
    sigma = SIGMA_START
    shift = c / sigma
    c2 = _sqnorm(c)
    tol2 = tol * tol
    stall_window = []
    status = "MAX_ITER"
    rp2 = rd2 = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        x = project_affine(z - u - shift)
        plain = True
        if accel is None:
            # the cone input v = RELAX x + (1 - RELAX) z + u, built in the buffer of u;
            # the dual update u + (RELAX x + (1 - RELAX) z - z_new) is then v - z_new
            u += RELAX * x
            u += (1.0 - RELAX) * z
        else:
            g = z - x
            g *= RELAX
            u, plain = accel.next_input(z + u, g, it % ANDERSON_EVERY == 0 and it % ADAPT_EVERY != 0)
        z_new = project_cone(u)
        u -= z_new
        rp2 = _sqnorm(x - z_new)
        rd2 = sigma * sigma * _sqnorm(z_new - z)
        z = z_new
        if not plain:
            continue
        x2, z2 = _sqnorm(x), _sqnorm(z)
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
            # (pn / dn)^2 as one quotient of squared norms
            num = rp2 * max(sigma * sigma * _sqnorm(u), c2)
            den = rd2 * max(x2, z2)
            if num > 0.0 and den > 0.0:
                proposal = min(max(sigma * math.sqrt(math.sqrt(num / den)), SIGMA_MIN), SIGMA_MAX)
                if not sigma / SIGMA_STEP <= proposal <= sigma * SIGMA_STEP:
                    u *= sigma / proposal
                    sigma = proposal
                    shift = c / sigma
                    if accel is not None:
                        accel.clear()
    return x, z, status, math.sqrt(rp2), math.sqrt(rd2), it, sigma


def _optimal(out, what, stall="SOLVER_FAIL"):
    """The output of :func:`_admm` if it stopped OPTIMAL.  Otherwise raise MAX_ITER at
    the iteration cap and ``stall`` when the stall window stopped it (INFEASIBLE)."""
    _x, _z, status, res_p, res_d, iters, _sigma = out
    if status != "OPTIMAL":
        raise EdlkitError("MAX_ITER" if status == "MAX_ITER" else stall,
                          "%s did not converge (%s, primal %.2e, dual %.2e, %d iters)"
                          % (what, status, res_p, res_d, iters))
    return out


def _pinned_step(span, pinned):
    """The affine step onto ``span @ vec X = pinned`` for orthonormal rows ``span``:
    ``X - span^dag (span vec X - pinned)``, on an iterate of any shape, with
    ``span^dag`` formed once."""
    span_h = np.ascontiguousarray(span.conj().T)
    return lambda v: v - (span_h @ (span @ v.ravel() - pinned)).reshape(v.shape)


def _solve_pinned(c, span, anchor, what, tol, max_iter):
    """Minimize ``<c, X>`` over PSD ``X`` (shape ``(1, d, d)``) with ``span @ vec X`` equal
    to ``span @ anchor``, ``span`` orthonormal rows (:func:`_pinned_step`).  Returns a
    DeterminationResult on the full route of this ``d x d`` program."""
    x, _z, status, res_p, res_d, iters, sigma = _optimal(_admm(
        c, _pinned_step(span, span @ anchor), _clip_psd, tol, max_iter, memory=ANDERSON_MEMORY),
        what)
    return DeterminationResult(float(np.vdot(c, x).real), status, x[0], iters, res_p, res_d, sigma,
                               "full_program", c.shape[-1], None)


def solve_sdp(problem, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Solve an :class:`SdpProblem` with the operator-splitting loop.

    The iterate is the ``(B, d, d)`` stack of the blocks.  Each svec row is read
    once as a Hermitian functional on that stack (``smat`` of the unit vectors),
    and one SVD of the functionals gives the pinned-row affine step
    (:func:`_pinned_step`) and the consistency test: an inconsistent linear
    system reports INFEASIBLE with 0 iterations.  The cone step clips the PSD
    blocks.  DIM_MISMATCH unless every block has one size and the rows fit the
    blocks.  Raises nothing on nonconvergence: inspect ``status`` on the returned
    solution.
    """
    sizes = {bl.dim for bl in problem.blocks}
    if len(sizes) != 1:
        raise EdlkitError("DIM_MISMATCH", "blocks must share one size, got sizes %r" % (sorted(sizes),))
    d, nb = sizes.pop(), len(problem.blocks)
    A = np.asarray(problem.rows, dtype=float)
    b = np.asarray(problem.rhs, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0] or A.shape[1] != nb * d * d:
        raise EdlkitError("DIM_MISMATCH", "constraint matrix shape %r mismatch" % (A.shape,))
    units = np.array([smat(e, d).ravel() for e in np.eye(d * d)])
    # svec is an isometry, so row j applied to the svec of the blocks is
    # sum_b Tr(F_jb X_b) = vdot(F_j, X) with F_jb = smat(A_jb), Hermitian
    u, s, wh = np.linalg.svd((A.reshape(len(A), nb, d * d) @ units.conj()).reshape(len(A), -1),
                             full_matrices=False)
    rank = int(np.sum(s > max(1.0, s[0] if s.size else 1.0) * 1e-12))
    ub = u[:, :rank].conj().T @ b
    lin_res = float(np.linalg.norm(u[:, :rank] @ ub - b))
    if lin_res > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        zeros = np.zeros((nb, d, d), dtype=complex)
        return SdpSolution("INFEASIBLE", float("nan"), list(zeros), list(zeros.copy()), lin_res, 0.0, 0)
    psd = [i for i, bl in enumerate(problem.blocks) if bl.cone == "psd"]

    def project_cone(v):
        out = v.copy()
        out[psd] = _clip_psd(v[psd])
        return out

    c = np.array([np.zeros((d, d)) if obj is None else obj for obj in problem.objective], dtype=complex)
    c = (c + c.conj().transpose(0, 2, 1)) / 2.0
    x, z, status, res_p, res_d, iters, _sigma = _admm(
        c, _pinned_step(wh[:rank], ub / s[:rank]), project_cone, tol, max_iter, memory=ANDERSON_MEMORY)
    return SdpSolution(status, float(np.vdot(c, x).real), list(x), list(z), res_p, res_d, iters)


# ---------------------------------------------------------------------------
# The marginal map
# ---------------------------------------------------------------------------

def _collection_of(n, subsets):
    if isinstance(subsets, SubsetCollection):
        coll = subsets
    else:
        coll = SubsetCollection(n, tuple(qcore._subset_mask(n, s) for s in subsets))
    if coll.n != n:
        raise EdlkitError("DIM_MISMATCH", "collection over n=%d, state over n=%d" % (coll.n, n))
    if len(coll) == 0:
        raise EdlkitError("EMPTY_SUBSET", "need at least one marginal subset")
    return coll


def _marginal_rows(v, coll):
    """Rows of the marginal map ``X -> (Tr_(not S) V X V^dag)_S`` on row-major vec X
    (``X`` is ``r x r``), one ``4^|S| x r^2`` block per subset in ``coll.edges`` order."""
    r = v.shape[1]
    blocks = []
    for mask in coll.edges:
        a = qcore._split(v, coll.n, mask)
        blocks.append(np.einsum("aci,bcj->abij", a, a.conj()).reshape(-1, r * r))
    return np.vstack(blocks)


# the one-particle factors I/sqrt 2, E01, E10 and (E00 - E11)/sqrt 2 of the locality
# basis, as a C-contiguous (2, 2, 4) table: entry, then factor
_LOCAL_UNITS = np.ascontiguousarray(np.array(
    [np.eye(2) / math.sqrt(2.0), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
     np.diag([1.0, -1.0]) / math.sqrt(2.0)]).transpose(1, 2, 0))


def _locality_span(n, coll):
    """Orthonormal rows spanning the operators ``sum_S H^S (x) I`` of ``coll``: the row
    space of the marginal map at ``V = I``, in closed form.  Each row is a product over
    the particles (particle 1 the most significant factor, as in ``qcore._axes``) of
    ``I/sqrt 2`` off a support T and one of ``E01``, ``E10``, ``(E00 - E11)/sqrt 2`` on
    T, for every T inside some subset of ``coll`` (the empty one included): the factors
    are orthonormal, so the ``sum_T 3^|T|`` products are too, and those on T span the
    operators with support exactly T.  The rows are real, stored complex so that the
    loop applies them without a cast."""
    # every choice of factor per particle (column j is particle j + 1, on bit j of a
    # mask), kept when the particles off the identity fit inside some subset
    choice = np.indices((4,) * n).reshape(n, -1).T
    support = (choice > 0) @ (1 << np.arange(n))
    choice = choice[(support[:, None] & ~np.array(coll.edges) == 0).any(axis=1)]
    # the rows run along the last, contiguous axis (take keeps it so, where fancy
    # indexing would not), so that every product runs one long inner loop
    rows = _LOCAL_UNITS.take(choice[:, 0], axis=2)
    for j in range(1, n):
        factor = _LOCAL_UNITS.take(choice[:, j], axis=2)
        rows = (rows[:, None, :, None] * factor[:, None]).reshape(2 << j, 2 << j, -1)
    return rows.reshape(-1, len(choice)).T.astype(complex, order="C")


def _bipartition_masks(n):
    full = (1 << n) - 1
    return [m for m in range(1, full) if m & 1]


def _pt_permutation(n, mask):
    """Flat index permutation implementing the partial transpose on ``mask``: the axis
    order ``qcore._pt_axes`` applied to the flat indices."""
    d = 1 << n
    return np.arange(d * d).reshape((2,) * (2 * n)).transpose(qcore._pt_axes(n, mask)).ravel()


def _decomposition(n, consensus):
    """``(masks, pt, step)`` for the m bipartitions of n qubits (particle 1 inside).

    ``pt(blocks)`` partially transposes block i of an ``(m, d, d)`` stack on
    ``masks[i]``, one gather built once from :func:`_pt_permutation`.  ``step(v)`` is
    the projection of the stack ``v = (P_1..P_m, Q_1..Q_m)`` onto
    ``P_i + Q_i^(T_i) = W`` for every i, with ``W = consensus(ks)`` read from the sums
    ``ks = p + pt(q)``: partial transpose is an orthogonal involution, so with
    ``r = (W - P_i - Q_i^(T_i)) / 2`` it is ``P_i + r`` and ``Q_i + r^(T_i)``.  A
    fixed W is the certificate refit's step; the projection of ``mean_i ks_i`` onto an
    affine set of W makes it the projection onto {every sum one W of that set}, since
    ``sum_i |W - ks_i|^2`` is ``m |W - mean_i ks_i|^2`` plus a constant."""
    d = 1 << n
    masks = _bipartition_masks(n)
    m = len(masks)
    index = np.array([_pt_permutation(n, mask) + i * d * d for i, mask in enumerate(masks)])

    def pt(blocks):
        return blocks.ravel()[index].reshape(m, d, d)

    def step(v):
        p, q = v[:m], v[m:]
        ks = p + pt(q)
        out = np.empty_like(v)
        np.subtract(consensus(ks), ks, out=out[:m])  # r, then P + r in place
        out[:m] *= 0.5
        np.add(q, pt(out[:m]), out=out[m:])
        out[:m] += p
        return out

    return masks, pt, step


def expand_operator(n, labels, h):
    """Embed an operator on the qubits ``labels`` (1-based labels or a ``Subset``) into
    n qubits, its tensor factors in ascending label order (``qcore._embed``).
    DIM_MISMATCH unless ``n`` is a positive integer, TOO_LARGE past
    ``qcore.MAX_QUBITS``, BAD_VERTEX unless every label is an integer in 1..n, and
    DIM_MISMATCH on a repeated label or a block of the wrong shape."""
    qcore._check_n(n)
    mask = qcore._subset_mask(n, labels)
    k = mask.bit_count()
    h = np.asarray(h, dtype=complex)
    if h.shape != (1 << k, 1 << k):
        raise EdlkitError("DIM_MISMATCH", "block shape %r does not match %d qubits" % (h.shape, k))
    return qcore._embed(n, mask, h)


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
            out += expand_operator(self.n, subset, h)  # checks the shape of each block
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
    failure list and, when ``rho`` is given, the witness value.  BAD_TOL unless
    every tolerance is finite and at least 0.
    """
    for tol in (recon_tol, trace_tol, psd_tol):
        qcore._check_tol(tol)
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


def _check_bipartitions(n):
    """DIM_MISMATCH below two qubits, where a state has no bipartition; else the size cap."""
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    _check_sdp_size(n)


def fully_decomposable_alpha(rho, subsets, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Minimum witness value over unit-trace fully decomposable witnesses
    built from the marginals in ``subsets``.

    Returns ``(alpha, witness)``.  The iterate is the stack ``(P_1..P_m,
    Q_1..Q_m)`` of the certificate refit, with no W block: the affine step is the
    decomposition step (:func:`_decomposition`) onto one W, the mean of the sums
    ``P_i + Q_i^(T_i)`` projected onto the span of the local operators with its
    trace fixed to 1.  The cost is ``rho / m`` on every ``P_i`` and
    ``rho^(T_i) / m`` on every ``Q_i``, which is ``Tr(rho W)`` on the affine set, as
    partial transpose is an orthogonal involution.  W is read from the affine
    iterate and the certificates from the cone iterate.  DIM_MISMATCH below two
    qubits, where there is no bipartition.
    """
    mat, n = qcore._as_matrix(rho)
    _check_bipartitions(n)
    coll = _collection_of(n, subsets)
    d = 1 << n
    span = _locality_span(n, coll)
    span_h = np.ascontiguousarray(span.conj().T)

    def local_unit_trace(ks):
        w = (span_h @ (span @ ks.sum(axis=0).ravel())).reshape(d, d) / len(ks)
        diag = w.reshape(-1)[::d + 1]
        diag += (1.0 - diag.sum().real) / d
        return w

    masks, pt, step = _decomposition(n, local_unit_trace)
    m = len(masks)
    cost = np.broadcast_to((mat + mat.conj().T) / (2.0 * m), (m, d, d)).astype(complex)
    c = np.concatenate([cost, pt(cost)])
    x, z = _optimal(_admm(c, step, _clip_psd, tol, max_iter), "witness program")[:2]
    w = x[0] + pt(x[m:])[0]
    alpha = float(np.trace(w @ mat).real)
    certificates = [(qcore.Subset(n, mask), p, q) for mask, p, q in zip(masks, z[:m], z[m:])]
    return alpha, Witness(n, coll, alpha, _split_blocks(n, coll, w), certificates)


def _split_blocks(n, coll, w):
    """Blocks ``(S, H^S)`` with ``w = sum_S H^S (x) I``.  Walking ``coll.edges`` in order,
    ``H^S = Tr_(not S)(R) / 2^(n-|S|)`` of the remainder ``R`` (at first the Hermitian
    part of ``w``), and then ``R -= H^S (x) I``: every term of ``w`` is charged to the
    first subset that holds its support."""
    rest = (w + w.conj().T) / 2.0
    blocks = []
    for mask in coll.edges:
        subset = qcore.Subset(n, mask)
        h = qcore.partial_trace(rest, subset) / (1 << (n - subset.size))
        rest = rest - qcore._embed(n, mask, h)
        blocks.append((subset, h))
    return blocks


def noise_threshold(alpha, n):
    """White-noise robustness: ``(1-p) rho + p I/2^n`` stays detected for
    ``p < 2^n alpha / (2^n alpha - 1)``.
    """
    if not alpha < 0:
        raise EdlkitError("NOT_NEGATIVE", "noise threshold needs a negative witness value")
    scale = (1 << n) * alpha
    return float(scale / (scale - 1.0))


def negative_by_margin(alpha, tol=DEFAULT_TOL):
    """Whether a witness value solved to ``tol`` counts as negative: ``alpha < -10 tol``.

    A separable state has true value 0 or more, yet its solve to tolerance
    ``tol`` can land a little below 0, so a plain sign test is not enough.
    NaN is never negative.  BAD_TOL unless ``tol`` is finite and at least 0.
    """
    qcore._check_tol(tol)
    return alpha < -10.0 * tol


def determined_by_margin(alpha, tol=DEFAULT_TOL):
    """Whether a minimum fidelity solved to ``tol`` counts as determined:
    ``alpha >= 1 - 100 tol``.  NaN is never determined.  BAD_TOL unless ``tol`` is
    finite and at least 0."""
    qcore._check_tol(tol)
    return alpha >= 1.0 - 100.0 * tol


def edl_upper_bound(rho, tol=DEFAULT_TOL):
    """Smallest k whose witness program already certifies entanglement.

    Returns ``(k, alpha, witness)`` or ``(None, last_alpha, None)`` when no
    level is conclusive (the margin of :func:`negative_by_margin`).
    DIM_MISMATCH below two qubits, where there is no level to test.
    """
    mat, n = qcore._as_matrix(rho)
    _check_bipartitions(n)
    for k in range(2, n + 1):
        alpha, witness = fully_decomposable_alpha(mat, all_k_subsets(n, k), tol=tol)
        if negative_by_margin(alpha, tol):
            return k, alpha, witness
    return None, alpha, None


def refit_certificates(witness, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Recompute the per-bipartition decompositions of a witness from its W.

    One feasibility program finds PSD ``P_i, Q_i`` with ``P_i + Q_i^(T_i) = W`` for
    every bipartition i at once: the witness program's decomposition step
    (:func:`_decomposition`) with W fixed, on the stack ``(P_1..P_m, Q_1..Q_m)``.
    Returns a new witness with fresh certificates; INFEASIBLE when the loop
    stalls (no decomposition), MAX_ITER at the iteration cap; DIM_MISMATCH
    below two qubits.
    """
    n = witness.n
    _check_bipartitions(n)
    w = witness.assemble()
    w = (w + w.conj().T) / 2.0
    d = 1 << n
    masks, _pt, step = _decomposition(n, lambda ks: w)
    m = len(masks)
    z = _optimal(_admm(np.zeros((2 * m, d, d), dtype=complex), step, _clip_psd,
                       tol, max_iter, memory=ANDERSON_MEMORY), "decomposition program", "INFEASIBLE")[1]
    certificates = [(qcore.Subset(n, mask), p, q) for mask, p, q in zip(masks, z[:m], z[m:])]
    return Witness(witness.n, witness.collection, witness.alpha, witness.blocks, certificates)


# ---------------------------------------------------------------------------
# Pure-state determination program
# ---------------------------------------------------------------------------

@dataclass
class DeterminationResult:
    """One level of the determination question (:func:`pure_determination_alpha`)."""

    alpha: float          # minimum fidelity, or its certified bound 1 - <psi|H|psi>/g
    status: str
    rho: np.ndarray       # a minimizing compatible state; |psi><psi| when no solve ran
    iterations: int       # ADMM iterations, 0 when no solve ran
    primal_residual: float
    dual_residual: float
    penalty: float | None  # the ADMM penalty sigma the solve ended with; None when no solve ran
    route: str            # "face_rank1", "face_injective", "face_program" or "full_program"
    face_dim: int         # r = dim ker H
    gap: float | None     # smallest eigenvalue of H above 0; None on a full face


def _kernel_face(h):
    """Orthonormal basis of ``ker h`` (eigenvalues at most ``FACE_CUT``) and the
    smallest eigenvalue above the cut (None when ``h`` vanishes)."""
    w, q = np.linalg.eigh(h)
    null = w <= FACE_CUT
    return q[:, null], (float(w[~null][0]) if not null.all() else None)


def _face_hamiltonian(psi, coll):
    """``H = sum_S (I - Pi_S) (x) I`` over the subsets of ``coll``, ``Pi_S`` the support
    projector of psi's marginal on S (eigenvalues above ``FACE_CUT``).  ``H >= 0`` is local, so every state with
    psi's marginals has ``Tr(H rho) = <psi|H|psi> = 0`` and lives on ``ker H``.  Only a
    rank-deficient marginal adds a term; None when every marginal has full rank, so
    that ``H = 0`` and the face is the whole space."""
    n = psi.n
    terms = []
    for mask in coll.edges:
        schmidt = qcore._split(psi.amplitudes, n, mask)
        null = _kernel_face(schmidt @ schmidt.conj().T)[0]
        if null.shape[1]:
            terms.append(qcore._embed(n, mask, null @ null.conj().T))
    return sum(terms) if terms else None


def _face_verdict(v, x0, rows_of):
    """Decide the face with orthonormal columns ``v`` for an input that reads ``x0`` on
    it (``r x r``).  ``rows_of(v)`` gives the rows of the trace-preserving marginal map
    on row-major vec X of the face's ``r x r`` operators.  Returns
    ``(verdict, sigma, span)``:

    - ``("UNIQUE", None, None)`` when the map is injective (rank ``r^2`` at
      ``FACE_CUT``), with no SVD on a line (``r == 1``);
    - ``("NONUNIQUE", sigma, None)`` when ``x0`` is positive definite:
      ``sigma = v (x0 + t D) v^dag`` is an exact compatible state, ``D`` a Hermitian
      kernel direction and ``t = lambda_min(x0) / |D|``;
    - ``(None, None, span)`` otherwise, ``span`` the orthonormal rows of the map
      (singular values above ``1e-12`` of the largest) that pin the program on the
      face (:func:`_solve_pinned`).

    The SVD is complete when there are fewer rows than columns, so that the right
    singular vectors past the rank span the kernel."""
    r = v.shape[1]
    if r == 1:
        return "UNIQUE", None, None
    rows = rows_of(v)
    _u, s, wh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    rank = int(np.sum(s > FACE_CUT * s[0]))
    if rank == r * r:
        return "UNIQUE", None, None
    lam = float(np.linalg.eigvalsh(x0)[0])
    if lam > FACE_CUT:
        g = wh[rank].conj().reshape(r, r)
        herm, anti = g + g.conj().T, 1j * (g - g.conj().T)
        direction = herm if np.linalg.norm(herm) >= np.linalg.norm(anti) else anti
        step = lam / np.linalg.norm(direction, 2)
        return "NONUNIQUE", v @ (x0 + step * direction) @ v.conj().T, None
    return None, None, wh[:int(np.sum(s > 1e-12 * s[0]))]


def pure_determination_alpha(psi, subsets, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Minimum fidelity with ``psi`` over states sharing its marginals on ``subsets``.

    Value 1 means those marginals determine the state.  The question is
    decided on the face ``ker H`` of :func:`_face_hamiltonian`, which holds
    every state sharing psi's marginals.  :func:`_face_verdict` decides a proper
    face: if it is ``span{psi}`` (route ``face_rank1``) or the marginal map is
    injective on its ``r x r`` operators (``face_injective``), the marginals
    determine psi with no solve and ``alpha = 1 - <psi|H|psi>/g``: the spectral
    gap ``g`` of H bounds the weight a compatible state can put off the face by
    ``<psi|H|psi>/g``.  Otherwise the minimum fidelity is solved on the face,
    pinned by the routine's rows (``face_program``), and by the locality rows on
    the whole space when every marginal has full rank, so that the whole space is
    the face (``full_program``, ``face_dim = 2^n`` and no gap); the minimizer is
    returned as ``rho``, a different compatible state when the value drops below 1.
    BAD_TOL unless ``tol`` is finite and at least 0, also when no solve runs.
    """
    qcore._check_tol(tol)
    if not isinstance(psi, qcore.PureVector):
        raise EdlkitError("DIM_MISMATCH", "expected a PureVector")
    n = psi.n
    _check_sdp_size(n)
    coll = _collection_of(n, subsets)
    h = _face_hamiltonian(psi, coll)
    amp = psi.amplitudes
    if h is None:
        # the whole space is the trivial face, with no gap to certify by; at V = I the
        # marginal map has the row space of the witness program's locality
        target = np.outer(amp, amp.conj())[None]
        return _solve_pinned(target, _locality_span(n, coll), target.ravel(),
                             "determination program", tol, max_iter)  # route full_program
    face, gap = _kernel_face(h)
    r = face.shape[1]
    x0 = face.conj().T @ amp
    target = np.outer(x0, x0.conj())[None]
    # a rank-one target is not positive definite on a face of dimension 2 or more, so
    # the face is UNIQUE or left to the program
    verdict, _sigma, span = _face_verdict(face, target[0], lambda v: _marginal_rows(v, coll))
    if verdict == "UNIQUE":
        return DeterminationResult(1.0 - float(np.vdot(amp, h @ amp).real) / gap, "OPTIMAL",
                                   psi.to_density().matrix, 0, 0.0, 0.0, None,
                                   "face_rank1" if r == 1 else "face_injective", r, gap)
    res = _solve_pinned(target, span, target.ravel(), "determination program", tol, max_iter)
    return replace(res, rho=face @ res.rho @ face.conj().T, route="face_program", gap=gap)


def determination_levels(psi, tol=DEFAULT_TOL):
    """Determination length of a pure state with the record of every scanned level.

    Returns ``(value, levels)``, ``levels`` mapping each scanned k to the
    :class:`DeterminationResult` of :func:`pure_determination_alpha` on all
    k-subsets.  The scan stops at the first level that :func:`determined_by_margin`
    accepts.  BAD_TOL unless ``tol`` is finite and at least 0.
    """
    qcore._check_tol(tol)
    if not isinstance(psi, qcore.PureVector):
        raise EdlkitError("DIM_MISMATCH", "expected a PureVector")
    levels = {}
    for k in range(1, psi.n + 1):
        levels[k] = pure_determination_alpha(psi, all_k_subsets(psi.n, k), tol)
        if determined_by_margin(levels[k].alpha, tol):
            return k, levels
    return psi.n, levels


def sdl_pure(psi, tol=DEFAULT_TOL):
    """Determination length of a pure state by scanning the marginal size.

    Returns ``(value, alphas)`` where alphas records the minimum fidelity (or
    its certified bound) at each size; see :func:`determination_levels` for
    the face step that decides each level and the routes it takes.
    """
    value, levels = determination_levels(psi, tol)
    return value, {k: level.alpha for k, level in levels.items()}


# ---------------------------------------------------------------------------
# Symmetric-subspace determination probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    verdict: str          # "UNIQUE" or "NONUNIQUE"
    max_deviation: float  # Frobenius distance of the witness from the input; 0 for UNIQUE by rank
    witness_coeffs: np.ndarray | None
    face_dim: int         # dimension of the face the verdict was decided on

    def __bool__(self):
        return self.verdict == "UNIQUE"


@functools.lru_cache(maxsize=64)
def _reduction_table(n, k):
    """Read-only ``((n+1)^2, (k+1)^2)`` table of the level-k reduction ``R_k``: row
    ``(n+1) i + j`` is ``R_k(|D_n^i><D_n^j|)``, the Pascal walk of
    ``symmetric._reduce_coeff_matrix`` on the stack of matrix units."""
    dd = n + 1
    table = _reduce_coeff_matrix(n, k, np.eye(dd * dd).reshape(-1, dd, dd)).reshape(dd * dd, -1)
    table.flags.writeable = False
    return table


def symmetric_sdl_probe(coeffs, k, tol=DEFAULT_TOL):
    """Whether the level-k marginals pin a symmetric state within the symmetric family.

    Every compatible coefficient matrix lives on the face ``ker H``,
    ``H = R_k^*(I - Pi_k)`` with ``R_k`` the level-k reduction and ``Pi_k`` the
    support projector of the input's reduction.  :func:`_face_verdict` decides
    that face of dimension r for the map (trace, ``R_k``), the same routine as
    pure-state determination:

    - the map injective on ``r x r`` operators: UNIQUE, a certificate by one
      rank;
    - otherwise, input ``X0`` positive definite on the face: NONUNIQUE with
      the exact witness ``X0 + t D``, ``D`` a Hermitian kernel direction and
      ``t = lambda_min(X0) / |D|``;
    - otherwise one small program maximises ``Tr((I - Pi_X0) X)`` over the
      compatible X: a value above ``100 tol`` is NONUNIQUE with the maximiser
      as witness, else every compatible X lives on ``range(X0)`` and the routine
      decides that face, on which ``X0`` is positive definite.

    BAD_TOL unless ``tol`` is finite and at least 0, also when no solve runs.
    """
    qcore._check_tol(tol)
    if not isinstance(coeffs, SymmetricCoeffs):
        raise EdlkitError("DIM_MISMATCH", "expected SymmetricCoeffs")
    n = coeffs.n
    if not qcore._is_integer(k) or not 1 <= k <= n:  # before the cache keyed by k
        raise EdlkitError("BAD_LEVEL", "marginal size %r outside 1..%d" % (k, n))
    a = coeffs.a
    table = _reduction_table(n, k)
    null = _kernel_face(_reduce_coeff_matrix(n, k, a))[0]
    # R_k(X) = vec X @ table, so Tr(Y R_k(X)) = Tr(R_k^*(Y) X) with R_k^*(Y) below
    slack = null @ null.conj().T
    face = _kernel_face((table @ slack.conj().ravel()).reshape(n + 1, n + 1).T)[0]

    def rows_of(v):
        # the trace and R_k on row-major vec X of the r x r operators X -> v X v^dag
        return np.vstack([np.eye(v.shape[1]).ravel(), table.T @ np.kron(v, v.conj())])

    x0 = face.conj().T @ a @ face
    verdict, sigma, span = _face_verdict(face, x0, rows_of)
    if verdict is None:
        lam, vecs = np.linalg.eigh(x0)
        inside = lam > FACE_CUT
        outside = vecs[:, ~inside] @ vecs[:, ~inside].conj().T
        res = _solve_pinned(-outside[None], span, x0.ravel(), "probe solve", tol, MAX_ITER)
        if -res.alpha > 100.0 * tol:
            verdict, sigma = "NONUNIQUE", face @ res.rho @ face.conj().T
        else:
            # every compatible X lives on range(X0), where X0 is diagonal and positive definite
            face = face @ vecs[:, inside]
            verdict, sigma, _span = _face_verdict(face, np.diag(lam[inside]).astype(complex), rows_of)
    deviation = 0.0 if sigma is None else float(np.linalg.norm(sigma - a))
    return ProbeResult(verdict, deviation, sigma, face.shape[1])
