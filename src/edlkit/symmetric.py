"""Closed-form detection and determination machinery for symmetric states.

A permutation-invariant n-qubit state is stored by its coefficients in the
Dicke basis: either a full Hermitian coefficient matrix
(:class:`SymmetricCoeffs`) or just the diagonal weights
(:class:`DickeMixture`).  Reductions stay inside the symmetric subspace, so
an n-qubit problem lives in dimension n+1 rather than 2^n, and the partial
transpose of a k-qubit marginal on k // 2 qubits lives in the Dicke product
space Sym^(k//2) (x) Sym^(k - k//2).

Weights may be ``float`` or exact ``fractions.Fraction``/``int`` values.
The support-pattern case analysis used by the determination-length routines
is discontinuous in which weights vanish, so one rule decides which do, once
per mixture (:attr:`DickeMixture.zero_mask`): an exact weight vanishes when
it is 0, a float weight when its modulus is at most ``NONZERO_TOL``.  The
support, the closed forms, the zero pattern of the cone test and the gap
families all read that mask.  ``NONZERO_TOL`` is the module's one zero
threshold, for weights, coherences and validation alike.

Diagonal and coherent states share one coordinate system, the moments
``m_st = a_st / sqrt(C(n, s) C(n, t))`` of the coefficient matrix ``a``; a
diagonal state keeps only the Hankel moments ``p_s = m_ss = lam_s / C(n, s)``.
Tracing out one qubit is Pascal's rule on them, ``m'_st = m_st + m_(s+1)(t+1)``
(``p'_s = p_s + p_{s+1}`` on the diagonal), so every marginal follows from the
moments by additions alone.  The PPT test of a diagonal marginal reads its two
Hankel matrices straight off its moments, and the half-cut partial transpose
of any marginal is one gather from its coefficient matrix.

Exact weights give integer moments ``P_s = D lam_s / C(n, s)`` over one common
denominator ``D > 0``.  The Pascal walk keeps ``D``, and a Hankel matrix is PSD
exactly when its multiple by ``D`` is, so the exact diagonal routes decide
every level by a fraction-free elimination on Python integers; Fractions are
built only for what they return (the weights of :func:`diagonal_marginal`, the
entries of :func:`hankel_pair`), and float eigenvalues only for a reported
level.

Every PPT verdict on a diagonal marginal, the gap families' included, is the
one Hankel rule of :func:`edl_diagonal`: elimination for exact moments, the
smallest eigenvalues against ``-PSD_TOL`` for float ones.  The paper's closed
forms for two and three qubits are references in ``oracle``.

The level-m marginal map of a diagonal state annihilates exactly the weight
vectors orthogonal to every polynomial of degree at most m on the points
0..n, which the divided differences on m+2 of the points span.  So whether
another diagonal state shares the level-m marginals of one with zero weights
Z is a count on Z (:func:`_cone_top`), and the direction of that other state
is one divided difference with integer weights (:func:`_level_direction`):
the cone test of :func:`sdl_diagonal` solves no system.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import qcore
from ._simplex import simplex_max
from .errors import EdlkitError

NONZERO_TOL = 1e-12
PSD_TOL = qcore.PSD_TOL


def _over_common_denominator(values, scales):
    """``(nums, den)``, integers with ``values[i] / scales[i] = nums[i] / den`` for exact
    ``values`` and positive integer ``scales``; ``den`` is the least common multiple of
    the ``scales[i] * values[i].denominator``."""
    dens = [c * v.denominator for v, c in zip(values, scales)]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _is_diagonal(a):
    """Whether no off-diagonal entry of the matrix ``a`` exceeds ``NONZERO_TOL`` in modulus."""
    return float(np.max(np.abs(a - np.diag(np.diag(a))))) <= NONZERO_TOL


@functools.lru_cache(maxsize=qcore.MAX_QUBITS + 1)
def _root_comb(n):
    """Read-only ``sqrt(C(n, i))`` for i = 0..n, the norms of the unnormalised Dicke vectors."""
    root = np.sqrt([float(math.comb(n, i)) for i in range(n + 1)])
    root.flags.writeable = False
    return root


@dataclass(frozen=True)
class DickeMixture:
    """Diagonal symmetric state ``sum_i lam[i] |D_n^i><D_n^i|``.

    ``lam`` has length n+1, nonnegative entries summing to one.  Entries may
    be exact rationals; :attr:`exact`, decided once at construction, reports
    whether all of them are.  Exact weights are validated as integers over
    their common denominator.

    :attr:`zero_mask`, decided with :attr:`exact`, has bit i set iff weight i
    vanishes: it is exactly 0 for exact weights, at most ``NONZERO_TOL`` in
    modulus for float ones (round-off such as the ~1e-17 that
    :meth:`SymmetricCoeffs.diagonal_mixture` leaves).  Every zero-pattern
    decision on the mixture reads this mask.
    """

    n: int
    lam: tuple
    exact: bool = field(init=False, repr=False, compare=False)
    zero_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qcore._check_n(self.n)
        lam = tuple(self.lam)
        if len(lam) != self.n + 1:
            raise EdlkitError("DIM_MISMATCH",
                              "need %d weights for n=%d, got %d" % (self.n + 1, self.n, len(lam)))
        exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in lam)
        if exact:
            nums, den = _over_common_denominator(lam, [1] * len(lam))
            if min(nums) < 0:
                raise EdlkitError("BAD_WEIGHT", "negative Dicke weight")
            if sum(nums) != den:
                total = Fraction(sum(nums), den)
                raise EdlkitError("BAD_WEIGHT", "weights must sum to 1 exactly, got %s" % (total,))
        else:
            total = sum(lam)
            lam = tuple(float(v) for v in lam)
            if not all(math.isfinite(v) for v in lam):
                raise EdlkitError("BAD_WEIGHT", "Dicke weights must be finite")
            if min(lam) < -NONZERO_TOL:
                raise EdlkitError("BAD_WEIGHT", "negative Dicke weight %.3e" % min(lam))
            if abs(total - 1.0) > 1e-10:
                raise EdlkitError("BAD_WEIGHT", "weights sum to %.12f, expected 1" % total)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "zero_mask", sum(1 << i for i, v in enumerate(lam)
                                                  if (not v if exact else abs(v) <= NONZERO_TOL)))

    @property
    def floats(self):
        return np.array([float(v) for v in self.lam])

    def support(self):
        return tuple(i for i in range(self.n + 1) if not self.zero_mask >> i & 1)

    def reversed(self):
        """Weights after the global bit flip, lam_i -> lam_{n-i}."""
        return DickeMixture(self.n, tuple(reversed(self.lam)))


@dataclass(frozen=True)
class SymmetricCoeffs:
    """Symmetric state by its Dicke-basis coefficient matrix.

    ``a`` is an (n+1)x(n+1) Hermitian PSD matrix with unit trace;
    ``a[i, j]`` multiplies ``|D_n^i><D_n^j|``.
    """

    n: int
    a: np.ndarray

    def __post_init__(self):
        qcore._check_n(self.n)
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (self.n + 1, self.n + 1):
            raise EdlkitError("DIM_MISMATCH", "coefficient matrix must be (n+1)x(n+1)")
        if not np.isfinite(a).all():
            raise EdlkitError("BAD_WEIGHT", "coefficient matrix entries must be finite")
        if np.max(np.abs(a - a.conj().T)) > 1e-10:
            raise EdlkitError("NOT_HERMITIAN", "coefficient matrix is not Hermitian")
        if abs(np.trace(a).real - 1.0) > 1e-10 or abs(np.trace(a).imag) > 1e-10:
            raise EdlkitError("BAD_WEIGHT", "coefficient trace %.12f, expected 1" % np.trace(a).real)
        if float(np.linalg.eigvalsh(a)[0]) < -PSD_TOL:
            raise EdlkitError("BAD_WEIGHT", "coefficient matrix is not PSD")
        object.__setattr__(self, "a", a)

    @classmethod
    def from_diagonal(cls, mix):
        a = np.diag(mix.floats).astype(complex)
        return cls(mix.n, a)

    @classmethod
    def from_pure_amplitudes(cls, n, c):
        """Rank-one coefficients of the symmetric pure state ``sum_i c[i] |D_n^i>``."""
        c = np.asarray(c, dtype=complex).reshape(-1)
        if c.shape != (n + 1,):
            raise EdlkitError("DIM_MISMATCH", "need n+1 amplitudes")
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-9:
            raise EdlkitError("BAD_WEIGHT", "amplitudes have norm %.6f, expected 1" % nrm)
        return cls(n, np.outer(c, c.conj()))

    def diagonal_mixture(self):
        """Diagonal part as a DickeMixture (only valid if off-diagonals vanish)."""
        if not _is_diagonal(self.a):
            raise EdlkitError("BAD_WEIGHT", "state has Dicke coherences; not diagonal")
        diag = np.clip(np.diag(self.a).real, 0.0, None)
        return DickeMixture(self.n, tuple(diag / diag.sum()))

    def is_diagonal(self):
        return _is_diagonal(self.a)


@functools.lru_cache(maxsize=qcore.MAX_QUBITS)
def _dicke_basis(n):
    """Real ``(2^n, n+1)`` matrix whose column i is |D_n^i>, read-only; ``n`` must
    already be a valid qubit count."""
    weight = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).sum(axis=1)
    basis = (weight[:, None] == np.arange(n + 1)) / _root_comb(n)
    basis.flags.writeable = False
    return basis


def dicke_vector(n, i):
    """The Dicke state |D_n^i>: uniform superposition of weight-i bitstrings."""
    qcore._check_n(n)
    if not qcore._is_integer(i) or not 0 <= i <= n:
        raise EdlkitError("BAD_WEIGHT", "excitation number %r outside 0..%d" % (i, n))
    return qcore.PureVector(n, _dicke_basis(n)[:, i])


def to_dense(state):
    """Embed a DickeMixture or SymmetricCoeffs as a dense DenseState, ``B a B^T``
    with the Dicke basis ``B``."""
    if isinstance(state, DickeMixture):
        a = np.diag(state.floats)
    elif isinstance(state, SymmetricCoeffs):
        a = state.a
    else:
        raise EdlkitError("DIM_MISMATCH", "expected DickeMixture or SymmetricCoeffs")
    b = _dicke_basis(state.n)
    return qcore.DenseState(state.n, b @ a @ b.T, validate=False)


def _moment_walk(n, k, a):
    """The moments ``m_st = a_st / sqrt(C(n,s) C(n,t))`` of the n-qubit coefficient
    matrix ``a`` and those of its reductions to n-1, ..., k qubits, in that order, by
    ``n - k`` Pascal steps ``m'_st = m_st + m_(s+1)(t+1)``.  It acts on the last two axes
    of ``a``, so it also walks a stack of matrices."""
    levels = [np.asarray(a) / np.outer(_root_comb(n), _root_comb(n))]
    for _ in range(n - k):
        m = levels[-1]
        levels.append(m[..., :-1, :-1] + m[..., 1:, 1:])
    return levels


def _reduce_coeff_matrix(n, k, a):
    """Raw linear reduction map on n-qubit coefficient matrices, no state validation: the
    last moments of :func:`_moment_walk` scaled back, ``a'_st = m'_st sqrt(C(k,s) C(k,t))``."""
    return _moment_walk(n, k, a)[-1] * np.outer(_root_comb(k), _root_comb(k))


def symmetric_marginal(coeffs, k):
    """k-qubit reduction of a symmetric state, inside the Dicke basis.

    The reduction of ``|D_n^i><D_n^j|`` onto any k qubits is
    ``sum_s C(n-k, i-s) sqrt(C(k,s) C(k,j-i+s)) / sqrt(C(n,i) C(n,j))
    |D_k^s><D_k^{j-i+s}|``, so coherences survive only if ``|i-j| <= k``; it is
    computed by the Pascal walk on the moments (:func:`_reduce_coeff_matrix`).
    """
    n = coeffs.n
    if not qcore._is_integer(k) or not 1 <= k <= n:
        raise EdlkitError("DIM_MISMATCH", "marginal size %r outside 1..%d" % (k, n))
    if k == n:
        return coeffs
    return SymmetricCoeffs(k, _reduce_coeff_matrix(n, k, coeffs.a))


def _moments(mix):
    """Hankel moments ``p_s = lam_s / C(n, s)`` over one common denominator: ``(P, D)``
    with ``p_s = P_s / D``.  For exact weights ``D > 0`` and every ``P_s = D lam_s / C(n, s)``
    are Python integers, ``D`` the least common multiple of the products of ``C(n, s)``
    and the denominator of ``lam_s``; float weights give the float moments over ``D = 1``.
    The Pascal walk :func:`_trace_out_one` keeps ``D`` on either."""
    combs = [math.comb(mix.n, s) for s in range(mix.n + 1)]
    if mix.exact:
        return _over_common_denominator(mix.lam, combs)
    return [float(v) / c for v, c in zip(mix.lam, combs)], 1


def _trace_out_one(p):
    """Moments of the marginal on one qubit fewer, by Pascal's rule ``p'_s = p_s + p_{s+1}``."""
    return [a + b for a, b in zip(p, p[1:])]


def diagonal_marginal(mix, k):
    """k-qubit reduction of a diagonal symmetric state; exact for exact input.

    Walks ``n - k`` Pascal steps down from the moments of ``mix`` (integers
    over their common denominator ``D`` for exact weights) and multiplies the
    weights back, ``lam'_s = C(k, s) p'_s``: Fractions ``C(k, s) P'_s / D``
    for exact weights.
    """
    n = mix.n
    if not qcore._is_integer(k) or not 1 <= k <= n:
        raise EdlkitError("DIM_MISMATCH", "marginal size %r outside 1..%d" % (k, n))
    if k == n:
        return mix
    p, den = _moments(mix)
    for _ in range(n - k):
        p = _trace_out_one(p)
    lam = [x * math.comb(k, s) for s, x in enumerate(p)]
    return DickeMixture(k, tuple(Fraction(x, den) for x in lam) if mix.exact else tuple(lam))


# ---------------------------------------------------------------------------
# Hankel positivity criteria for diagonal symmetric states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HankelPair:
    """The two Hankel moment matrices of a diagonal symmetric state.

    With ``p_i = lam_i / C(n, i)``, ``m0[r][c] = p_{r+c}`` has size
    floor(n/2)+1 and ``m1[r][c] = p_{r+c+1}`` has size floor((n+1)/2).  The
    state is PPT across every bipartition iff both are PSD, and for diagonal
    symmetric states PPT coincides with full separability.
    """

    n: int
    m0: tuple
    m1: tuple

    def m0_array(self):
        return np.array([[float(x) for x in row] for row in self.m0])

    def m1_array(self):
        return np.array([[float(x) for x in row] for row in self.m1])

    def min_eigenvalues(self):
        return _min_eigs(self.m0, self.m1)


def _hankel(p):
    """Rows of the Hankel matrices ``m0[r][c] = p[r+c]`` and ``m1[r][c] = p[r+c+1]`` of the
    diagonal state on ``len(p) - 1`` qubits with moments ``p``."""
    d0, d1 = (len(p) + 1) // 2, len(p) // 2
    return [p[r:r + d0] for r in range(d0)], [p[r + 1:r + 1 + d1] for r in range(d1)]


def _min_eigs(*mats):
    """Smallest eigenvalue of each symmetric matrix in ``mats``, its entries read as floats."""
    return tuple(float(np.linalg.eigvalsh(np.array(m, dtype=float))[0]) for m in mats)


def hankel_pair(mix):
    p, den = _moments(mix)
    m0, m1 = _hankel([Fraction(x, den) for x in p] if mix.exact else p)
    return HankelPair(mix.n, tuple(map(tuple, m0)), tuple(map(tuple, m1)))


def _psd_integer(a):
    """Exact PSD test for a symmetric integer matrix by pivoted symmetric elimination.

    Pivot on the largest remaining diagonal entry: a negative one refutes
    PSD, a zero one leaves PSD iff the whole remaining block is zero, and a
    positive one passes the test on to its Schur complement.  The complement
    is taken fraction-free, scaled by the pivot, and divided by the previous
    pivot (Bareiss); both factors are positive, so PSD-ness, the pivot order
    and the signs are those of the rational elimination, and every entry
    stays a Python integer.
    """
    prev = 1
    while a:
        p = max(range(len(a)), key=lambda i: a[i][i])
        pivot = a[p][p]
        if pivot <= 0:
            return pivot == 0 and not any(x for row in a for x in row)
        col = [row[p] for row in a]
        a = [[(pivot * a[r][c] - col[r] * col[c]) // prev for c in range(len(a)) if c != p]
             for r in range(len(a)) if r != p]
        prev = pivot
    return True


def _exact_psd(rows):
    """Exact PSD test for a symmetric matrix of ``int`` or ``Fraction`` entries: the
    rows over their common denominator ``D > 0`` are PSD iff the rows are, and
    :func:`_psd_integer` decides them."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return _psd_integer([[x.numerator * (den // x.denominator) for x in row] for row in rows])


def _hankel_verdict(p, exact, tol):
    """``(is_ppt, min_eigs)`` of the diagonal state with moments ``p``: integer moments over
    a positive common denominator by elimination alone (``min_eigs`` None), float ones
    by their smallest Hankel eigenvalues against ``-tol``."""
    if exact:
        return all(_psd_integer(m) for m in _hankel(p)), None
    e0, e1 = _min_eigs(*_hankel(p))
    return e0 >= -tol and e1 >= -tol, (e0, e1)


@dataclass(frozen=True)
class PptVerdict:
    is_ppt: bool
    min_eig_m0: float
    min_eig_m1: float
    exact: bool


def is_ppt_diagonal(mix, tol=PSD_TOL):
    """PPT (= full separability) test for a diagonal symmetric state.

    Exact inputs are decided exactly by symmetric elimination on their
    integer moments; float inputs compare the smallest Hankel eigenvalues
    against ``-tol``.
    """
    qcore._check_tol(tol)
    p, den = _moments(mix)
    verdict, eigs = _hankel_verdict(p, mix.exact, tol)
    e0, e1 = eigs or _min_eigs(*_hankel([x / den for x in p]))
    return PptVerdict(verdict, e0, e1, mix.exact)


# ---------------------------------------------------------------------------
# Detection length
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdlResult:
    """Detection length with an exactness flag and a violation certificate.

    ``value`` is None when no entanglement was detected (then ``flag`` is
    ``"NOT_ENTANGLED"``).  ``flag`` is ``"EXACT"`` when the reported level is
    the true detection length and ``"PPT_BOUND"`` when some marginal of four
    or more qubits passed the PPT test without a separability certificate,
    making the value an upper bound only.
    """

    value: int | None
    flag: str
    certificate: dict = field(default_factory=dict)


def edl_diagonal(mix, tol=PSD_TOL):
    """Detection length of a diagonal symmetric state.

    For diagonal symmetric states PPT equals full separability at every
    marginal size, so the first non-PPT marginal gives the exact answer.
    The marginal moments come from one Pascal walk down from ``mix``; exact
    levels are decided by elimination alone on their integer moments over one
    common denominator, and the smallest Hankel eigenvalues are computed only
    for the level that is reported.
    """
    qcore._check_tol(tol)
    n = mix.n
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    exact = mix.exact
    p, den = _moments(mix)
    levels = [p]
    while len(levels[-1]) > 3:
        levels.append(_trace_out_one(levels[-1]))
    for p in reversed(levels):
        is_ppt, eigs = _hankel_verdict(p, exact, tol)
        if not is_ppt:
            e0, e1 = eigs or _min_eigs(*_hankel([x / den for x in p]))
            k = len(p) - 1
            return EdlResult(k, "EXACT", {"level": k, "route": "hankel", "min_eig_m0": e0,
                                          "min_eig_m1": e1, "exact": exact})
    return EdlResult(None, "NOT_ENTANGLED", {"levels_checked": list(range(2, n + 1))})


@functools.lru_cache(maxsize=qcore.MAX_QUBITS + 1)
def _half_cut_gather(k):
    """Read-only ``(rows, cols, scale)`` with which ``a[rows, cols] * scale`` is the partial
    transpose, on its first ``j = k // 2`` qubits, of the k-qubit symmetric state with
    coefficient matrix ``a``, inside Sym^j (x) Sym^(k-j) with the Dicke bases: entry
    ``((x,y),(x',y'))`` is ``a[x'+y, x+y']`` times
    ``sqrt(C(j,x) C(k-j,y) C(j,x') C(k-j,y') / (C(k,x'+y) C(k,x+y')))``."""
    j = k // 2
    x, y = np.divmod(np.arange((j + 1) * (k - j + 1)), k - j + 1)
    rows, cols = x + y[:, None], x[:, None] + y
    w = _root_comb(j)[x] * _root_comb(k - j)[y]
    scale = np.outer(w, w) / (_root_comb(k)[rows] * _root_comb(k)[cols])
    for arr in (rows, cols, scale):
        arr.flags.writeable = False
    return rows, cols, scale


def _half_cut_min_eig(a):
    """Smallest eigenvalue of the partial transpose on the first ``k // 2`` qubits of the
    k-qubit symmetric state with coefficient matrix ``a``, taken inside Sym^j (x) Sym^(k-j).

    That space holds the state and, its Dicke basis being real, is kept by the
    transpose on the first factor; the remaining eigenvalues of the ``2^k`` partial
    transpose are zeros.
    """
    rows, cols, scale = _half_cut_gather(len(a) - 1)
    pt = a[rows, cols] * scale
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def edl_symmetric(coeffs, tol=PSD_TOL):
    """Detection length of a general symmetric state via marginal PPT scans.

    Every level k is tested by the partial transpose on ``k // 2`` qubits, inside
    the Dicke product space Sym^j (x) Sym^(k-j) (at most 36 x 36 at k = 10), read
    off the marginal's coefficient matrix; one Pascal walk of n - 2 steps gives every
    level, as in :func:`edl_diagonal`, and no level builds or validates a
    :class:`SymmetricCoeffs`.
    Marginals on two or three qubits and all diagonal marginals are decided
    exactly (PPT = separability there, and for diagonal states the half cut
    is the decisive one).  A PPT verdict on a non-diagonal marginal of four or
    more qubits certifies nothing, so any such level downgrades the result
    flag to ``"PPT_BOUND"``.
    """
    qcore._check_tol(tol)
    n = coeffs.n
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    saw_uncertified_ppt = False
    for m in reversed(_moment_walk(n, 2, coeffs.a)):
        k = len(m) - 1
        a = m * np.outer(_root_comb(k), _root_comb(k))
        min_eig = _half_cut_min_eig(a)
        if min_eig < -tol:
            flag = "PPT_BOUND" if saw_uncertified_ppt else "EXACT"
            return EdlResult(k, flag, {"level": k, "route": "dicke_ppt", "min_eig": min_eig})
        if k >= 4 and not _is_diagonal(a):
            saw_uncertified_ppt = True
    cert = {"levels_checked": list(range(2, n + 1)),
            "separability_certified": not saw_uncertified_ppt}
    return EdlResult(None, "NOT_ENTANGLED", cert)


# ---------------------------------------------------------------------------
# Determination length
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionFamily:
    """All diagonal symmetric states sharing the level-k marginal of a state.

    ``member(s)`` returns the weight vector with free parameters
    ``s = (s_{k+1}, ..., s_n)``; ``s = 0`` gives back the particular
    solution.  The basis coefficients are exact rationals.
    """

    n: int
    k: int
    particular: tuple
    basis: tuple  # (n+1) rows, each with n-k rational entries

    def member(self, s):
        s = list(s)
        if len(s) != self.n - self.k:
            raise EdlkitError("DIM_MISMATCH", "need %d free parameters" % (self.n - self.k))
        out = []
        for r in range(self.n + 1):
            acc = self.particular[r]
            for col in range(self.n - self.k):
                acc = acc + self.basis[r][col] * s[col]
            out.append(acc)
        return tuple(out)

    def basis_array(self):
        return np.array([[float(x) for x in row] for row in self.basis])


def _check_level(n, k):
    """BAD_LEVEL unless ``k`` is an integer in 1..n-1.  Public entries call it before
    the caches keyed by ``k``, since ``hash(1.0) == hash(1)``."""
    if not qcore._is_integer(k) or not 1 <= k <= n - 1:
        raise EdlkitError("BAD_LEVEL", "need an integer 1 <= k <= n-1, got k=%r" % (k,))


def _divided_difference(points):
    """Coprime integer weights ``w`` of the divided difference on the distinct integers
    ``points``: ``w_t`` is a positive multiple of ``1 / prod_(u != t) (t - u)``, so
    ``sum_t w_t q(t) = 0`` for every polynomial q of degree below ``len(points) - 1``,
    and the signs alternate along the sorted points, positive at the largest."""
    prods = [math.prod(t - u for u in points if u != t) for t in points]
    den = math.lcm(*prods)
    weights = [den // p for p in prods]
    g = math.gcd(*weights)
    return [w // g for w in weights]


@functools.lru_cache(maxsize=64)
def _kernel_rows(n, k):
    """Exact kernel basis of the level-k diagonal marginal map: n+1 rows of n-k
    Fractions (closed form in :func:`solution_family`), nested tuples, so read-only.
    Column ``i - k - 1`` is the divided difference on ``0..k, i``, scaled to 1 at row i."""
    _check_level(n, k)
    rows = [[Fraction(0)] * (n - k) for _ in range(n + 1)]
    for col, i in enumerate(range(k + 1, n + 1)):
        points = list(range(k + 1)) + [i]
        weights = _divided_difference(points)
        for r, w in zip(points, weights):
            rows[r][col] = Fraction(w, weights[-1])
    return tuple(tuple(row) for row in rows)


@functools.lru_cache(maxsize=64)
def _kernel_array(n, k):
    """Float copy of :func:`_kernel_rows`, read-only."""
    arr = np.array([[float(x) for x in row] for row in _kernel_rows(n, k)])
    arr.flags.writeable = False
    return arr


def solution_family(mix, k):
    """General solution of the level-k marginal equations around ``mix``.

    The homogeneous kernel has one basis vector per free index
    ``i in {k+1..n}`` with entries
    ``(-1)^(k-r+1) C(i,k) C(k,r) (i-k)/(i-r)`` at rows ``r <= k``, 1 at row
    ``i`` and 0 elsewhere.
    """
    _check_level(mix.n, k)
    return SolutionFamily(mix.n, k, tuple(mix.lam), _kernel_rows(mix.n, k))


def _zero_pattern(n, zero_mask):
    """``(support, turns)`` of the zero weights Z of ``zero_mask``: the indices of the
    nonzero weights, and the zeros, in ascending order, at which the parity of the
    count of nonzero weights below differs from that at the previous zero taken (the
    first zero is always taken)."""
    support, turns, parity = [], [], None
    for i in range(n + 1):
        if not zero_mask >> i & 1:
            support.append(i)
        elif len(support) % 2 != parity:
            turns.append(i)
            parity = len(support) % 2
    return support, turns


def _cone_top(n, zero_mask):
    """``f + c``: f nonzero weights, and c pairs of consecutive zeros with an odd
    number of nonzero weights between them.  The least degree of a polynomial that
    vanishes at the f nonzero indices and is positive at every zero, so the cone
    of :func:`_level_direction` is more than ``{0}`` exactly at the levels below it."""
    support, turns = _zero_pattern(n, zero_mask)
    return len(support) + max(len(turns) - 1, 0)


@functools.lru_cache(maxsize=4096)
def _level_direction(n, k, zero_mask):
    """A read-only nonzero point of the cone ``{s : N_Z s >= 0}`` of the level-k
    kernel rows at the zero weights ``Z`` (bit i of ``zero_mask`` set iff weight i
    vanishes), or None when the cone is ``{0}``.  Nothing is solved.

    The level-k kernel is the set of weight vectors that annihilate every
    polynomial of degree at most k on the points 0..n, and ``N s`` is the one whose
    entries above k are ``s``.  Divided differences on k+2 of the points span it,
    and their signs alternate (Karlin & Studden 1966, *Tchebycheff Systems*).  By
    Gordan's alternative the cone is ``{0}`` iff some polynomial of degree at most
    k vanishes off Z and is positive on Z, and the least degree of one is
    ``f + c`` (:func:`_cone_top`).  Below it the direction is the divided
    difference on T: the first k+2 nonzero indices, or all f of them and the first
    ``k + 2 - f`` zeros of :func:`_zero_pattern`.  Consecutive zeros of T have an
    odd number of nonzero indices between them, so the divided difference has one
    sign on the zeros of T and is taken >= 0 there.  The entries are integers
    dividing n!, so exact in float up to n = 18.
    """
    if k >= _cone_top(n, zero_mask):
        return None
    support, turns = _zero_pattern(n, zero_mask)
    points = sorted(support[:k + 2] + turns[:max(0, k + 2 - len(support))])
    weights = dict(zip(points, _divided_difference(points)))
    sign = -1 if any(weights[t] < 0 for t in turns if t in weights) else 1
    direction = np.array([float(sign * weights.get(i, 0)) for i in range(k + 1, n + 1)])
    direction.flags.writeable = False
    return direction


def _coordinate_moves(lam, k, tol):
    """Whether some free coordinate of ``{s : lam + N s >= 0}`` at level k exceeds
    ``tol`` in modulus: each is maximized and minimized by the simplex."""
    G = -_kernel_array(len(lam) - 1, k)    # lam + N s >= 0  <=>  -N s <= lam
    p = G.shape[1]
    for j in range(p):
        for sign in (1.0, -1.0):
            c = np.zeros(p)
            c[j] = sign
            if simplex_max(c, G, lam, tol=tol)[0] > tol:
                return True
    return False


def _alternative_nonneg_point(mix, k, tol=1e-9):
    """A nonzero parameter vector ``s`` with ``lam + N s >= 0``, or None.

    The polytope ``{s : lam + N s >= 0}`` is bounded (weights sum to one),
    contains s = 0 and lies in the cone ``{s : N_Z s >= 0}`` of the rows at the
    zero weights Z (``mix.zero_mask``); a nonzero point of that cone scaled down
    is a nonzero point of the polytope.  So the cached closed form
    :func:`_level_direction` of ``(n, k, Z)`` decides whether one exists, and the
    point returned is half the maximal step along its divided difference (one
    matvec and a ratio test over the rows outside Z), which keeps every weight
    outside Z at least half its value.

    Exact weights take that point however small: the cone test is a count on the
    zero pattern, so no float decides their verdict.  Float
    weights keep the ``tol`` threshold of the coordinate search: a point whose
    largest coordinate exceeds ``2 tol`` proves a coordinate LP value above
    ``tol``, and a smaller one is returned only when the coordinate LPs of
    :func:`_coordinate_moves` find such a value, so every float verdict is the
    coordinate search's.
    """
    n = mix.n
    lam, zero_mask = mix.floats, mix.zero_mask
    direction = _level_direction(n, k, zero_mask)
    if direction is None:
        return None
    step = _kernel_array(n, k) @ direction
    lam_list = lam.tolist()
    t = min(lam_list[i] / -v for i, v in enumerate(step.tolist())
            if v < 0.0 and not zero_mask >> i & 1)
    point = 0.5 * t * direction
    if mix.exact or np.max(np.abs(point)) > 2 * tol or _coordinate_moves(lam, k, tol):
        return point
    return None


def _alternative_member(mix, k, point):
    """The float weights ``lam + N s`` at ``s = point`` of the level-k family of ``mix``;
    the rows of ``N s`` at its zero weights are >= 0 up to round-off, so the member's
    negative round-off there is clamped to 0."""
    member = mix.floats + _kernel_array(mix.n, k) @ point
    zero = (mix.zero_mask >> np.arange(mix.n + 1) & 1).astype(bool)
    np.maximum(member, 0.0, out=member, where=zero)
    return member


def has_alternative_nonneg(mix, k, tol=1e-9):
    """True iff some other nonnegative weight vector shares all level-k marginals.

    By the general-solution lemma this holds iff the determination length
    exceeds k (for k >= 2, where marginal collections pin the symmetric
    form).  For exact weights the zero pattern ``mix.zero_mask`` alone answers
    it, whatever ``tol``: an alternative exists iff ``k < f + c``, f the nonzero
    weights and c the pairs of consecutive zeros with an odd number of them
    between (:func:`_cone_top`).  For float weights (zeros at most
    ``NONZERO_TOL`` in modulus) an alternative counts only when some free
    coordinate can move by more than ``tol`` (see
    :func:`_alternative_nonneg_point`).  BAD_TOL unless ``tol`` is finite and at
    least 0.
    """
    _check_level(mix.n, k)
    qcore._check_tol(tol)
    return _alternative_nonneg_point(mix, k, tol=tol) is not None


class FullLevelVerdict:
    """Outcome of the full-level test with the matched condition name."""

    def __init__(self, full, condition):
        self.full = full
        self.condition = condition

    def __bool__(self):
        return self.full


def sdl_full_level(mix):
    """Whether determination needs the full n-qubit marginal.

    True iff (i) lam_0 lam_n != 0, or (ii) every odd-index weight is nonzero,
    or (iii) every even-index weight is nonzero, with the zeros of ``mix.zero_mask``.
    """
    n, zero = mix.n, mix.zero_mask
    if not zero & (1 | 1 << n):
        return FullLevelVerdict(True, "extremal_pair")
    even = sum(1 << i for i in range(0, n + 1, 2))
    if not zero & ~even:
        return FullLevelVerdict(True, "all_odd")
    if not zero & even:
        return FullLevelVerdict(True, "all_even")
    return FullLevelVerdict(False, None)


@dataclass(frozen=True)
class SdlResult:
    """Determination length, possibly as an interval ``[lo, hi]``.

    ``flag`` is ``"EXACT"`` (closed form or collapsed interval),
    ``"DERIVED_RULE"`` (closed form in the no-vanishing-weight case, where
    the supporting argument combines the general-solution lemma at level k
    with the vanishing-weight upper bound at level k+1), or ``"INTERVAL"``
    when the level tests leave a gap.

    ``certificate["flipped"]`` records only that the analysis ran on the
    bit-flipped weights, whose support top is ``certificate["k"]``.  The
    ``lp_bracket`` route's ``alternative_member`` is in the input's frame: a
    nonnegative weight vector other than the input with the same marginal at
    ``alternative_level``.
    """

    lo: int
    hi: int
    flag: str
    certificate: dict = field(default_factory=dict)

    @property
    def exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.exact:
            raise EdlkitError("BAD_LEVEL", "determination length not pinned: [%d, %d]" % (self.lo, self.hi))
        return self.lo


def sdl_diagonal(mix, tol=1e-9):
    """Determination length of a diagonal symmetric state.

    Which weights vanish is decided once, by ``mix.zero_mask`` (exact zeros, or
    float weights at most ``NONZERO_TOL`` in modulus), and every step below reads
    that one pattern.  Resolution order: full-level conditions; bit-flip
    normalization to the smaller maximal support index k; closed form when at
    most one weight vanishes on {0..k}; otherwise a bracket from the level-m
    cone tests.  The zero pattern's cone has a direction exactly at the levels
    m < f + c of :func:`_cone_top`, a count, so the upper bound is k, or
    ``min(n, f + c)`` when that is larger.  The lower bound is one above the
    largest m below that with an alternative solution: half the maximal step
    along the cached divided difference of ``(n, m, zero set)`` (see
    :func:`_alternative_nonneg_point`; float weights fall back to coordinate
    LPs only when that step is at most ``2 tol``, so a tiny float weight can
    lower the lower bound, never the upper one).  The alternative
    ``lam + N s`` is formed in floats, with round-off on the zero-weight rows
    clamped to 0, and reported in the input's frame, reversed back when the bit
    flip was taken.
    """
    qcore._check_tol(tol)
    n = mix.n
    full = sdl_full_level(mix)
    if full:
        cert = {"route": "full_level", "condition": full.condition}
        if full.condition == "extremal_pair":
            # compatible sibling rho + a(|D^0><D^n| + h.c.) stays PSD for a^2 <= lam_0 lam_n
            cert["ghz_block_amp"] = math.sqrt(float(mix.lam[0]) * float(mix.lam[n])) / 2.0
        return SdlResult(n, n, "EXACT", cert)

    support = mix.support()
    flipped = n - support[0] < support[-1]  # the bit flip lowers the largest support index
    work = mix.reversed() if flipped else mix
    support = tuple(n - i for i in reversed(support)) if flipped else support
    k = max(support)
    if k == 0:
        # pure |0...0>: a product state, single-qubit marginals already determine it
        return SdlResult(1, 1, "EXACT", {"route": "rank_criterion", "flipped": flipped})

    zeros = [i for i in range(k + 1) if work.zero_mask >> i & 1]
    if len(zeros) == 0:
        value = k + min(1, n - k)
        cert = {"route": "closed_form", "k": k, "i_star": None, "flipped": flipped}
        return SdlResult(value, value, "DERIVED_RULE", cert)
    if len(zeros) == 1:
        i_star = zeros[0]
        value = k + min((k - i_star) % 2, n - k)
        cert = {"route": "closed_form", "k": k, "i_star": i_star, "flipped": flipped}
        return SdlResult(value, value, "EXACT", cert)

    if support == (k,):
        # pure |D_n^k>: the two-body marginal pins the state among all
        # states (Cauchy-Schwarz uniqueness), sharper than the brackets below
        return SdlResult(2, 2, "EXACT",
                         {"route": "single_dicke", "k": k, "flipped": flipped})

    # two or more vanishing weights below the support top: bracket by the level tests.
    # The cone of the zero pattern has a direction exactly at the levels below its
    # count f + c, so m_cone is the largest such level (1 when none is), and no level
    # above it has an alternative however small its step.  Alternatives are monotone
    # (an alternative at level m restricts to one at m-1), so the scan for a point
    # runs down from m_cone to the first hit.
    m_cone = max(1, min(n - 1, _cone_top(n, work.zero_mask) - 1))
    m_max = None
    member = None
    for m in range(m_cone, 1, -1):
        point = _alternative_nonneg_point(work, m, tol=tol)
        if point is not None:
            m_max = m
            member = _alternative_member(work, m, point)
            break
    lo = 2 if m_max is None else m_max + 1
    hi = max(k, m_cone + 1)
    cert = {"route": "lp_bracket", "k": k, "flipped": flipped,
            "alternative_level": m_max}
    if member is not None:
        # reported in the input's frame: undo the bit flip of ``work``
        cert["alternative_member"] = tuple((member[::-1] if flipped else member).tolist())
    flag = "EXACT" if lo == hi else "INTERVAL"
    return SdlResult(lo, hi, flag, cert)


def rank_criterion_sdl1(rho, tol=PSD_TOL):
    """True iff at most one single-qubit marginal has rank above one.

    That is exactly the condition for the determination length to be 1.  BAD_TOL
    unless ``tol`` is finite and at least 0.
    """
    qcore._check_tol(tol)
    mat, n = qcore._as_matrix(rho)
    heavy = 0
    for j in range(1, n + 1):
        marg = qcore.partial_trace(mat, [j])
        eigs = np.linalg.eigvalsh((marg + marg.conj().T) / 2)
        if eigs[0] > tol:  # second-largest of a 2x2 via the smaller eigenvalue
            heavy += 1
    return heavy <= 1


@dataclass(frozen=True)
class CompatVerdict:
    compatible: bool
    max_dev: float
    worst_subset: tuple | None

    def __bool__(self):
        return self.compatible


def check_compatibility(sigma, rho, subsets, tol=1e-10):
    """Check that two states share every marginal named by ``subsets``."""
    qcore._check_tol(tol)
    sig_mat, n_sig = qcore._as_matrix(sigma)
    rho_mat, n_rho = qcore._as_matrix(rho)
    if n_sig != n_rho:
        raise EdlkitError("DIM_MISMATCH", "states live on %d and %d qubits" % (n_sig, n_rho))
    worst = None
    max_dev = 0.0
    for subset in subsets:
        labels = subset.indices if isinstance(subset, qcore.Subset) else tuple(subset)
        dev = float(np.max(np.abs(qcore.partial_trace(sig_mat, labels)
                                  - qcore.partial_trace(rho_mat, labels))))
        if dev > max_dev:
            max_dev = dev
            worst = labels
    return CompatVerdict(max_dev <= tol, max_dev, worst)


# ---------------------------------------------------------------------------
# Families with a detection/determination gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapPureResult:
    psi: qcore.PureVector
    edl: int
    sdl: int
    gap: int
    hankel_m0: np.ndarray
    m0_min_eig: float
    sigma: DickeMixture
    sigma_compat_dev: float


def gap_pure_family(n, alpha):
    """Pure n-qubit family ``alpha |D_n^1> + beta |D_n^n>`` with detection
    length 2 and determination length n-1.

    Requires n >= 4 and ``(n^2-2n)/(n^2-2n+1) < |alpha|^2 < 1``.  The diagonal
    sibling ``sigma = |alpha|^2 |D^1><D^1| + |beta|^2 |D^n><D^n|`` matches every
    marginal of n-2 qubits, so determination needs n-1 of them.  From n = 4 on,
    the two-qubit marginal of ``sigma`` is that of the pure state, and the Hankel
    rule of :func:`edl_diagonal` must find it NPT: BAD_AMPLITUDE unless the
    smallest eigenvalue of its ``m0`` is below ``-PSD_TOL``.
    """
    if n < 4:
        raise EdlkitError("BAD_AMPLITUDE", "the pure gap family needs n >= 4")
    a2 = abs(alpha) ** 2
    low = (n * n - 2 * n) / (n * n - 2 * n + 1.0)
    if not low < a2 < 1.0:
        raise EdlkitError("BAD_AMPLITUDE",
                          "|alpha|^2 = %.6f outside (%.6f, 1)" % (a2, low))
    beta = math.sqrt(1.0 - a2)
    amp = alpha * dicke_vector(n, 1).amplitudes + beta * dicke_vector(n, n).amplitudes
    psi = qcore.PureVector(n, amp)

    lam = [0.0] * (n + 1)
    lam[1] = a2
    lam[n] = 1.0 - a2
    sigma = DickeMixture(n, tuple(lam))
    p = _moments(diagonal_marginal(sigma, 2))[0]
    is_ppt, (m0_min_eig, _e1) = _hankel_verdict(p, False, PSD_TOL)
    if is_ppt:
        raise EdlkitError("BAD_AMPLITUDE",
                          "two-qubit marginal is PPT (Hankel eigenvalue %.3e)" % m0_min_eig)
    subsets = [qcore.Subset.from_indices(n, c)
               for c in itertools.combinations(range(1, n + 1), n - 2)]
    verdict = check_compatibility(to_dense(sigma), psi.to_density(), subsets)
    if not verdict:
        raise EdlkitError("BAD_AMPLITUDE",
                          "diagonal sibling failed marginal match (dev %.2e)" % verdict.max_dev)
    return GapPureResult(psi, 2, n - 1, n - 3, np.array(_hankel(p)[0]), m0_min_eig, sigma, verdict.max_dev)


@dataclass(frozen=True)
class GapMixedResult:
    mix: DickeMixture
    edl: int
    sdl: int
    gap: int
    quadratic_value: float
    marginal2_value: float
    ghz_block_amp: float


def gap_mixed_family(n, lam):
    """Diagonal family with detection length 2 and determination length n.

    Requires ``lam_0 lam_n != 0``, the extremal-pair condition of
    :func:`sdl_full_level` (determination needs all n qubits), and a two-qubit
    marginal that the Hankel rule of :func:`edl_diagonal` finds NPT; BAD_LAMBDA
    otherwise.  The quadratic form
    ``sum_{ij} (n-i) j lam_i lam_j [(n-i-1)(j-1) - i(n-j)]``, the paper's two-qubit
    PPT value with the sign of ``det m0``, is reported as both ``quadratic_value``
    and ``marginal2_value``; it decides nothing.
    """
    mix = lam if isinstance(lam, DickeMixture) else DickeMixture(n, tuple(lam))
    if mix.n != n:
        raise EdlkitError("DIM_MISMATCH", "weight vector does not match n=%d" % n)
    if mix.zero_mask & (1 | 1 << n):
        raise EdlkitError("BAD_LAMBDA", "need lam_0 lam_n != 0")
    quad = float(sum((n - i) * j * mix.lam[i] * mix.lam[j] * ((n - i - 1) * (j - 1) - i * (n - j))
                     for i in range(n + 1) for j in range(n + 1)))
    if edl_diagonal(mix).value != 2:
        raise EdlkitError("BAD_LAMBDA",
                          "two-qubit marginal is PPT (value %.6g); no gap certified" % quad)
    amp = math.sqrt(float(mix.lam[0]) * float(mix.lam[n])) / 2.0
    return GapMixedResult(mix, 2, n, n - 2, quad, quad, amp)
