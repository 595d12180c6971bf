"""Closed-form detection and determination machinery for symmetric states.

A permutation-invariant n-qubit state is stored by its coefficients in the
Dicke basis: either a full Hermitian coefficient matrix
(:class:`SymmetricCoeffs`) or just the diagonal weights
(:class:`DickeMixture`).  Reductions stay inside the symmetric subspace, so
an n-qubit problem lives in dimension n+1 rather than 2^n.

Weights may be ``float`` or exact ``fractions.Fraction``/``int`` values.
The support-pattern case analysis used by the determination-length routines
is discontinuous in which weights vanish, so exact inputs are decided
exactly (their arithmetic never leaves the rationals) and float inputs use
a fixed nonzero threshold.

Diagonal states are handled through their Hankel moments
``p_s = lam_s / C(n, s)``.  Tracing out one qubit is Pascal's rule on them,
``p'_s = p_s + p_{s+1}``, so every marginal follows from the moments by
additions alone, and the PPT test reads its two Hankel matrices straight off
the moments of the marginal.  Exact PSD tests run a fraction-free
elimination on Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import qcore
from ._simplex import simplex_max
from .errors import EdlkitError

NONZERO_TOL = 1e-12
PSD_TOL = 1e-9


def _comb(n, k):
    """Binomial coefficient with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _is_exact(values):
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _nonzero(x, exact):
    if exact:
        return x != 0
    return abs(x) > NONZERO_TOL


@dataclass(frozen=True)
class DickeMixture:
    """Diagonal symmetric state ``sum_i lam[i] |D_n^i><D_n^i|``.

    ``lam`` has length n+1, nonnegative entries summing to one.  Entries may
    be exact rationals; :attr:`exact` reports whether all of them are.
    """

    n: int
    lam: tuple

    def __post_init__(self):
        if self.n < 1 or self.n > qcore.MAX_QUBITS:
            raise EdlkitError("TOO_LARGE" if self.n > qcore.MAX_QUBITS else "DIM_MISMATCH",
                              "qubit count %r out of range" % (self.n,))
        lam = tuple(self.lam)
        if len(lam) != self.n + 1:
            raise EdlkitError("DIM_MISMATCH",
                              "need %d weights for n=%d, got %d" % (self.n + 1, self.n, len(lam)))
        exact = _is_exact(lam)
        total = sum(lam)
        if exact:
            if any(v < 0 for v in lam):
                raise EdlkitError("BAD_WEIGHT", "negative Dicke weight")
            if total != 1:
                raise EdlkitError("BAD_WEIGHT", "weights must sum to 1 exactly, got %s" % (total,))
        else:
            lam = tuple(float(v) for v in lam)
            if not all(math.isfinite(v) for v in lam):
                raise EdlkitError("BAD_WEIGHT", "Dicke weights must be finite")
            if min(lam) < -NONZERO_TOL:
                raise EdlkitError("BAD_WEIGHT", "negative Dicke weight %.3e" % min(lam))
            if abs(total - 1.0) > 1e-10:
                raise EdlkitError("BAD_WEIGHT", "weights sum to %.12f, expected 1" % total)
        object.__setattr__(self, "lam", lam)

    @property
    def exact(self):
        return _is_exact(self.lam)

    @property
    def floats(self):
        return np.array([float(v) for v in self.lam])

    def support(self):
        exact = self.exact
        return tuple(i for i, v in enumerate(self.lam) if _nonzero(v, exact))

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
        if self.n < 1 or self.n > qcore.MAX_QUBITS:
            raise EdlkitError("TOO_LARGE" if self.n > qcore.MAX_QUBITS else "DIM_MISMATCH",
                              "qubit count %r out of range" % (self.n,))
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
        off = self.a - np.diag(np.diag(self.a))
        if np.max(np.abs(off)) > NONZERO_TOL:
            raise EdlkitError("BAD_WEIGHT", "state has Dicke coherences; not diagonal")
        diag = np.clip(np.diag(self.a).real, 0.0, None)
        return DickeMixture(self.n, tuple(diag / diag.sum()))

    def is_diagonal(self, tol=NONZERO_TOL):
        off = self.a - np.diag(np.diag(self.a))
        return float(np.max(np.abs(off))) <= tol


def dicke_vector(n, i):
    """The Dicke state |D_n^i>: uniform superposition of weight-i bitstrings."""
    if not 0 <= i <= n:
        raise EdlkitError("BAD_WEIGHT", "excitation number %d outside 0..%d" % (i, n))
    if n > qcore.MAX_QUBITS:
        raise EdlkitError("TOO_LARGE", "n=%d exceeds the dense cap" % n)
    amp = np.zeros(1 << n, dtype=complex)
    norm = 1.0 / math.sqrt(math.comb(n, i))
    for idx in range(1 << n):
        if bin(idx).count("1") == i:
            amp[idx] = norm
    return qcore.PureVector(n, amp)


def to_dense(state):
    """Embed a DickeMixture or SymmetricCoeffs as a dense DenseState."""
    if isinstance(state, DickeMixture):
        coeffs = SymmetricCoeffs.from_diagonal(state)
    elif isinstance(state, SymmetricCoeffs):
        coeffs = state
    else:
        raise EdlkitError("DIM_MISMATCH", "expected DickeMixture or SymmetricCoeffs")
    n = coeffs.n
    vecs = [dicke_vector(n, i).amplitudes for i in range(n + 1)]
    d = 1 << n
    out = np.zeros((d, d), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            if coeffs.a[i, j] != 0:
                out += coeffs.a[i, j] * np.outer(vecs[i], vecs[j].conj())
    return qcore.DenseState(n, out, validate=False)


def _reduce_coeff_matrix(n, k, a):
    """Raw linear reduction map on coefficient matrices, no state validation."""
    if k == n:
        return np.array(a, dtype=complex)
    b = np.zeros((k + 1, k + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            if a[i, j] == 0:
                continue
            for s in range(k + 1):
                t = j - i + s
                if not 0 <= t <= k:
                    continue
                c = _comb(n - k, i - s)
                if c == 0:
                    continue
                w = c * math.sqrt(_comb(k, s) * _comb(k, t)) / math.sqrt(_comb(n, i) * _comb(n, j))
                b[s, t] += a[i, j] * w
    return b


def symmetric_marginal(coeffs, k):
    """k-qubit reduction of a symmetric state, inside the Dicke basis.

    The reduction of ``|D_n^i><D_n^j|`` onto any k qubits is
    ``sum_s C(n-k, i-s) sqrt(C(k,s) C(k,j-i+s)) / sqrt(C(n,i) C(n,j))
    |D_k^s><D_k^{j-i+s}|``, so coherences survive only if ``|i-j| <= k``.
    """
    n = coeffs.n
    if not 1 <= k <= n:
        raise EdlkitError("DIM_MISMATCH", "marginal size %d outside 1..%d" % (k, n))
    if k == n:
        return coeffs
    return SymmetricCoeffs(k, _reduce_coeff_matrix(n, k, coeffs.a))


def _moments(mix):
    """Hankel moments ``p_s = lam_s / C(n, s)``: Fractions for exact weights, else floats."""
    num = Fraction if mix.exact else float
    return [num(v) / _comb(mix.n, s) for s, v in enumerate(mix.lam)]


def _trace_out_one(p):
    """Moments of the marginal on one qubit fewer, by Pascal's rule ``p'_s = p_s + p_{s+1}``."""
    return [a + b for a, b in zip(p, p[1:])]


def diagonal_marginal(mix, k):
    """k-qubit reduction of a diagonal symmetric state; exact for exact input.

    Walks ``n - k`` Pascal steps down from the moments of ``mix`` and
    multiplies the weights back, ``lam'_s = C(k, s) p'_s``.
    """
    n = mix.n
    if not 1 <= k <= n:
        raise EdlkitError("DIM_MISMATCH", "marginal size %d outside 1..%d" % (k, n))
    if k == n:
        return mix
    p = _moments(mix)
    for _ in range(n - k):
        p = _trace_out_one(p)
    return DickeMixture(k, tuple(x * _comb(k, s) for s, x in enumerate(p)))


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

    @property
    def exact(self):
        return _is_exact([x for row in self.m0 for x in row] + [x for row in self.m1 for x in row])

    def m0_array(self):
        return np.array([[float(x) for x in row] for row in self.m0])

    def m1_array(self):
        return np.array([[float(x) for x in row] for row in self.m1])

    def min_eigenvalues(self):
        return (float(np.linalg.eigvalsh(self.m0_array())[0]),
                float(np.linalg.eigvalsh(self.m1_array())[0]))


def _hankel(p):
    """The Hankel pair of the diagonal state on ``len(p) - 1`` qubits with moments ``p``."""
    n = len(p) - 1
    d0 = n // 2 + 1
    d1 = (n + 1) // 2
    m0 = tuple(tuple(p[r:r + d0]) for r in range(d0))
    m1 = tuple(tuple(p[r + 1:r + 1 + d1]) for r in range(d1))
    return HankelPair(n, m0, m1)


def hankel_pair(mix):
    return _hankel(_moments(mix))


def _exact_psd(rows):
    """Exact PSD test for a symmetric rational matrix by pivoted symmetric elimination.

    The rows are brought to their common denominator and eliminated on
    Python integers.  Pivot on the largest remaining diagonal entry: a
    negative one refutes PSD, a zero one leaves PSD iff the whole remaining
    block is zero, and a positive one passes the test on to its Schur
    complement.  The complement is taken fraction-free, scaled by the
    pivot, and divided by the previous pivot (Bareiss); both factors are
    positive, so PSD-ness, the pivot order and the signs are those of the
    rational elimination.  Entries must be ``int`` or ``Fraction``.
    """
    den = math.lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
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


def _hankel_verdict(pair, exact, tol):
    """``(is_ppt, min_eigs)``: exact pairs by elimination alone (``min_eigs`` None),
    float pairs by their smallest eigenvalues against ``-tol``."""
    if exact:
        return _exact_psd(pair.m0) and _exact_psd(pair.m1), None
    e0, e1 = pair.min_eigenvalues()
    return e0 >= -tol and e1 >= -tol, (e0, e1)


@dataclass(frozen=True)
class PptVerdict:
    is_ppt: bool
    min_eig_m0: float
    min_eig_m1: float
    exact: bool


def is_ppt_diagonal(mix, tol=PSD_TOL):
    """PPT (= full separability) test for a diagonal symmetric state.

    Exact inputs are decided exactly by symmetric elimination; float inputs
    compare the smallest Hankel eigenvalues against ``-tol``.
    """
    pair = hankel_pair(mix)
    verdict, eigs = _hankel_verdict(pair, pair.exact, tol)
    e0, e1 = eigs or pair.min_eigenvalues()
    return PptVerdict(verdict, e0, e1, pair.exact)


def marginal2_ppt(mix):
    """Closed-form PPT test of the 2-qubit marginal.

    Returns ``(ppt, value)`` where the marginal is PPT iff ``value >= 0``:
    ``value = [sum (n-i)(n-i-1) lam_i][sum i(i-1) lam_i] - [sum i(n-i) lam_i]^2``.
    """
    n, lam = mix.n, mix.lam
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    sa = sum((n - i) * (n - i - 1) * lam[i] for i in range(n + 1))
    sb = sum(i * (i - 1) * lam[i] for i in range(n + 1))
    sc = sum(i * (n - i) * lam[i] for i in range(n + 1))
    value = sa * sb - sc * sc
    ppt = value >= 0 if mix.exact else value >= -NONZERO_TOL
    return ppt, value


def marginal3_ppt(mix):
    """Closed-form PPT test of the 3-qubit marginal: ``(ppt, value_a, value_b)``.

    PPT iff both values are nonnegative.
    """
    n, lam = mix.n, mix.lam
    if n < 3:
        raise EdlkitError("DIM_MISMATCH", "need n >= 3")
    s0 = sum((n - i) * (n - i - 1) * (n - i - 2) * lam[i] for i in range(n + 1))
    s1 = sum(i * (i - 1) * (n - i) * lam[i] for i in range(n + 1))
    s2 = sum(i * (n - i) * (n - i - 1) * lam[i] for i in range(n + 1))
    s3 = sum(i * (i - 1) * (i - 2) * lam[i] for i in range(n + 1))
    value_a = s0 * s1 - s2 * s2
    value_b = s2 * s3 - s1 * s1
    if mix.exact:
        ppt = value_a >= 0 and value_b >= 0
    else:
        ppt = value_a >= -NONZERO_TOL and value_b >= -NONZERO_TOL
    return ppt, value_a, value_b


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
    levels are decided by elimination alone, and the smallest Hankel
    eigenvalues are computed only for the level that is reported.
    """
    n = mix.n
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    exact = mix.exact
    levels = [_moments(mix)]
    while len(levels[-1]) > 3:
        levels.append(_trace_out_one(levels[-1]))
    for p in reversed(levels):
        pair = _hankel(p)
        is_ppt, eigs = _hankel_verdict(pair, exact, tol)
        if not is_ppt:
            e0, e1 = eigs or pair.min_eigenvalues()
            cert = {
                "level": pair.n,
                "route": "hankel",
                "min_eig_m0": e0,
                "min_eig_m1": e1,
                "exact": exact,
            }
            return EdlResult(pair.n, "EXACT", cert)
    return EdlResult(None, "NOT_ENTANGLED", {"levels_checked": list(range(2, n + 1))})


def edl_symmetric(coeffs, tol=PSD_TOL):
    """Detection length of a general symmetric state via marginal PPT scans.

    Marginals on two or three qubits and all diagonal marginals are decided
    exactly (PPT = separability there).  A PPT verdict on a non-diagonal
    marginal of four or more qubits certifies nothing, so any such level
    downgrades the result flag to ``"PPT_BOUND"``.
    """
    n = coeffs.n
    if n < 2:
        raise EdlkitError("DIM_MISMATCH", "need n >= 2")
    saw_uncertified_ppt = False
    for k in range(2, n + 1):
        bk = symmetric_marginal(coeffs, k)
        if bk.is_diagonal():
            mu = bk.diagonal_mixture()
            verdict = is_ppt_diagonal(mu, tol=tol)
            if not verdict.is_ppt:
                flag = "PPT_BOUND" if saw_uncertified_ppt else "EXACT"
                return EdlResult(k, flag, {
                    "level": k, "route": "hankel",
                    "min_eig_m0": verdict.min_eig_m0,
                    "min_eig_m1": verdict.min_eig_m1,
                })
        else:
            dense = to_dense(bk).matrix
            half = qcore.Subset.from_indices(k, range(1, k // 2 + 1))
            pt = qcore.partial_transpose(dense, half)
            min_eig = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
            if min_eig < -tol:
                flag = "PPT_BOUND" if saw_uncertified_ppt else "EXACT"
                return EdlResult(k, flag, {
                    "level": k, "route": "dense_ppt", "min_eig": min_eig,
                })
            if k >= 4:
                saw_uncertified_ppt = True
    flag = "NOT_ENTANGLED"
    cert = {"levels_checked": list(range(2, n + 1)),
            "separability_certified": not saw_uncertified_ppt}
    return EdlResult(None, flag, cert)


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


def solution_family(mix, k):
    """General solution of the level-k marginal equations around ``mix``.

    The homogeneous kernel has one basis vector per free index
    ``i in {k+1..n}`` with entries
    ``(-1)^(k-r+1) C(i,k) C(k,r) (i-k)/(i-r)`` at rows ``r <= k``, 1 at row
    ``i`` and 0 elsewhere.
    """
    n = mix.n
    if not 1 <= k <= n - 1:
        raise EdlkitError("BAD_LEVEL", "need 1 <= k <= n-1, got k=%d" % k)
    basis_cols = []
    for i in range(k + 1, n + 1):
        col = [Fraction(0)] * (n + 1)
        for r in range(k + 1):
            col[r] = Fraction((-1) ** (k - r + 1) * _comb(i, k) * _comb(k, r) * (i - k), i - r)
        col[i] = Fraction(1)
        basis_cols.append(col)
    basis_rows = tuple(tuple(basis_cols[c][r] for c in range(n - k)) for r in range(n + 1))
    return SolutionFamily(n, k, tuple(mix.lam), basis_rows)


def _alternative_nonneg_point(mix, k, tol=1e-9):
    """A nonzero parameter vector keeping the solution family nonnegative, or None.

    Each free coordinate is maximized and minimized by the simplex over the
    polytope ``{s : lam + N s >= 0}``; the polytope is bounded (weights sum
    to one) and always contains s = 0.
    """
    fam = solution_family(mix, k)
    N = fam.basis_array()
    lam = mix.floats
    G = -N                      # lam + N s >= 0  <=>  -N s <= lam
    h = lam
    p = N.shape[1]
    for j in range(p):
        for sign in (1.0, -1.0):
            c = np.zeros(p)
            c[j] = sign
            value, point = simplex_max(c, G, h, tol=tol)
            if value > tol:
                return point
    return None


def has_alternative_nonneg(mix, k, tol=1e-9):
    """True iff some other nonnegative weight vector shares all level-k marginals.

    By the general-solution lemma this holds iff the determination length
    exceeds k (for k >= 2, where marginal collections pin the symmetric
    form).
    """
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
    or (iii) every even-index weight is nonzero.
    """
    n = mix.n
    exact = mix.exact
    nz = [_nonzero(v, exact) for v in mix.lam]
    if nz[0] and nz[n]:
        return FullLevelVerdict(True, "extremal_pair")
    if all(nz[i] for i in range(1, n + 1, 2)):
        return FullLevelVerdict(True, "all_odd")
    if all(nz[i] for i in range(0, n + 1, 2)):
        return FullLevelVerdict(True, "all_even")
    return FullLevelVerdict(False, None)


@dataclass(frozen=True)
class SdlResult:
    """Determination length, possibly as an interval ``[lo, hi]``.

    ``flag`` is ``"EXACT"`` (closed form or collapsed interval),
    ``"DERIVED_RULE"`` (closed form in the no-vanishing-weight case, where
    the supporting argument combines the general-solution lemma at level k
    with the vanishing-weight upper bound at level k+1), or ``"INTERVAL"``
    when the linear programs leave a gap.
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

    Resolution order: full-level conditions; bit-flip normalization to the
    smaller maximal support index k; closed form when at most one weight
    vanishes on {0..k}; otherwise a bracket from the level-m linear
    programs (lower bound from the largest m with an alternative solution,
    upper bound from the smallest m >= k without one).
    """
    n = mix.n
    full = sdl_full_level(mix)
    if full:
        cert = {"route": "full_level", "condition": full.condition}
        if full.condition == "extremal_pair":
            # compatible sibling rho + a(|D^0><D^n| + h.c.) stays PSD for a^2 <= lam_0 lam_n
            cert["ghz_block_amp"] = math.sqrt(float(mix.lam[0]) * float(mix.lam[n])) / 2.0
        return SdlResult(n, n, "EXACT", cert)

    support_fwd = mix.support()
    support_rev = mix.reversed().support()
    flipped = max(support_rev) < max(support_fwd)
    work = mix.reversed() if flipped else mix
    support = support_rev if flipped else support_fwd
    k = max(support)
    if k == 0:
        # pure |0...0>: a product state, single-qubit marginals already determine it
        return SdlResult(1, 1, "EXACT", {"route": "rank_criterion", "flipped": flipped})

    exact = work.exact
    zeros = [i for i in range(k + 1) if not _nonzero(work.lam[i], exact)]
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

    # two or more vanishing weights below the support top: bracket by LPs.
    # Alternatives are monotone (an alternative at level m restricts to one
    # at m-1), so scan downward for the first hit.
    m_max = None
    witness = None
    for m in range(n - 1, 1, -1):
        point = _alternative_nonneg_point(work, m, tol=tol)
        if point is not None:
            m_max = m
            witness = solution_family(work, m).member([float(x) for x in point])
            break
    lo = 2 if m_max is None else m_max + 1
    hi = max(k, lo)
    cert = {"route": "lp_bracket", "k": k, "flipped": flipped,
            "alternative_level": m_max}
    if witness is not None:
        cert["alternative_member"] = tuple(float(x) for x in witness)
    flag = "EXACT" if lo == hi else "INTERVAL"
    return SdlResult(lo, hi, flag, cert)


def rank_criterion_sdl1(rho, tol=PSD_TOL):
    """True iff at most one single-qubit marginal has rank above one.

    That is exactly the condition for the determination length to be 1.
    """
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

    Requires n >= 4 and ``(n^2-2n)/(n^2-2n+1) < |alpha|^2 < 1``; in that
    window the two-qubit marginal is already NPT while the diagonal sibling
    ``|alpha|^2 |D^1><D^1| + |beta|^2 |D^n><D^n|`` matches every marginal of
    n-2 qubits, so determination needs n-1 of them.
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

    m0 = np.array([[(n - 2) * a2 / n, a2 / n], [a2 / n, 1.0 - a2]])
    m0_min_eig = float(np.linalg.eigvalsh(m0)[0])
    if m0_min_eig >= 0:
        raise EdlkitError("BAD_AMPLITUDE", "two-qubit Hankel block unexpectedly PSD")

    lam = [0.0] * (n + 1)
    lam[1] = a2
    lam[n] = 1.0 - a2
    sigma = DickeMixture(n, tuple(lam))
    subsets = [qcore.Subset.from_indices(n, c)
               for c in itertools.combinations(range(1, n + 1), n - 2)]
    verdict = check_compatibility(to_dense(sigma), psi.to_density(), subsets)
    if not verdict:
        raise EdlkitError("BAD_AMPLITUDE",
                          "diagonal sibling failed marginal match (dev %.2e)" % verdict.max_dev)
    return GapPureResult(psi, 2, n - 1, n - 3, m0, m0_min_eig, sigma, verdict.max_dev)


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

    Requires ``lam_0 lam_n != 0`` (full-level determination) together with a
    negative two-qubit PPT value, witnessed here both through the quadratic
    form ``sum_{ij} (n-i) j lam_i lam_j [(n-i-1)(j-1) - i(n-j)]`` and the
    closed-form marginal test.
    """
    mix = lam if isinstance(lam, DickeMixture) else DickeMixture(n, tuple(lam))
    if mix.n != n:
        raise EdlkitError("DIM_MISMATCH", "weight vector does not match n=%d" % n)
    exact = mix.exact
    if not (_nonzero(mix.lam[0], exact) and _nonzero(mix.lam[n], exact)):
        raise EdlkitError("BAD_LAMBDA", "need lam_0 lam_n != 0")
    quad = sum((n - i) * j * mix.lam[i] * mix.lam[j] * ((n - i - 1) * (j - 1) - i * (n - j))
               for i in range(n + 1) for j in range(n + 1))
    ppt2, value2 = marginal2_ppt(mix)
    if not (quad < 0 and not ppt2):
        raise EdlkitError("BAD_LAMBDA",
                          "two-qubit marginal is PPT (value %.6g); no gap certified" % float(quad))
    full = sdl_full_level(mix)
    if not full:
        raise EdlkitError("BAD_LAMBDA", "full-level condition lost (unreachable for valid input)")
    amp = math.sqrt(float(mix.lam[0]) * float(mix.lam[n])) / 2.0
    return GapMixedResult(mix, 2, n, n - 2, float(quad), float(value2), amp)
