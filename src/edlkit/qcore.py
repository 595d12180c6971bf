"""Dense linear algebra for small multi-qubit systems.

Basis convention
----------------
The computational index of a bitstring ``s1 s2 ... sn`` is
``sum_j s_j * 2**(n-j)``: particle 1 is the most significant bit.  With this
ordering the Hamming weight of an index equals the number of excited qubits,
which keeps the symmetric-subspace bookkeeping elsewhere in the package
simple.

Subsets of particles use 1-based labels.  A :class:`Subset` stores them as a
bitmask where bit ``j-1`` is set iff particle ``j`` belongs to the subset.

Reshaped to ``(2,) * n``, a state vector has particle j on axis ``j-1``, and a
``2^n x 2^n`` matrix has particle j's row bit on axis ``j-1`` and its column
bit on axis ``n + j-1``.  One helper reads that layout for a subset:
:func:`_axes` lists the axes of the particles in a mask, ascending, then those
of the rest.  The marginal split (:func:`_split`), :func:`partial_trace`, the
partial-transpose axis order (:func:`_pt_axes`, read by
:func:`partial_transpose`) and the embedding ``h (x) I`` (:func:`_embed`) all
go through it; no other code flips index bits for a subset.

One rule for counts and labels holds across the package: an integer is any
``numbers.Integral`` except ``bool`` (:func:`_is_integer`), so numpy integers
pass while ``True`` and ``1.0`` do not.  Particle labels become bitmasks only
through :func:`_mask_of`, which rejects any label that is not an integer in
``1..n`` with ``BAD_VERTEX``, and masks become labels through
:func:`_labels_of`.

All dense operations are capped at ``MAX_QUBITS`` qubits; beyond that the
matrices do not fit the intended workload and a ``TOO_LARGE`` error is
raised.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EdlkitError

MAX_QUBITS = 10

# absolute tolerances: structural checks (hermiticity, trace) and PSD checks
STRUCT_TOL = 1e-10
PSD_TOL = 1e-9

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _is_integer(x):
    """An integer of any integral type; ``True`` and ``False`` are not."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_tol(tol):
    """BAD_TOL unless ``tol`` is a finite real number, at least 0."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise EdlkitError("BAD_TOL", "tolerance must be finite and at least 0, got %r" % (tol,))


def _check_n(n):
    if not _is_integer(n) or n < 1:
        raise EdlkitError("DIM_MISMATCH", "qubit count must be a positive integer, got %r" % (n,))
    if n > MAX_QUBITS:
        raise EdlkitError("TOO_LARGE", "n=%d exceeds the dense cap of %d qubits" % (n, MAX_QUBITS))


def _mask_of(n, labels):
    """Bitmask of 1-based particle labels; BAD_VERTEX unless each is an integer in 1..n,
    DIM_MISMATCH unless ``n`` is an integer."""
    if not _is_integer(n):
        raise EdlkitError("DIM_MISMATCH", "particle count must be an integer, got %r" % (n,))
    mask = 0
    for j in labels:
        if not _is_integer(j) or not 1 <= j <= n:
            raise EdlkitError("BAD_VERTEX", "particle label %r outside 1..%d" % (j, n))
        mask |= 1 << (int(j) - 1)
    return mask


def _labels_of(mask):
    """Sorted 1-based labels of the bits set in ``mask``."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@dataclass(frozen=True)
class Subset:
    """Subset of particles out of ``n``, stored as a bitmask.

    Bit ``j-1`` of ``mask`` is set iff particle ``j`` (1-based) is in the
    subset.  The empty subset is representable but most operations reject it.
    """

    n: int
    mask: int

    def __post_init__(self):
        _check_n(self.n)
        if not _is_integer(self.mask) or not 0 <= self.mask < (1 << self.n):
            raise EdlkitError("DIM_MISMATCH", "mask %r out of range for n=%d" % (self.mask, self.n))
        object.__setattr__(self, "mask", int(self.mask))

    @classmethod
    def from_indices(cls, n, indices):
        return cls(n, _mask_of(n, indices))

    @property
    def indices(self):
        """Sorted 1-based particle labels."""
        return _labels_of(self.mask)

    @property
    def size(self):
        return self.mask.bit_count()

    def complement(self):
        return Subset(self.n, ((1 << self.n) - 1) ^ self.mask)

    def __contains__(self, j):
        return _is_integer(j) and 1 <= j <= self.n and bool(self.mask >> (j - 1) & 1)


def _as_matrix(obj):
    """Accept a DenseState or a raw square array, return (array, n)."""
    if isinstance(obj, DenseState):
        return obj.matrix, obj.n
    mat = np.asarray(obj, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise EdlkitError("DIM_MISMATCH", "expected a square matrix, got shape %r" % (mat.shape,))
    d = mat.shape[0]
    n = d.bit_length() - 1
    if 1 << n != d:
        raise EdlkitError("DIM_MISMATCH", "matrix dimension %d is not a power of two" % d)
    _check_n(n)
    return mat, n


@dataclass(frozen=True)
class DenseState:
    """Validated density matrix on ``n`` qubits.

    Construction checks hermiticity and unit trace to ``STRUCT_TOL`` and
    positivity to ``PSD_TOL``.  Pass ``validate=False`` to wrap raw data (the
    oracle tests use this to probe deliberately broken inputs).
    """

    n: int
    matrix: np.ndarray
    validate: bool = True

    def __post_init__(self):
        _check_n(self.n)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (1 << self.n, 1 << self.n):
            raise EdlkitError(
                "DIM_MISMATCH",
                "matrix shape %r does not match n=%d" % (mat.shape, self.n),
            )
        object.__setattr__(self, "matrix", mat)
        if self.validate:
            verdict = is_density(mat, tol=PSD_TOL)
            if not verdict.ok:
                raise EdlkitError("NOT_HERMITIAN" if not verdict.hermitian else "NOT_DENSITY",
                                  "not a density matrix: %s" % verdict.describe())


@dataclass(frozen=True)
class PureVector:
    """Normalized state vector on ``n`` qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (1 << self.n,):
            raise EdlkitError(
                "DIM_MISMATCH",
                "amplitude length %d does not match n=%d" % (amp.shape[0], self.n),
            )
        if not np.isfinite(amp).all():
            raise EdlkitError("DIM_MISMATCH", "amplitudes must be finite")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-9:
            raise EdlkitError("DIM_MISMATCH", "vector norm %.3e is not 1" % norm)
        object.__setattr__(self, "amplitudes", amp)

    def to_density(self):
        amp = self.amplitudes
        return DenseState(self.n, np.outer(amp, amp.conj()), validate=False)


class DensityVerdict:
    """Outcome of :func:`is_density` with the measured deviations."""

    def __init__(self, hermitian, trace_one, psd, herm_dev, trace_dev, min_eig):
        self.hermitian = hermitian
        self.trace_one = trace_one
        self.psd = psd
        self.herm_dev = herm_dev
        self.trace_dev = trace_dev
        self.min_eig = min_eig

    @property
    def ok(self):
        return self.hermitian and self.trace_one and self.psd

    def describe(self):
        return ("hermitian=%s (dev %.2e), trace_one=%s (dev %.2e), psd=%s (min eig %.2e)"
                % (self.hermitian, self.herm_dev, self.trace_one, self.trace_dev,
                   self.psd, self.min_eig))

    def __bool__(self):
        return self.ok


def kron(*mats):
    """Kronecker product of one or more matrices, left factor most significant."""
    if not mats:
        raise EdlkitError("DIM_MISMATCH", "kron needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _subset_mask(n, subset):
    """Bitmask of a :class:`Subset` over ``n`` particles or of an iterable of distinct
    1-based labels (:func:`_mask_of`); None is the empty subset.  DIM_MISMATCH on a
    Subset over another n, a repeated label or a value that is not iterable."""
    if subset is None:
        return 0
    if isinstance(subset, Subset):
        if subset.n != n:
            raise EdlkitError("DIM_MISMATCH", "subset is over n=%d, state has n=%d" % (subset.n, n))
        return subset.mask
    try:
        labels = tuple(subset)
    except TypeError:
        raise EdlkitError("DIM_MISMATCH", "expected a Subset or particle labels, got %r"
                          % (subset,)) from None
    mask = _mask_of(n, labels)
    if mask.bit_count() != len(labels):
        raise EdlkitError("DIM_MISMATCH", "repeated particle label in %r" % (labels,))
    return mask


@functools.lru_cache(maxsize=None)
def _axes(n, mask):
    """Axes of the particles in ``mask``, ascending, then those of the rest: particle j
    sits on axis j-1 of a vector reshaped to ``(2,) * n``.  Cached, since the scan of
    ``graphstate.uniformity_level`` asks for the same masks on every call; every
    caller has ``n <= MAX_QUBITS``, so the cache holds under ``2^(MAX_QUBITS+1)`` entries."""
    return tuple(sorted(range(n), key=lambda j: not mask >> j & 1))


def _split(v, n, mask):
    """``v`` with its leading ``2^n`` axis as ``(2^|S|, 2^(n-|S|))``, the particles of
    ``mask`` first; any trailing axes are kept."""
    k, tail = mask.bit_count(), v.shape[1:]
    t = v.reshape((2,) * n + tail).transpose(_axes(n, mask) + tuple(range(n, v.ndim + n - 1)))
    return t.reshape((1 << k, 1 << (n - k)) + tail)


def _pt_axes(n, mask):
    """Axis order of a ``2^n x 2^n`` matrix reshaped to ``(2,) * 2n`` that transposes the
    particles in ``mask``: each one's row and column axes trade places."""
    order = list(range(2 * n))
    for a in _axes(n, mask)[:mask.bit_count()]:
        order[a], order[n + a] = n + a, a
    return order


def _embed(n, mask, h):
    """``h (x) I`` on n qubits, the factors of ``h`` on the particles of ``mask`` in
    ascending order: built in the split layout, then moved back to particle order."""
    k = mask.bit_count()
    r = 1 << (n - k)
    axes = _axes(n, mask)
    t = (h.reshape(1 << k, 1, 1 << k, 1) * np.eye(r).reshape(1, r, 1, r)).reshape((2,) * (2 * n))
    return t.transpose(np.argsort(axes + tuple(n + a for a in axes))).reshape(1 << n, 1 << n)


def partial_trace(rho, keep):
    """Reduced matrix on the particles in ``keep`` (ascending label order).

    Parameters
    ----------
    rho : DenseState or square ndarray
    keep : Subset or iterable of distinct 1-based labels; must be nonempty.

    Returns
    -------
    ndarray of shape ``(2**|keep|, 2**|keep|)``.
    """
    mat, n = _as_matrix(rho)
    mask = _subset_mask(n, keep)
    if mask == 0:
        raise EdlkitError("EMPTY_SUBSET", "cannot keep the empty subset in a partial trace")
    k = mask.bit_count()
    axes = _axes(n, mask)
    t = mat.reshape((2,) * (2 * n)).transpose(axes + tuple(n + a for a in axes))
    return np.trace(t.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k)), axis1=1, axis2=3)


def partial_transpose(rho, subset):
    """Transpose the tensor factors of the particles in ``subset`` (a Subset, distinct
    1-based labels or None).

    The empty subset is allowed and acts as the identity.  Returns a new raw
    complex matrix, never a view of ``rho``; the result of a partial transpose
    is generally not a state.
    """
    mat, n = _as_matrix(rho)
    order = _pt_axes(n, _subset_mask(n, subset))
    return mat.reshape((2,) * (2 * n)).transpose(order).copy().reshape(1 << n, 1 << n)


def min_eigenvalue(mat, tol=STRUCT_TOL):
    """Smallest eigenvalue of a Hermitian matrix.

    Raises ``NOT_HERMITIAN`` if the input deviates from hermiticity by more
    than ``tol`` in max norm; BAD_TOL unless ``tol`` is finite and at least 0.
    """
    _check_tol(tol)
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise EdlkitError("DIM_MISMATCH", "expected a square matrix, got shape %r" % (arr.shape,))
    dev = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
    if dev > tol:
        raise EdlkitError("NOT_HERMITIAN", "matrix deviates from Hermitian by %.3e" % dev)
    return float(np.linalg.eigvalsh(arr)[0])


def pauli_string(n, spec):
    """Dense matrix of an n-qubit Pauli string such as ``"ZZI"``.

    ``spec[0]`` acts on particle 1 (the most significant bit).
    """
    _check_n(n)
    if len(spec) != n:
        raise EdlkitError("BAD_LABEL", "Pauli string %r has length %d, expected %d" % (spec, len(spec), n))
    factors = []
    for ch in spec:
        if ch not in PAULI_1Q:
            raise EdlkitError("BAD_LABEL", "unknown Pauli label %r in %r" % (ch, spec))
        factors.append(PAULI_1Q[ch])
    return kron(*factors)


def is_density(rho, tol=PSD_TOL):
    """Check hermiticity, unit trace and positivity of a matrix.

    Returns a :class:`DensityVerdict`; truthy iff all three checks pass
    within ``tol``.  BAD_TOL unless ``tol`` is finite and at least 0.
    """
    _check_tol(tol)
    mat, _n = _as_matrix(rho)
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    hermitian = herm_dev <= tol
    trace_dev = abs(complex(np.trace(mat)) - 1.0)
    trace_one = trace_dev <= tol
    if hermitian:
        min_eig = float(np.linalg.eigvalsh(mat)[0])
    else:
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    psd = min_eig >= -tol
    return DensityVerdict(hermitian, trace_one, psd, herm_dev, float(trace_dev), min_eig)


def basis_ket(n, bits):
    """Computational basis vector for the bitstring ``bits`` (particle 1 first).

    Each bit is the integer 0 or 1 or the character ``"0"`` or ``"1"``;
    anything else raises ``BAD_LABEL``.
    """
    _check_n(n)
    if len(bits) != n:
        raise EdlkitError("DIM_MISMATCH", "bitstring %r has length %d, expected %d" % (bits, len(bits), n))
    idx = 0
    for b in bits:
        if not (b in ("0", "1") or _is_integer(b) and 0 <= b <= 1):
            raise EdlkitError("BAD_LABEL", "bit %r in %r is not 0 or 1" % (b, bits))
        idx = (idx << 1) | int(b)
    vec = np.zeros(1 << n, dtype=complex)
    vec[idx] = 1.0
    return vec


def ghz_vector(n):
    """(|0...0> + |1...1>)/sqrt(2) as a PureVector."""
    _check_n(n)
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return PureVector(n, amp)
