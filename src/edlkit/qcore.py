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

All dense operations are capped at ``MAX_QUBITS`` qubits; beyond that the
matrices do not fit the intended workload and a ``TOO_LARGE`` error is
raised.
"""

from __future__ import annotations

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


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise EdlkitError("DIM_MISMATCH", "qubit count must be a positive integer, got %r" % (n,))
    if n > MAX_QUBITS:
        raise EdlkitError("TOO_LARGE", "n=%d exceeds the dense cap of %d qubits" % (n, MAX_QUBITS))


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
        if not 0 <= self.mask < (1 << self.n):
            raise EdlkitError("DIM_MISMATCH", "mask %#x out of range for n=%d" % (self.mask, self.n))

    @classmethod
    def from_indices(cls, n, indices):
        mask = 0
        for j in indices:
            if not 1 <= int(j) <= n:
                raise EdlkitError("BAD_VERTEX", "particle label %r outside 1..%d" % (j, n))
            mask |= 1 << (int(j) - 1)
        return cls(n, mask)

    @property
    def indices(self):
        """Sorted 1-based particle labels."""
        return tuple(j for j in range(1, self.n + 1) if self.mask >> (j - 1) & 1)

    @property
    def size(self):
        return bin(self.mask).count("1")

    def complement(self):
        return Subset(self.n, ((1 << self.n) - 1) ^ self.mask)

    def __contains__(self, j):
        return 1 <= j <= self.n and bool(self.mask >> (j - 1) & 1)


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

    @classmethod
    def from_matrix(cls, mat, validate=True):
        arr, n = _as_matrix(mat)
        return cls(n, arr, validate=validate)


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
    if isinstance(subset, Subset):
        if subset.n != n:
            raise EdlkitError("DIM_MISMATCH", "subset is over n=%d, state has n=%d" % (subset.n, n))
        return subset.mask
    return Subset.from_indices(n, subset).mask


def partial_trace(rho, keep):
    """Reduced matrix on the particles in ``keep`` (ascending label order).

    Parameters
    ----------
    rho : DenseState or square ndarray
    keep : Subset or iterable of 1-based labels; must be nonempty.

    Returns
    -------
    ndarray of shape ``(2**|keep|, 2**|keep|)``.
    """
    mat, n = _as_matrix(rho)
    mask = _subset_mask(n, keep)
    if mask == 0:
        raise EdlkitError("EMPTY_SUBSET", "cannot keep the empty subset in a partial trace")
    if mask == (1 << n) - 1:
        return mat.copy()
    keep_axes = [j - 1 for j in range(1, n + 1) if mask >> (j - 1) & 1]
    trace_axes = [j - 1 for j in range(1, n + 1) if not mask >> (j - 1) & 1]
    # axis j-1 of the reshaped tensor is the row bit of particle j (most
    # significant first), axis n + (j-1) the matching column bit
    tensor = mat.reshape([2] * (2 * n))
    for a in sorted(trace_axes, reverse=True):
        tensor = np.trace(tensor, axis1=a, axis2=a + tensor.ndim // 2)
    k = len(keep_axes)
    return tensor.reshape(1 << k, 1 << k)


def partial_transpose(rho, subset):
    """Transpose the tensor factors of the particles in ``subset``.

    The empty subset is allowed and acts as the identity.  Returns a raw
    complex matrix; the result of a partial transpose is generally not a
    state.
    """
    mat, n = _as_matrix(rho)
    if isinstance(subset, Subset):
        mask = _subset_mask(n, subset)
    elif subset is None:
        mask = 0
    else:
        mask = _subset_mask(n, subset) if subset else 0
    if mask == 0:
        return mat.copy()
    tensor = mat.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for j in range(1, n + 1):
        if mask >> (j - 1) & 1:
            perm[j - 1], perm[n + j - 1] = perm[n + j - 1], perm[j - 1]
    return tensor.transpose(perm).reshape(1 << n, 1 << n)


def min_eigenvalue(mat, tol=STRUCT_TOL):
    """Smallest eigenvalue of a Hermitian matrix.

    Raises ``NOT_HERMITIAN`` if the input deviates from hermiticity by more
    than ``tol`` in max norm.
    """
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
    within ``tol``.
    """
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
    """Computational basis vector for the bitstring ``bits`` (particle 1 first)."""
    _check_n(n)
    if len(bits) != n:
        raise EdlkitError("DIM_MISMATCH", "bitstring %r has length %d, expected %d" % (bits, len(bits), n))
    idx = 0
    for b in bits:
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
