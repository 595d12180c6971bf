"""Dense linear-algebra core: index conventions, reductions, transposes."""

import numpy as np
import pytest

from edlkit import oracle, qcore, witness
from edlkit.errors import EdlkitError


def cholesky_min_eig(h, tol=1e-11):
    """Bisection on 'h - s*I is positive definite', independent of eigvalsh."""
    h = (np.asarray(h, dtype=complex) + np.asarray(h, dtype=complex).conj().T) / 2
    d = h.shape[0]
    centers = np.diag(h).real
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    lo = float(np.min(centers - radii)) - 1.0
    hi = float(np.max(centers + radii)) + 1.0

    def is_pd(shift):
        try:
            np.linalg.cholesky(h - shift * np.eye(d))
            return True
        except np.linalg.LinAlgError:
            return False

    while hi - lo > tol:
        mid = (lo + hi) / 2
        if is_pd(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def random_density(rng, n):
    d = 1 << n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    assert np.array_equal(qcore.kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(qcore.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                       np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_matches_index_formula():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = qcore.kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert out[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


def test_subset_round_trip():
    s = qcore.Subset.from_indices(5, [2, 4])
    assert s.mask == 0b01010
    assert s.indices == (2, 4)
    assert s.size == 2
    assert s.complement().indices == (1, 3, 5)
    assert 4 in s and 1 not in s


def test_subset_rejects_bad_labels():
    with pytest.raises(EdlkitError) as err:
        qcore.Subset.from_indices(3, [0])
    assert err.value.code == "BAD_VERTEX"
    with pytest.raises(EdlkitError):
        qcore.Subset.from_indices(3, [4])
    # labels and counts are integers: no truncation of 1.5, no bool
    for labels in ([1.5], [True]):
        with pytest.raises(EdlkitError) as err:
            qcore.Subset.from_indices(3, labels)
        assert err.value.code == "BAD_VERTEX"
    # a repeated label is refused, as by the layout entry points, not deduplicated
    for labels in ([1, 1], (2, 3, 2), iter([3, 3])):
        with pytest.raises(EdlkitError) as err:
            qcore.Subset.from_indices(3, labels)
        assert err.value.code == "DIM_MISMATCH"
    for n, mask in ((3, 1.0), (True, 1)):
        with pytest.raises(EdlkitError) as err:
            qcore.Subset(n, mask)
        assert err.value.code == "DIM_MISMATCH"
    # the count is checked before any label is compared with it
    with pytest.raises(EdlkitError) as err:
        qcore.Subset.from_indices("3", [1])
    assert err.value.code == "DIM_MISMATCH"
    s = qcore.Subset.from_indices(np.int64(3), [np.int64(2), np.uint8(3)])
    assert s.indices == (2, 3) and type(s.mask) is int
    assert np.int64(2) in s and 2.0 not in s and True not in qcore.Subset(3, 1)


def test_basis_ket_most_significant_first():
    # particle 1 owns the most significant bit
    v = qcore.basis_ket(3, (1, 0, 0))
    assert v[0b100] == 1.0 and np.sum(np.abs(v)) == 1.0
    v = qcore.basis_ket(3, (0, 0, 1))
    assert v[0b001] == 1.0
    assert qcore.basis_ket(3, "011")[0b011] == 1.0
    assert qcore.basis_ket(2, (np.int64(1), 0))[0b10] == 1.0
    for bits in ((0, 2), (1, -1), "0a", (1.0, 0), (True, 0)):
        with pytest.raises(EdlkitError) as err:
            qcore.basis_ket(2, bits)
        assert err.value.code == "BAD_LABEL", bits


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        rho = random_density(rng, n)
        size = int(rng.integers(1, n + 1))
        keep = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        fast = qcore.partial_trace(rho, qcore.Subset.from_indices(n, keep))
        slow = oracle.brute_marginal(rho, n, keep)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 4)
    out = qcore.partial_trace(rho, qcore.Subset.from_indices(4, [2, 3]))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_partial_trace_keep_everything_is_identity():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 3)
    out = qcore.partial_trace(rho, qcore.Subset.from_indices(3, [1, 2, 3]))
    assert np.max(np.abs(out - rho)) < 1e-14


def test_partial_trace_empty_subset_raises():
    rho = np.eye(4) / 4
    with pytest.raises(EdlkitError) as err:
        qcore.partial_trace(rho, qcore.Subset(2, 0))
    assert err.value.code == "EMPTY_SUBSET"


def test_ghz_two_qubit_marginal():
    rho = qcore.ghz_vector(3).to_density().matrix
    marg = qcore.partial_trace(rho, qcore.Subset.from_indices(3, [1, 2]))
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    assert np.max(np.abs(marg - want)) < 1e-14


def test_partial_transpose_bell_negativity():
    bell = (qcore.basis_ket(2, (0, 0)) + qcore.basis_ket(2, (1, 1))) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    pt = qcore.partial_transpose(rho, qcore.Subset.from_indices(2, [1]))
    eigs = np.linalg.eigvalsh(pt)
    assert eigs[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution_and_full_mask():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 3)
    sub = qcore.Subset.from_indices(3, [1, 3])
    back = qcore.partial_transpose(qcore.partial_transpose(rho, sub), sub)
    assert np.max(np.abs(back - rho)) < 1e-14
    full = qcore.partial_transpose(rho, qcore.Subset.from_indices(3, [1, 2, 3]))
    assert np.max(np.abs(full - rho.T)) < 1e-14


def test_partial_transpose_agrees_with_oracle_split():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        rho = random_density(rng, n)
        is_ppt, min_eig = oracle.brute_ppt(rho, n)
        front = qcore.Subset.from_indices(n, range(1, n // 2 + 1))
        pt = qcore.partial_transpose(rho, front)
        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] == pytest.approx(min_eig, abs=1e-10)


def test_layout_matches_index_loop_references():
    # every mask at n = 1..4: each route of qcore's one particle layout against the loops
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        d = 1 << n
        rho = random_density(rng, n)
        v = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        for mask in range(1 << n):
            labels = qcore._labels_of(mask)
            rest = qcore._labels_of(((1 << n) - 1) ^ mask)
            pt = oracle.brute_partial_transpose(rho, n, mask)
            assert np.array_equal(qcore.partial_transpose(rho, labels), pt), (n, mask)
            gather = rho.ravel()[witness._pt_permutation(n, mask)].reshape(d, d)
            assert np.array_equal(gather, pt), (n, mask)
            shape = (1 << len(labels),) * 2
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(witness.expand_operator(n, labels, h),
                                  oracle.brute_embed(n, mask, h)), (n, mask)
            if mask:
                marg = qcore.partial_trace(rho, labels)
                assert np.max(np.abs(marg - oracle.brute_marginal(rho, n, labels))) < 1e-14
            else:
                with pytest.raises(EdlkitError) as err:
                    qcore.partial_trace(rho, labels)
                assert err.value.code == "EMPTY_SUBSET"
            # the split of one vector and of three columns: M M^dag is the marginal on
            # the mask, M^T conj(M) the one on the rest
            for cols in (v[:, 0], v):
                a = qcore._split(cols, n, mask)
                assert a.shape == (1 << len(labels), 1 << len(rest)) + cols.shape[1:]
                a = a.reshape(a.shape[0], a.shape[1], -1)
                gram = cols.reshape(d, -1) @ cols.reshape(d, -1).conj().T
                for sub, got in ((labels, np.einsum("aci,bci->ab", a, a.conj())),
                                 (rest, np.einsum("cai,cbi->ab", a, a.conj()))):
                    if sub:
                        ref = oracle.brute_marginal(gram, n, sub)
                        assert np.max(np.abs(got - ref)) < 1e-12, (n, mask, sub)


def test_layout_entry_points_share_one_label_rule():
    rng = np.random.default_rng(18)
    rho = random_density(rng, 3)
    for call in (qcore.partial_trace, qcore.partial_transpose,
                 lambda m, s: witness.expand_operator(3, s, np.eye(4))):
        for subset, code in ((2, "DIM_MISMATCH"), (0, "DIM_MISMATCH"), (1.5, "DIM_MISMATCH"),
                             ([1, 1], "DIM_MISMATCH"), ((2, 3, 2), "DIM_MISMATCH"),
                             (qcore.Subset(2, 0b11), "DIM_MISMATCH"), ([0, 1], "BAD_VERTEX"),
                             ([1, 4], "BAD_VERTEX"), ([1.0, 2], "BAD_VERTEX"),
                             ([True, 2], "BAD_VERTEX")):
            with pytest.raises(EdlkitError) as err:
                call(rho, subset)
            assert err.value.code == code, (call, subset)
    # None and [] are the empty subset, a Subset its mask, labels in any order
    for empty in (None, [], qcore.Subset(3, 0)):
        out = qcore.partial_transpose(rho, empty)
        assert np.array_equal(out, rho) and not np.shares_memory(out, rho)
        with pytest.raises(EdlkitError) as err:
            qcore.partial_trace(rho, empty)
        assert err.value.code == "EMPTY_SUBSET"
    want = qcore.partial_transpose(rho, [1, 3])
    for subset in ((3, 1), qcore.Subset(3, 0b101), np.array([1, 3])):
        assert np.array_equal(qcore.partial_transpose(rho, subset), want)
    assert np.array_equal(qcore.partial_trace(rho, (3, 1)), qcore.partial_trace(rho, [1, 3]))
    # the embedding checks its qubit count as the matrix entry points do
    for n, code in ((-1, "DIM_MISMATCH"), (0, "DIM_MISMATCH"), (qcore.MAX_QUBITS + 1, "TOO_LARGE")):
        with pytest.raises(EdlkitError) as err:
            witness.expand_operator(n, [], np.eye(1))
        assert err.value.code == code, n


def test_min_eigenvalue_against_cholesky_bisection():
    rng = np.random.default_rng(16)
    for d in (2, 4, 8, 16):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        assert qcore.min_eigenvalue(h) == pytest.approx(cholesky_min_eig(h), abs=1e-9)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(EdlkitError) as err:
        qcore.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.code == "NOT_HERMITIAN"


def test_structure_checks_reject_bad_tolerances():
    # a NaN tolerance would let the deviation of [[0, 1], [0, 0]] from Hermitian pass
    # unnoticed and every structure check of is_density fail
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    calls = [lambda tol: qcore.min_eigenvalue(skew, tol=tol),
             lambda tol: qcore.is_density(np.eye(2) / 2, tol=tol)]
    for call in calls:
        for tol in (-1e-9, float("nan"), float("inf"), -float("inf"), "1e-9", None):
            with pytest.raises(EdlkitError) as err:
                call(tol)
            assert err.value.code == "BAD_TOL", tol
    # tol = 0 stays legal
    assert qcore.is_density(np.eye(2) / 2, tol=0.0)
    with pytest.raises(EdlkitError) as err:
        qcore.min_eigenvalue(skew, tol=0.0)
    assert err.value.code == "NOT_HERMITIAN"


def test_pauli_string_entries():
    xx = qcore.pauli_string(2, "XX")
    assert np.array_equal(xx, np.fliplr(np.eye(4)))
    zi = qcore.pauli_string(2, "ZI")
    assert np.array_equal(zi, np.diag([1.0, 1.0, -1.0, -1.0]))
    y = qcore.pauli_string(1, "Y")
    assert y[0, 1] == -1j and y[1, 0] == 1j


def test_pauli_string_bad_label():
    with pytest.raises(EdlkitError) as err:
        qcore.pauli_string(2, "XQ")
    assert err.value.code == "BAD_LABEL"


def test_pauli_strings_orthogonal():
    rng = np.random.default_rng(17)
    labels = ["III", "XYZ", "ZZI", "IYX"]
    for a in labels:
        for b in labels:
            ip = np.trace(qcore.pauli_string(3, a).conj().T @ qcore.pauli_string(3, b))
            assert ip == pytest.approx(8.0 if a == b else 0.0)


def test_is_density_verdicts():
    good = qcore.is_density(np.eye(4) / 4)
    assert good.ok and bool(good)
    bad_trace = qcore.is_density(np.eye(4))
    assert not bad_trace.trace_one and not bad_trace.ok
    bad_psd = qcore.is_density(np.diag([1.5, -0.5, 0.0, 0.0]))
    assert not bad_psd.psd
    assert "eigenvalue" in bad_psd.describe() or "trace" in bad_psd.describe()


def test_dense_state_validation():
    with pytest.raises(EdlkitError) as err:
        qcore.DenseState(2, np.eye(4))
    assert err.value.code == "NOT_DENSITY"
    ok = qcore.DenseState(2, np.eye(4) / 4)
    assert ok.n == 2


def test_pure_vector_norm_check():
    with pytest.raises(EdlkitError):
        qcore.PureVector(1, np.array([1.0, 1.0]))
    v = qcore.PureVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    rho = v.to_density().matrix
    assert np.max(np.abs(rho - 0.5 * np.ones((2, 2)))) < 1e-12


def test_pure_vector_rejects_non_finite_amplitudes():
    for bad in ([1.0, float("nan")], [float("nan"), 0.0], [float("inf"), 0.0]):
        with pytest.raises(EdlkitError) as err:
            qcore.PureVector(1, np.array(bad))
        assert err.value.code == "DIM_MISMATCH"


def test_max_qubits_guard():
    with pytest.raises(EdlkitError) as err:
        qcore.Subset.from_indices(qcore.MAX_QUBITS + 1, [1])
    assert err.value.code == "TOO_LARGE"
