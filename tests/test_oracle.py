"""The loop-nest reference implementations must be trustworthy on their own."""

import math

import numpy as np
import pytest

from edlkit import oracle, qcore


def test_dense_from_diagonal_ghz_weights():
    rho = oracle.dense_from_diagonal([0.5, 0, 0, 0.5], 3)
    want = np.zeros((8, 8))
    want[0, 0] = want[7, 7] = 0.5
    assert np.max(np.abs(rho - want)) < 1e-15


def test_dense_from_diagonal_is_projector_mixture():
    # weight at Hamming level 1 becomes the rank-one projector onto the
    # symmetric vector: a uniform 3x3 block of 1/3, not a classical mixture
    rho = oracle.dense_from_diagonal([0, 1, 0, 0], 3)
    level = (0b001, 0b010, 0b100)
    for r in level:
        for c in level:
            assert rho[r, c] == pytest.approx(1 / 3)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(rho) > 1e-15) == 9


def test_dense_from_symmetric_coherence_normalization():
    # |D_2^0><D_2^2| sits at a single entry with weight 1/sqrt(C(2,0)C(2,2)) = 1
    a = np.zeros((3, 3))
    a[0, 0] = a[2, 2] = 0.5
    a[0, 2] = a[2, 0] = 0.5
    rho = oracle.dense_from_symmetric(a, 2)
    assert rho[0b00, 0b11] == pytest.approx(0.5)
    # the weight-1 coherence of |D_3^0><D_3^1| spreads as 1/sqrt(3)
    a = np.zeros((4, 4))
    a[0, 0] = a[1, 1] = 0.5
    a[0, 1] = a[1, 0] = 0.5
    rho = oracle.dense_from_symmetric(a, 3)
    assert rho[0b000, 0b001] == pytest.approx(0.5 / math.sqrt(3))


def test_embeddings_agree_on_diagonal_input():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        lam = rng.dirichlet(np.ones(n + 1))
        direct = oracle.dense_from_diagonal(lam, n)
        a = np.diag(lam)
        via_coeffs = oracle.dense_from_symmetric(a, n)
        assert np.max(np.abs(direct - via_coeffs)) < 1e-12


def test_brute_marginal_traces_out_the_right_qubit():
    # |01><01|: keeping particle 1 gives |0>, keeping particle 2 gives |1>
    v = qcore.basis_ket(2, (0, 1))
    rho = np.outer(v, v.conj())
    keep1 = oracle.brute_marginal(rho, 2, [1])
    keep2 = oracle.brute_marginal(rho, 2, [2])
    assert np.allclose(keep1, np.diag([1.0, 0.0]))
    assert np.allclose(keep2, np.diag([0.0, 1.0]))


def test_brute_marginal_of_product_state_factorizes():
    rng = np.random.default_rng(6)
    singles = []
    for _ in range(3):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = g @ g.conj().T
        singles.append(s / np.trace(s).real)
    rho = qcore.kron(qcore.kron(singles[0], singles[1]), singles[2])
    for j in (1, 2, 3):
        marg = oracle.brute_marginal(rho, 3, [j])
        assert np.max(np.abs(marg - singles[j - 1])) < 1e-12
    marg = oracle.brute_marginal(rho, 3, [1, 3])
    assert np.max(np.abs(marg - qcore.kron(singles[0], singles[2]))) < 1e-12


def test_brute_partial_transpose_of_bell_pair_and_full_mask():
    bell = (qcore.basis_ket(2, (0, 0)) + qcore.basis_ket(2, (1, 1))) / np.sqrt(2)
    pt = oracle.brute_partial_transpose(np.outer(bell, bell.conj()), 2, 0b01)
    # the transposed Bell projector is half the swap
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = want[1, 2] = want[2, 1] = 0.5
    assert np.max(np.abs(pt - want)) < 1e-15
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.array_equal(oracle.brute_partial_transpose(a, 3, 0b111), a.T)
    assert np.array_equal(oracle.brute_partial_transpose(a, 3, 0), a)


def test_brute_embed_places_factors():
    x = qcore.PAULI_1Q["X"]
    z = qcore.PAULI_1Q["Z"]
    # mask 0b101 holds particles 1 and 3; mask 0b010 particle 2
    assert np.array_equal(oracle.brute_embed(3, 0b101, np.kron(x, z)),
                          np.kron(np.kron(x, np.eye(2)), z))
    assert np.array_equal(oracle.brute_embed(3, 0b010, z),
                          np.kron(np.kron(np.eye(2), z), np.eye(2)))
    assert np.array_equal(oracle.brute_embed(2, 0, np.array([[2.0]])), 2 * np.eye(4))


def test_brute_ppt_flags_bell_pair():
    bell = (qcore.basis_ket(2, (0, 0)) + qcore.basis_ket(2, (1, 1))) / np.sqrt(2)
    is_ppt, min_eig = oracle.brute_ppt(np.outer(bell, bell.conj()), 2)
    assert not is_ppt
    assert min_eig == pytest.approx(-0.5, abs=1e-12)


def test_brute_ppt_passes_product_state():
    rho = np.diag([0.4, 0.1, 0.3, 0.2])
    is_ppt, min_eig = oracle.brute_ppt(rho, 2)
    assert is_ppt and min_eig >= 0


def test_exhaustive_cover_small_counts():
    count, witness = oracle.exhaustive_min_connected_cover(5, 3)
    assert count == 2
    count, _w = oracle.exhaustive_min_connected_cover(4, 2)
    assert count == 3
    count, _w = oracle.exhaustive_min_connected_cover(6, 3)
    assert count == 3  # ceil(5/2)
    count, _w = oracle.exhaustive_min_connected_cover(3, 3)
    assert count == 1


def test_exhaustive_cover_witness_is_connected_and_covering():
    count, witness = oracle.exhaustive_min_connected_cover(6, 4)
    seen = set()
    for block in witness:
        seen.update(block)
    assert seen == set(range(1, 7))
    assert len(witness) == count
