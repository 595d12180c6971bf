"""Acceptance checklist: one test per shipped guarantee.

Each test prints through the terminal summary hook in conftest.py, giving a
single PASSED/FAILED line per criterion.  Tolerances are part of the
guarantee and are frozen here.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from edlkit import oracle, qcore
from edlkit.graphstate import SimpleGraph, graph_bounds, graph_state, uniformity_level
from edlkit.hypergraph import SubsetCollection, all_k_subsets, min_marginal_count
from edlkit.symmetric import (
    DickeMixture,
    SymmetricCoeffs,
    check_compatibility,
    diagonal_marginal,
    dicke_vector,
    edl_diagonal,
    edl_symmetric,
    gap_mixed_family,
    gap_pure_family,
    hankel_pair,
    has_alternative_nonneg,
    is_ppt_diagonal,
    sdl_diagonal,
    sdl_full_level,
    symmetric_marginal,
    to_dense,
)
from edlkit.witness import (
    Witness,
    fully_decomposable_alpha,
    noise_threshold,
    pure_determination_alpha,
    refit_certificates,
    sdl_pure,
    verify_witness,
)

SEED = 20240811


def exact_mixture(rng, n, support):
    raw = [0] * (n + 1)
    for i in support:
        raw[i] = int(rng.integers(1, 30))
    total = sum(raw)
    return DickeMixture(n, tuple(Fraction(x, total) for x in raw))


def dicke_mix_dense(n, weights):
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, w in enumerate(weights):
        v = dicke_vector(n, i).amplitudes
        out += float(w) * np.outer(v, v.conj())
    return out


def four_qubit_probe_state():
    amp = np.zeros(16, dtype=complex)
    amp[0b1000] = 1 / math.sqrt(2)
    amp[0b0100] = 1 / math.sqrt(3)
    amp[0b0010] = 1 / math.sqrt(12)
    amp[0b0001] = 1 / math.sqrt(24)
    amp[0b1111] = 1 / math.sqrt(24)
    return qcore.PureVector(4, amp)


def test_criterion_01_single_dicke_weights_detected_at_two():
    for n in range(3, 9):
        for i in range(1, n):
            lam = [Fraction(0)] * (n + 1)
            lam[i] = Fraction(1)
            res = edl_diagonal(DickeMixture(n, tuple(lam)))
            assert res.value == 2, (n, i)
            assert res.flag == "EXACT"


def test_criterion_02_two_weight_mixtures():
    rng = np.random.default_rng(SEED)
    for n in range(3, 8):
        for _ in range(4):
            mix = exact_mixture(rng, n, (0, 1))
            assert edl_diagonal(mix).value == 2, (n, mix.lam)
        bound = Fraction(n, 2 * n - 2)
        for j in range(1, 5):
            lam2 = bound * Fraction(j, 4)
            lam = [1 - lam2, Fraction(0), lam2] + [Fraction(0)] * (n - 2)
            res = edl_diagonal(DickeMixture(n, tuple(lam)))
            assert res.value == 3, (n, lam2)


def test_criterion_03_four_qubit_example_mixtures():
    s1 = DickeMixture(4, (Fraction(1, 24), Fraction(1, 3), Fraction(1, 12),
                          Fraction(1, 2), Fraction(1, 24)))
    assert edl_diagonal(s1).value == 3
    s2 = DickeMixture(4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 12),
                          Fraction(1, 24), Fraction(1, 24)))
    res = edl_diagonal(s2)
    assert res.value == 4
    pair = hankel_pair(s2)
    assert pair.m0 == ((Fraction(1, 2), Fraction(1, 12), Fraction(1, 72)),
                       (Fraction(1, 12), Fraction(1, 72), Fraction(1, 96)),
                       (Fraction(1, 72), Fraction(1, 96), Fraction(1, 24)))
    assert pair.min_eigenvalues()[0] < 0


def test_criterion_04_ghz_dicke_coherent_mixture():
    a = np.zeros((4, 4))
    a[0, 0] = a[3, 3] = a[0, 3] = a[3, 0] = 0.25
    a[1, 1] = 0.5
    res = edl_symmetric(SymmetricCoeffs(3, a))
    assert res.value == 3 and res.flag == "EXACT"
    # level-2 reduction is diagonal with weights (5/12, 1/3, 1/4); its
    # moment-matrix determinant is the PPT margin and must be exactly 11/144
    reduced = diagonal_marginal(DickeMixture(3, (Fraction(1, 4), Fraction(1, 2),
                                                 Fraction(0), Fraction(1, 4))), 2)
    assert reduced.lam == (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    det = oracle.exact_det([list(r) for r in hankel_pair(reduced).m0])
    assert det == Fraction(11, 144) and det > 0


def test_criterion_05_determination_closed_forms():
    for n in range(2, 9):
        for i in range(1, n):
            lam = [Fraction(0)] * (n + 1)
            lam[i] = Fraction(1)
            res = sdl_diagonal(DickeMixture(n, tuple(lam)))
            assert res.exact and res.value == 2, (n, i)
    rng = np.random.default_rng(SEED)
    for n in range(3, 7):
        assert sdl_diagonal(exact_mixture(rng, n, (0, 2))).value == 3
        assert sdl_diagonal(exact_mixture(rng, n, (0, 1))).value == 2
        assert sdl_diagonal(exact_mixture(rng, n, (1, 2))).value == 2
    # the closed form must land exactly on the alternative-solution bracket
    # for every support pattern
    mismatches = []
    for n in range(3, 7):
        for bits in range(1, 1 << (n + 1)):
            support = [i for i in range(n + 1) if bits >> i & 1]
            mix = exact_mixture(rng, n, support)
            res = sdl_diagonal(mix)
            if max(support) == 0 or min(support) == n:
                lo_ind = 1
            else:
                extremal = 0 in support and n in support
                odd = set(range(1, n + 1, 2))
                even = set(range(0, n + 1, 2))
                full = extremal or set(support) == odd or set(support) == even
                alts = [m for m in range(2, n) if has_alternative_nonneg(mix, m)]
                lo_ind = n if full else (max(alts) + 1 if alts else 2)
            if res.exact:
                if res.value != lo_ind:
                    mismatches.append((n, support, res, lo_ind))
            elif res.lo != lo_ind or res.hi < res.lo:
                mismatches.append((n, support, res, lo_ind))
    assert not mismatches, mismatches[:5]


def test_criterion_06_full_level_condition_vs_reconstruction():
    rng = np.random.default_rng(SEED)
    for n in range(3, 7):
        subs = [qcore.Subset.from_indices(n, c)
                for c in itertools.combinations(range(1, n + 1), n - 1)]
        v0 = dicke_vector(n, 0).amplitudes
        vn = dicke_vector(n, n).amplitudes
        block = np.outer(v0, vn.conj())
        block = block + block.conj().T
        for _ in range(200):
            raw = [0 if rng.random() < 0.45 else int(rng.integers(1, 30))
                   for _ in range(n + 1)]
            if sum(raw) == 0:
                raw[int(rng.integers(0, n + 1))] = 1
            total = sum(raw)
            mix = DickeMixture(n, tuple(Fraction(x, total) for x in raw))
            verdict = bool(sdl_full_level(mix))
            # independent reconstruction: a sibling state at level n-1,
            # either inside the diagonal family or via the extremal coherence
            alt = has_alternative_nonneg(mix, n - 1)
            ghz_ok = False
            if raw[0] > 0 and raw[n] > 0:
                amp = math.sqrt(float(mix.lam[0]) * float(mix.lam[n]))
                rho = to_dense(mix).matrix
                sigma = rho + amp * block
                ghz_ok = (np.linalg.eigvalsh(sigma)[0] > -1e-10
                          and bool(check_compatibility(sigma, rho, subs, tol=1e-10))
                          and np.max(np.abs(sigma - rho)) > 1e-12)
            assert verdict == (alt or ghz_ok), (n, mix.lam)


def test_criterion_07_witness_sdp_noise_thresholds():
    start = time.monotonic()
    psi = four_qubit_probe_state()
    alpha2, _w = fully_decomposable_alpha(psi.to_density().matrix, all_k_subsets(4, 2))
    elapsed = time.monotonic() - start
    assert alpha2 < 0
    assert noise_threshold(alpha2, 4) == pytest.approx(0.1114, abs=0.003)
    assert elapsed < 120.0

    start = time.monotonic()
    rho = dicke_mix_dense(4, (Fraction(1, 3), 0, Fraction(1, 3), 0, 0))
    k = qcore.basis_ket(4, (1, 0, 0, 0))
    rho += np.outer(k, k.conj()) / 3
    alpha3, _w = fully_decomposable_alpha(rho, all_k_subsets(4, 3))
    elapsed = time.monotonic() - start
    assert alpha3 < 0
    assert noise_threshold(alpha3, 4) == pytest.approx(0.1207, abs=0.003)
    assert elapsed < 120.0


def test_criterion_08_two_body_witness_regression():
    rho = dicke_mix_dense(3, (0, Fraction(1, 2), Fraction(1, 2), 0))
    # the four-digit coefficients 0.125 / 0.0556 / 0.0139 round the
    # exact values 1/8, 1/18, 1/72; the rounded operator reports -0.0140 on
    # rho, below the program optimum -1/72, so it cannot itself be exactly
    # decomposable and the feasibility refit runs on the exact coefficients
    printed = (0.125 * qcore.pauli_string(3, "III")
               - 0.0556 * (qcore.pauli_string(3, "XXI") + qcore.pauli_string(3, "IXX")
                           + qcore.pauli_string(3, "YYI") + qcore.pauli_string(3, "IYY"))
               - 0.0139 * (qcore.pauli_string(3, "ZZI") + qcore.pauli_string(3, "IZZ")))
    assert float(np.trace(printed @ rho).real) < 0

    xx_yy = qcore.pauli_string(2, "XX") + qcore.pauli_string(2, "YY")
    zz = qcore.pauli_string(2, "ZZ")
    h12 = np.eye(4) / 8 - xx_yy / 18 - zz / 72
    h23 = -xx_yy / 18 - zz / 72
    coll = SubsetCollection.from_lists(3, [[1, 2], [2, 3]])
    bare = Witness(3, coll,
                   float("nan"),
                   [(qcore.Subset.from_indices(3, (1, 2)), h12),
                    (qcore.Subset.from_indices(3, (2, 3)), h23)],
                   [])
    refit = refit_certificates(bare)
    verdict = verify_witness(refit, rho)
    assert verdict.ok, verdict.failures
    assert verdict.value == pytest.approx(-1 / 72, abs=1e-12)

    alpha, _w = fully_decomposable_alpha(rho, [(1, 2), (2, 3)])
    assert alpha <= verdict.value + 1e-4
    assert noise_threshold(alpha, 3) == pytest.approx(0.1, abs=2e-3)


def test_criterion_09_pure_state_determination_lengths():
    value, alphas = sdl_pure(four_qubit_probe_state())
    assert value == 3
    assert alphas[2] < 1 - 1e-6
    assert alphas[3] >= 1 - 1e-6
    for n in (3, 4, 5):
        value, alphas = sdl_pure(qcore.ghz_vector(n))
        assert value == n, n
        assert alphas[n] >= 1 - 1e-6
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = 1 / math.sqrt(2)
    amp[0b011] = 1 / math.sqrt(3)
    amp[0b111] = 1 / math.sqrt(6)
    value, _alphas = sdl_pure(qcore.PureVector(3, amp))
    assert value == 2


def test_criterion_10_gap_families():
    res = gap_pure_family(5, math.sqrt(0.94))
    assert res.edl == 2
    assert res.sigma_compat_dev <= 1e-10
    det = pure_determination_alpha(res.psi, all_k_subsets(5, 4))
    assert det.alpha == pytest.approx(1.0, abs=1e-6)
    assert res.gap == 2

    mixed4 = gap_mixed_family(4, DickeMixture(4, (Fraction(1, 24), Fraction(1, 3),
                                                  Fraction(1, 2), Fraction(1, 12),
                                                  Fraction(1, 24))))
    assert (mixed4.edl, mixed4.sdl, mixed4.gap) == (2, 4, 2)
    mixed3 = gap_mixed_family(3, DickeMixture(3, (Fraction(1, 12), Fraction(1, 2),
                                                  Fraction(1, 3), Fraction(1, 12))))
    assert (mixed3.edl, mixed3.sdl, mixed3.gap) == (2, 3, 1)


def test_criterion_11_ghz_marginal_compatibility():
    for n in range(3, 9):
        ghz = qcore.ghz_vector(n).to_density().matrix
        half = np.zeros_like(ghz)
        half[0, 0] = half[-1, -1] = 0.5
        subs = [qcore.Subset.from_indices(n, c)
                for c in itertools.combinations(range(1, n + 1), n - 1)]
        verdict = check_compatibility(half, ghz, subs, tol=1e-12)
        assert verdict.compatible and verdict.max_dev <= 1e-12, n


def test_criterion_12_minimal_connected_covers():
    for n in range(2, 8):
        for k in range(2, min(n, 4) + 1):
            count, witness = min_marginal_count(n, k)
            assert count == math.ceil((n - 1) / (k - 1))
            assert count == oracle.exhaustive_min_connected_cover(n, k)[0], (n, k)
    assert min_marginal_count(5, 3)[0] == 2


def test_criterion_13_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        a = g @ g.conj().T
        co = SymmetricCoeffs(n, a / np.trace(a).real)
        dense = to_dense(co).matrix
        for k in range(1, n + 1):
            fast = to_dense(symmetric_marginal(co, k)).matrix
            slow = oracle.brute_marginal(dense, n, list(range(1, k + 1)))
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst <= 1e-10

    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        raw = [0 if rng.random() < 0.3 else int(rng.integers(1, 30))
               for _ in range(n + 1)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        mix = DickeMixture(n, tuple(Fraction(x, total) for x in raw))
        verdict = is_ppt_diagonal(mix)
        dense_ppt, min_eig = oracle.brute_ppt(to_dense(mix).matrix, n)
        margin = min(abs(float(verdict.min_eig_m0)), abs(float(verdict.min_eig_m1)),
                     abs(min_eig))
        if margin < 1e-8:
            continue
        checked += 1
        assert verdict.is_ppt == dense_ppt, (n, mix.lam)
    assert checked >= 150


def test_criterion_14_graph_state_bounds():
    for n in range(4, 8):
        for g in (SimpleGraph.path(n), SimpleGraph.cycle(n)):
            b = graph_bounds(g)
            assert (b.lo, b.hi) == (3, 3), g.edges
    diamond = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    b = graph_bounds(diamond)
    assert (b.lo, b.hi) == (3, 3)
    w = b.orbit.witness
    assert all(w.degree(v) == 2 for v in range(1, 5))  # the orbit reaches C4

    prism = SimpleGraph.from_edges(6, [(1, 2), (2, 3), (1, 3),
                                       (4, 5), (5, 6), (4, 6),
                                       (1, 4), (2, 5), (3, 6)])
    k33 = SimpleGraph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    levels = [uniformity_level(graph_state(g)) for g in (prism, k33)]
    assert sorted(levels)[-1] == 3 and levels.count(3) == 1
    special = prism if levels[0] == 3 else k33
    b = graph_bounds(special)
    assert b.hi == 4  # 3-uniformity forces > 3, so the length is exactly 4


def test_criterion_15_nonconvexity_of_both_lengths():
    a = np.zeros((4, 4))
    a[0, 0] = a[3, 3] = a[0, 3] = a[3, 0] = 0.25
    a[1, 1] = 0.5
    mix_edl = edl_symmetric(SymmetricCoeffs(3, a)).value
    ghz_coeffs = np.zeros((4, 4))
    ghz_coeffs[0, 0] = ghz_coeffs[3, 3] = ghz_coeffs[0, 3] = ghz_coeffs[3, 0] = 0.5
    ghz_edl = edl_symmetric(SymmetricCoeffs(3, ghz_coeffs)).value
    dicke_edl = edl_diagonal(DickeMixture(3, (0, Fraction(1), 0, 0))).value
    assert (mix_edl, ghz_edl, dicke_edl) == (3, 3, 2)
    assert mix_edl > 0.5 * ghz_edl + 0.5 * dicke_edl

    mix_sdl = sdl_diagonal(DickeMixture(3, (Fraction(1, 2), 0, Fraction(1, 2), 0)))
    part_a = sdl_diagonal(DickeMixture(3, (Fraction(1), 0, 0, 0)))
    part_b = sdl_diagonal(DickeMixture(3, (0, 0, Fraction(1), 0)))
    assert (mix_sdl.value, part_a.value, part_b.value) == (3, 1, 2)
    assert mix_sdl.value > 0.5 * part_a.value + 0.5 * part_b.value
