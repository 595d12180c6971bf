"""Symmetric-subspace machinery: marginals, Hankel criteria, both lengths."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from edlkit import oracle, qcore, symmetric
from edlkit._simplex import simplex_max
from edlkit.errors import EdlkitError
from edlkit.oracle import sylvester_psd
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
    rank_criterion_sdl1,
    sdl_diagonal,
    sdl_full_level,
    solution_family,
    symmetric_marginal,
    to_dense,
    _alternative_member,
    _alternative_nonneg_point,
    _exact_psd,
    _kernel_array,
    _kernel_rows,
    _level_direction,
    _reduce_coeff_matrix,
    _weight_pattern,
)
from check_pattern_domain import is_valid_alternative, pattern_mismatches
from check_symmetric_ppt import ppt_mismatches


def random_exact_mixture(rng, n, zero_prob=0.0):
    while True:
        raw = [int(rng.integers(1, 40)) for _ in range(n + 1)]
        if zero_prob > 0:
            raw = [0 if rng.random() < zero_prob else x for x in raw]
        total = sum(raw)
        if total > 0:
            return DickeMixture(n, tuple(Fraction(x, total) for x in raw))


def random_coeffs(rng, n):
    g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    a = g @ g.conj().T
    return SymmetricCoeffs(n, a / np.trace(a).real)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_mixture_validation():
    with pytest.raises(EdlkitError):
        DickeMixture(2, (0.5, 0.6, 0.1))       # sums above one
    with pytest.raises(EdlkitError):
        DickeMixture(2, (-0.1, 0.6, 0.5))      # negative weight
    with pytest.raises(EdlkitError):
        DickeMixture(2, (0.5, 0.5))            # wrong length
    for bad in ((0.5, float("nan"), 0.5), (float("nan"),) * 3,
                (float("inf"), 0.5, 0.5), (Fraction(1, 2), float("nan"), Fraction(1, 2))):
        with pytest.raises(EdlkitError) as err:
            DickeMixture(2, bad)               # non-finite weight
        assert err.value.code == "BAD_WEIGHT"
    for n, lam in ((2.0, (0.5, 0.5, 0.0)), (True, (0.5, 0.5))):
        with pytest.raises(EdlkitError) as err:
            DickeMixture(n, lam)
        assert err.value.code == "DIM_MISMATCH"
    assert DickeMixture(np.int64(2), (0.5, 0.5, 0.0)).support() == (0, 1)
    m = DickeMixture(2, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    assert m.exact and m.support() == (0, 1)
    assert m.reversed().lam == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


def test_coeffs_validation_and_diagonal_path():
    with pytest.raises(EdlkitError):
        SymmetricCoeffs(2, np.array([[0.5, 1.0, 0], [0, 0.5, 0], [0, 0, 0]]))
    nan = float("nan")
    for bad in (np.diag([0.5, nan, 0.5]), np.array([[0.5, nan, 0], [nan, 0.5, 0], [0, 0, 0]]),
                np.diag([0.5, 0.5, 0]) + 1j * np.diag([0, nan, 0])):
        with pytest.raises(EdlkitError) as err:
            SymmetricCoeffs(2, bad)
        assert err.value.code == "BAD_WEIGHT"
    a = np.diag([0.25, 0.5, 0.25])
    co = SymmetricCoeffs(2, a)
    assert co.is_diagonal()
    assert co.diagonal_mixture().lam == (0.25, 0.5, 0.25)
    co2 = SymmetricCoeffs.from_diagonal(DickeMixture(2, (0.25, 0.5, 0.25)))
    assert np.allclose(co2.a, a)


def test_pure_amplitude_embedding():
    amps = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    co = SymmetricCoeffs.from_pure_amplitudes(3, amps)
    dense = to_dense(co).matrix
    ghz = qcore.ghz_vector(3).to_density().matrix
    assert np.max(np.abs(dense - ghz)) < 1e-12


def test_dicke_vector_amplitudes():
    v = dicke_vector(3, 1).amplitudes
    for idx in (0b001, 0b010, 0b100):
        assert v[idx] == pytest.approx(1 / math.sqrt(3))
    assert np.sum(np.abs(v) > 0) == 3
    assert np.array_equal(dicke_vector(np.int64(3), np.int64(1)).amplitudes, v)
    with pytest.raises(EdlkitError) as err:
        dicke_vector(3, 1.5)
    assert err.value.code == "BAD_WEIGHT"


def test_dicke_vectors_orthonormal():
    for n in range(1, 9):
        vecs = np.array([dicke_vector(n, i).amplitudes for i in range(n + 1)]).T
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n + 1))) < 1e-12, n


def test_to_dense_matches_oracle_embeddings():
    rng = np.random.default_rng(47)
    for n in range(1, 9):
        co = random_coeffs(rng, n)
        assert np.max(np.abs(to_dense(co).matrix - oracle.dense_from_symmetric(co.a, n))) <= 1e-12, n
        mix = random_exact_mixture(rng, n, zero_prob=0.3)
        got = to_dense(mix).matrix
        assert np.max(np.abs(got - oracle.dense_from_diagonal(mix.lam, n))) <= 1e-12, n


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_symmetric_marginal_matches_brute_force():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        co = random_coeffs(rng, n)
        fast = to_dense(symmetric_marginal(co, k)).matrix
        slow = oracle.brute_marginal(to_dense(co).matrix, n, list(range(1, k + 1)))
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst < 1e-10


def test_reduce_coeff_matrix_matches_loop_reference():
    # the Pascal walk against the term-by-term loop, every level k, one matrix at a
    # time and as a stack (the last two axes are reduced)
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        for k in range(1, n + 1):
            mats = []
            for _ in range(3):
                g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
                a = (g + g.conj().T) / 2
                fast = _reduce_coeff_matrix(n, k, a)
                assert fast.shape == (k + 1, k + 1)
                assert np.max(np.abs(fast - oracle.reduce_coeff_matrix_loop(n, k, a))) <= 1e-13
                mats.append(a)
            stack = np.stack(mats).reshape(3, 1, n + 1, n + 1)
            fast = _reduce_coeff_matrix(n, k, stack)
            assert fast.shape == (3, 1, k + 1, k + 1)
            for a, b in zip(mats, fast[:, 0]):
                assert np.max(np.abs(b - oracle.reduce_coeff_matrix_loop(n, k, a))) <= 1e-13


def test_symmetric_marginal_is_subset_independent():
    # permutation invariance: any k-subset gives the same reduction
    rng = np.random.default_rng(22)
    co = random_coeffs(rng, 5)
    dense = to_dense(co).matrix
    ref = oracle.brute_marginal(dense, 5, [1, 2, 3])
    for combo in itertools.combinations(range(1, 6), 3):
        other = oracle.brute_marginal(dense, 5, list(combo))
        assert np.max(np.abs(other - ref)) < 1e-12


def test_diagonal_marginal_exact_values():
    mix = DickeMixture(4, (Fraction(1, 2), 0, Fraction(1, 2), 0, 0))
    out = diagonal_marginal(mix, 2)
    assert out.lam == (Fraction(7, 12), Fraction(1, 3), Fraction(1, 12))
    # and the float path lands on the same numbers
    outf = diagonal_marginal(DickeMixture(4, (0.5, 0, 0.5, 0, 0)), 2)
    assert np.allclose(outf.floats, [7 / 12, 1 / 3, 1 / 12])
    assert diagonal_marginal(mix, np.int64(2)).lam == out.lam
    with pytest.raises(EdlkitError) as err:
        diagonal_marginal(mix, 1.5)
    assert err.value.code == "DIM_MISMATCH"


def test_diagonal_marginal_matches_binomial_reference():
    # the Pascal walk on moments equals the binomial-sum marginal exactly on
    # rationals, and to rounding on floats, at every level
    rng = np.random.default_rng(41)
    for n in range(1, 11):
        for trial in range(6):
            mix = random_exact_mixture(rng, n, zero_prob=0.3 * (trial % 2))
            fmix = DickeMixture(n, tuple(float(x) for x in mix.lam))
            for k in range(1, n + 1):
                assert diagonal_marginal(mix, k).lam == \
                    oracle.diagonal_marginal_binomial(mix.lam, n, k), (mix.lam, k)
                got = diagonal_marginal(fmix, k).lam
                want = oracle.diagonal_marginal_binomial(fmix.lam, n, k)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15, (fmix.lam, k)


def test_diagonal_marginal_agrees_with_dense_reduction():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        mix = random_exact_mixture(rng, n)
        fast = np.diag([float(x) * math.comb(k, s) / 1.0 for s, x in enumerate(
            [w / math.comb(k, s2) for s2, w in enumerate([float(v) for v in diagonal_marginal(mix, k).floats])])])
        dense = oracle.dense_from_diagonal(mix.floats, n)
        slow = oracle.brute_marginal(dense, n, list(range(1, k + 1)))
        got = to_dense(diagonal_marginal(mix, k)).matrix
        assert np.max(np.abs(got - slow)) < 1e-12


def test_coherence_range_in_marginals():
    # |D_n^i><D_n^j| survives reduction to k qubits only when |i-j| <= k
    a = np.zeros((5, 5), dtype=complex)
    a[0, 0] = a[4, 4] = 0.5
    a[0, 4] = a[4, 0] = 0.4
    co = SymmetricCoeffs(4, a)
    m3 = symmetric_marginal(co, 3)
    assert np.max(np.abs(m3.a - np.diag(np.diag(m3.a)))) < 1e-14
    a2 = np.zeros((5, 5), dtype=complex)
    a2[0, 0] = a2[2, 2] = 0.5
    a2[0, 2] = a2[2, 0] = 0.3
    m2 = symmetric_marginal(SymmetricCoeffs(4, a2), 2)
    assert abs(m2.a[0, 2]) > 0.01
    assert np.array_equal(symmetric_marginal(SymmetricCoeffs(4, a2), np.int64(2)).a, m2.a)
    with pytest.raises(EdlkitError) as err:
        symmetric_marginal(co, 2.0)
    assert err.value.code == "DIM_MISMATCH"


# ---------------------------------------------------------------------------
# Hankel criteria
# ---------------------------------------------------------------------------

def test_hankel_pair_exact_entries():
    mix = DickeMixture(4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 12),
                           Fraction(1, 24), Fraction(1, 24)))
    pair = hankel_pair(mix)
    assert pair.m0 == ((Fraction(1, 2), Fraction(1, 12), Fraction(1, 72)),
                       (Fraction(1, 12), Fraction(1, 72), Fraction(1, 96)),
                       (Fraction(1, 72), Fraction(1, 96), Fraction(1, 24)))
    assert oracle.exact_det([list(r) for r in pair.m0]) == Fraction(-49, 1492992)
    assert pair.min_eigenvalues()[0] < 0


def test_hankel_shapes():
    pair3 = hankel_pair(DickeMixture(3, (0.25, 0.25, 0.25, 0.25)))
    assert pair3.m0_array().shape == (2, 2)
    assert pair3.m1_array().shape == (2, 2)
    pair4 = hankel_pair(DickeMixture(4, (0.2,) * 5))
    assert pair4.m0_array().shape == (3, 3)
    assert pair4.m1_array().shape == (2, 2)


def test_hankel_ppt_matches_dense_ppt():
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 8))
        mix = random_exact_mixture(rng, n, zero_prob=0.2)
        verdict = is_ppt_diagonal(mix)
        dense = oracle.dense_from_diagonal(mix.floats, n)
        is_ppt, min_eig = oracle.brute_ppt(dense, n)
        margin = min(abs(float(verdict.min_eig_m0)), abs(float(verdict.min_eig_m1)),
                     abs(min_eig))
        if margin < 1e-8:
            continue
        checked += 1
        assert verdict.is_ppt == is_ppt, (n, mix.lam)
    assert checked > 40


def exact_psd_cases(rng):
    """Seeded rational symmetric matrices with d = 1..6 around the PSD boundary."""
    def ints(size):
        return [int(x) for x in rng.integers(-2, 3, size=size)]

    for d in range(1, 7):
        yield [[Fraction(0)] * d for _ in range(d)]
        if d > 1:
            off = [[Fraction(0)] * d for _ in range(d)]
            r, c = sorted(int(x) for x in rng.choice(d, size=2, replace=False))
            off[r][c] = off[c][r] = Fraction(int(rng.choice([-3, -1, 1, 2])), 5)
            yield off
        for _ in range(12):
            rank = int(rng.integers(1, d + 1))
            q = int(rng.integers(1, 7))
            g = [[Fraction(x, q) for x in ints(rank)] for _ in range(d)]
            if rng.random() < 0.5:
                g[int(rng.integers(d))] = [Fraction(0)] * rank
            gram = [[sum(x * y for x, y in zip(g[r], g[c])) for c in range(d)]
                    for r in range(d)]
            yield gram
            r, c = (int(x) for x in rng.integers(d, size=2))
            for sign in (1, -1):
                bumped = [row[:] for row in gram]
                bumped[r][c] += Fraction(sign, int(rng.integers(1, 50)))
                bumped[c][r] = bumped[r][c]
                yield bumped
            sym = [ints(d) for _ in range(d)]
            yield [[Fraction(sym[min(r, c)][max(r, c)], q) for c in range(d)]
                   for r in range(d)]
    # Hankel pairs of n = 10 mixtures over the prime denominator 211, whose
    # moments have large, unequal denominators: random weights, and mixtures
    # of two binomial (product-state) weight vectors, which are PSD of rank
    # at most two, also with the last diagonal entry lowered by 1/211
    n = 10
    for _ in range(3):
        raw = rng.multinomial(211, [1 / (n + 1)] * (n + 1))
        pair = hankel_pair(DickeMixture(n, tuple(Fraction(int(x), 211) for x in raw)))
        yield [list(r) for r in pair.m0]
        yield [list(r) for r in pair.m1]
    for _ in range(3):
        ts = [Fraction(int(x), 211) for x in rng.integers(1, 211, size=2)]
        lam = tuple(sum(Fraction(1, 2) * math.comb(n, i) * t ** i * (1 - t) ** (n - i)
                        for t in ts) for i in range(n + 1))
        pair = hankel_pair(DickeMixture(n, lam))
        yield [list(r) for r in pair.m0]
        yield [list(r) for r in pair.m1]
        bumped = [list(r) for r in pair.m0]
        bumped[-1][-1] -= Fraction(1, 211)
        yield bumped


def test_exact_psd_matches_sylvester_criterion():
    verdicts = []
    for a in exact_psd_cases(np.random.default_rng(31)):
        verdict = _exact_psd(a)
        assert verdict == sylvester_psd(a), a
        verdicts.append(verdict)
    assert sum(verdicts) > 100 and len(verdicts) - sum(verdicts) > 100


def sylvester_edl_cases(rng):
    """Seeded exact mixtures with n = 2..10: random weights with zeros, weights over the
    prime denominator 211, and mixtures of two binomial (product-state) weight vectors,
    whose Hankel matrices are PSD of rank at most two, as they are and with a little
    weight moved either way between their two top entries.  The binomial weights at
    n >= 9 have denominators above 2^64."""
    for n in range(2, 11):
        for _ in range(3):
            yield random_exact_mixture(rng, n, zero_prob=0.3)
        raw = rng.multinomial(211, [1 / (n + 1)] * (n + 1))
        yield DickeMixture(n, tuple(Fraction(int(x), 211) for x in raw))
        ts = [Fraction(int(x), 211) for x in rng.integers(1, 211, size=2)]
        lam = [sum(Fraction(1, 2) * math.comb(n, i) * t ** i * (1 - t) ** (n - i) for t in ts)
               for i in range(n + 1)]
        yield DickeMixture(n, tuple(lam))
        delta = min(lam[-2:]) / 7
        for sign in (1, -1):
            yield DickeMixture(n, tuple(lam[:-2]) + (lam[-2] + sign * delta, lam[-1] - sign * delta))


def test_edl_diagonal_matches_sylvester_reference():
    # the integer moments and elimination of edl_diagonal against Sylvester's
    # criterion on the binomial-sum marginals, value and certificate alike
    mixes = list(sylvester_edl_cases(np.random.default_rng(32)))
    assert max(x.denominator for mix in mixes for x in mix.lam) > 2 ** 64
    levels = []
    for mix in mixes:
        res = edl_diagonal(mix)
        ref = oracle.edl_diagonal_sylvester(mix.lam, mix.n)
        assert (res.value, res.certificate) == ref, (mix.n, mix.lam)
        levels.append(ref[0])
    assert levels.count(None) >= 10 and len(set(levels)) >= 6, levels


def test_two_body_value_tracks_hankel_determinant_sign():
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        mix = random_exact_mixture(rng, n, zero_prob=0.3)
        ppt, value = oracle.marginal2_ppt(mix)
        reduced = diagonal_marginal(mix, 2) if n > 2 else mix
        det = oracle.exact_det([list(r) for r in hankel_pair(reduced).m0])
        assert (value >= 0) == (det >= 0)
        assert ppt == (value >= 0)


def test_three_body_values_exact():
    mix = DickeMixture(4, (Fraction(1, 24), Fraction(1, 3), Fraction(1, 12),
                           Fraction(1, 2), Fraction(1, 24)))
    ppt, value_a, value_b = oracle.marginal3_ppt(mix)
    assert not ppt
    assert value_a == Fraction(41, 9)
    assert value_b == Fraction(-16, 9)


def test_hankel_rule_gives_closed_form_verdicts():
    # the one Hankel rule against the paper's closed forms, on exact weights
    rng = np.random.default_rng(41)
    counts = {}
    for n in range(2, 11):
        for trial in range(30):
            mix = random_exact_mixture(rng, n, zero_prob=0.5 * (trial % 2))
            _ppt, value = oracle.marginal2_ppt(mix)
            det = oracle.exact_det([list(r) for r in hankel_pair(diagonal_marginal(mix, 2)).m0])
            assert (value > 0, value < 0) == (det > 0, det < 0), (n, mix.lam)
            for k, closed_form in ((2, oracle.marginal2_ppt), (3, oracle.marginal3_ppt))[:n - 1]:
                verdict = is_ppt_diagonal(diagonal_marginal(mix, k)).is_ppt
                assert verdict == closed_form(mix)[0], (n, k, mix.lam)
                counts[k, verdict] = counts.get((k, verdict), 0) + 1
    assert min(counts.values()) > 30 and len(counts) == 4


# ---------------------------------------------------------------------------
# detection length
# ---------------------------------------------------------------------------

def test_single_dicke_weight_detected_at_two():
    for n in range(3, 9):
        for i in range(1, n):
            lam = [Fraction(0)] * (n + 1)
            lam[i] = Fraction(1)
            res = edl_diagonal(DickeMixture(n, tuple(lam)))
            assert res.value == 2 and res.flag == "EXACT", (n, i)


def test_two_weight_mixture_boundary():
    for n in range(3, 8):
        bound = Fraction(n, 2 * n - 2)
        at = DickeMixture(n, tuple([1 - bound] + [Fraction(0)] * 1 + [bound] + [Fraction(0)] * (n - 2)))
        res = edl_diagonal(at)
        assert res.value == 3, n
        above = bound + Fraction(1, 100)
        res2 = edl_diagonal(DickeMixture(n, tuple([1 - above, Fraction(0), above] + [Fraction(0)] * (n - 2))))
        assert res2.value == 2, n


def test_edl_monotone_in_marginal_size():
    # once a level is NPT every larger level is NPT too
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        mix = random_exact_mixture(rng, n, zero_prob=0.4)
        seen_npt = False
        for k in range(2, n + 1):
            npt = not is_ppt_diagonal(diagonal_marginal(mix, k)).is_ppt
            if seen_npt:
                assert npt, (n, mix.lam, k)
            seen_npt = seen_npt or npt


def test_edl_invariant_under_bit_flip():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        mix = random_exact_mixture(rng, n, zero_prob=0.3)
        a = edl_diagonal(mix)
        b = edl_diagonal(mix.reversed())
        assert a.value == b.value


def test_edl_symmetric_handles_coherent_state():
    # equal mixture of a GHZ projector and the middle Dicke level: the
    # two-body marginal is diagonal and PPT, the full state is NPT
    a = np.zeros((4, 4))
    a[0, 0] = a[3, 3] = a[0, 3] = a[3, 0] = 0.25
    a[1, 1] = 0.5
    res = edl_symmetric(SymmetricCoeffs(3, a))
    assert res.value == 3 and res.flag == "EXACT"
    reduced = symmetric_marginal(SymmetricCoeffs(3, a), 2)
    assert reduced.is_diagonal()
    det = oracle.exact_det([[Fraction(5, 12), Fraction(1, 6)],
                            [Fraction(1, 6), Fraction(1, 4)]])
    assert det == Fraction(11, 144)


def test_edl_symmetric_flags_unentangled_state():
    res = edl_symmetric(SymmetricCoeffs.from_diagonal(
        DickeMixture(3, (Fraction(1), 0, 0, 0))))
    assert res.value is None and res.flag == "NOT_ENTANGLED"
    # dephased mixture of two spin-coherent product states: separable and
    # diagonal, so its PPT marginals of four and five qubits are certified
    lam = [(math.comb(5, i) * (0.3 ** i * 0.7 ** (5 - i) + 0.7 ** i * 0.3 ** (5 - i))) / 2
           for i in range(6)]
    res = edl_symmetric(SymmetricCoeffs(5, np.diag(lam)))
    assert res.value is None and res.flag == "NOT_ENTANGLED"
    assert res.certificate == {"levels_checked": [2, 3, 4, 5], "separability_certified": True}


def oracle_edl_scan(coeffs):
    """``(value, min_eig)`` of the first level whose brute-force half-cut partial
    transpose is not PSD, ``(None, None)`` when every level passes."""
    n = coeffs.n
    dense = oracle.dense_from_symmetric(coeffs.a, n)
    for k in range(2, n + 1):
        ppt, min_eig = oracle.brute_ppt(oracle.brute_marginal(dense, n, range(1, k + 1)), k)
        if not ppt:
            return k, min_eig
    return None, None


def test_edl_symmetric_matches_oracle_scan():
    rng = np.random.default_rng(31)
    values = set()
    for n in (4, 5, 6):
        for _ in range(6):
            g = rng.normal(size=(n + 1, int(rng.integers(1, n + 2))))
            g = g + 1j * rng.normal(size=g.shape)
            p = rng.random()
            a = (1 - p) * g @ g.conj().T / np.linalg.norm(g) ** 2 + p * np.eye(n + 1) / (n + 1)
            coeffs = SymmetricCoeffs(n, a)
            res = edl_symmetric(coeffs)
            value, min_eig = oracle_edl_scan(coeffs)
            assert res.value == value, (n, a)
            if value is not None:
                assert res.certificate == {"level": value, "route": "dicke_ppt",
                                           "min_eig": pytest.approx(min_eig, abs=1e-10)}
            values.add(value)
    assert None in values and len(values) >= 4, values


def test_edl_symmetric_stays_in_the_dicke_product_space(monkeypatch):
    # no 2^k embedding or Dicke basis, dense partial transpose, Hankel route or
    # validated per-level state at any level; the caches are cleared first, so a
    # table built earlier from the Dicke basis cannot hide its use
    def banned(*args, **kwargs):
        raise AssertionError("dense, Hankel or validating route taken")
    for value in vars(symmetric).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    coeffs = SymmetricCoeffs(10, np.full((11, 11), 1 / 22) + np.eye(11) / 22)
    for module, name in ((symmetric, "to_dense"), (symmetric, "is_ppt_diagonal"),
                         (symmetric, "_dicke_basis"), (symmetric, "SymmetricCoeffs"),
                         (qcore, "partial_transpose")):
        monkeypatch.setattr(module, name, banned)
    res = edl_symmetric(coeffs)
    assert res.certificate["route"] == "dicke_ppt"


def test_edl_symmetric_flags_uncertified_ppt_levels():
    # (|D_n^0> + |D_n^1>)/sqrt(2) under white noise p on the symmetric
    # subspace keeps a Dicke coherence at every level.  At n = 6, p = 4/5
    # levels 2..4 pass the PPT test and level 5 fails it, so 5 is an upper
    # bound only; at n = 5, p = 9/10 every level passes, uncertified.
    def noisy(n, p):
        c = np.zeros(n + 1)
        c[:2] = 1 / math.sqrt(2)
        return SymmetricCoeffs(n, (1 - p) * np.outer(c, c) + p * np.eye(n + 1) / (n + 1))
    coeffs = noisy(6, 0.8)
    assert not symmetric_marginal(coeffs, 4).is_diagonal()
    res = edl_symmetric(coeffs)
    assert res.value == 5 and res.flag == "PPT_BOUND"
    assert res.certificate["min_eig"] == pytest.approx(oracle_edl_scan(coeffs)[1], abs=1e-10)
    res = edl_symmetric(noisy(5, 0.9))
    assert res.value is None and res.flag == "NOT_ENTANGLED"
    assert res.certificate["separability_certified"] is False


def test_half_cut_ppt_matches_dense_partial_transpose():
    # seeded states with n <= 6; CI runs n <= 10 through tests/check_symmetric_ppt.py
    checked, npt, bad = ppt_mismatches(6, 2)
    assert checked == 120 and npt > 0 and not bad, bad


# ---------------------------------------------------------------------------
# solution families and determination length
# ---------------------------------------------------------------------------

def test_solution_family_reproduces_worked_members():
    fam = solution_family(DickeMixture(4, (Fraction(1, 2), 0, Fraction(1, 2), 0, 0)), 2)
    member = fam.member((Fraction(1, 24), Fraction(1, 24)))
    assert member == (Fraction(8, 24), Fraction(11, 24), Fraction(3, 24),
                      Fraction(1, 24), Fraction(1, 24))
    fam2 = solution_family(DickeMixture(4, (Fraction(1, 3), 0, Fraction(1, 3),
                                            Fraction(1, 3), 0)), 2)
    member2 = fam2.member((Fraction(1, 48), Fraction(1, 48)))
    assert member2 == (Fraction(12, 48), Fraction(11, 48), Fraction(7, 48),
                       Fraction(17, 48), Fraction(1, 48))


def test_solution_family_members_keep_unit_sum_and_marginals():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        mix = random_exact_mixture(rng, n)
        fam = solution_family(mix, k)
        s = tuple(Fraction(int(rng.integers(-3, 4)), 97) for _ in range(n - k))
        member = fam.member(s)
        assert sum(member) == 1
        # level-k marginal must be untouched whenever the member is a state
        if all(x >= 0 for x in member):
            other = DickeMixture(n, member)
            assert diagonal_marginal(other, k).lam == diagonal_marginal(mix, k).lam


def test_alternative_solutions_are_prefix_monotone():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        mix = random_exact_mixture(rng, n, zero_prob=0.4)
        flags = [has_alternative_nonneg(mix, m) for m in range(2, n)]
        # once alternatives disappear at some level they stay gone
        for a, b in zip(flags, flags[1:]):
            assert a or not b, (mix.lam, flags)


def test_kernel_rows_match_closed_form():
    for n in range(2, 11):
        for k in range(1, n):
            rows = _kernel_rows(n, k)
            for col, i in enumerate(range(k + 1, n + 1)):
                want = [Fraction(0)] * (n + 1)
                for r in range(k + 1):
                    want[r] = Fraction((-1) ** (k - r + 1) * math.comb(i, k) * math.comb(k, r) * (i - k),
                                       i - r)
                want[i] = Fraction(1)
                got = [rows[r][col] for r in range(n + 1)]
                assert got == want and all(type(x) is Fraction for x in got), (n, k, i)
                # a kernel vector: the level-k marginal of the column vanishes exactly
                assert all(x == 0 for x in oracle.diagonal_marginal_binomial(got, n, k))
            assert solution_family(DickeMixture(n, (Fraction(1),) + (0,) * n), k).basis is rows
            assert not _kernel_array(n, k).flags.writeable
    with pytest.raises(EdlkitError):
        _kernel_rows(4, 4)
    # a float or bool level is refused even though its integer twin is cached
    mix = DickeMixture(4, (Fraction(1),) + (0,) * 4)
    for bad in (1.0, True, 4):
        for entry in (solution_family, has_alternative_nonneg):
            with pytest.raises(EdlkitError) as err:
                entry(mix, bad)
            assert err.value.code == "BAD_LEVEL", (entry, bad)
    assert solution_family(mix, np.int64(1)).basis is _kernel_rows(4, 1)


def test_level_pattern_matches_coordinate_search():
    # every n <= 6, level and nonempty proper zero set; CI runs n <= 10
    # through tests/check_pattern_domain.py
    checked, bad = pattern_mismatches(6)
    assert checked == 1002 and not bad, bad


def test_alternative_point_matches_coordinate_search(monkeypatch):
    # a point exists exactly where the coordinate search finds one, also where a tiny
    # step along the cone direction leaves the float verdict to the coordinate LPs, and
    # every point gives a valid alternative
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simplex_max(*args, **kwargs)

    monkeypatch.setattr(symmetric, "simplex_max", counted)
    rng = np.random.default_rng(30)
    mixes = [DickeMixture(6, (Fraction(1, 7),) * 7),
             DickeMixture(4, (0.5, 1e-13, 0.5 - 1e-13, 0.0, 0.0)),
             DickeMixture(4, (0.5, -1e-13, 0.5 + 1e-13, 0.0, 0.0)),
             DickeMixture(6, (0.0, 0.0, 4.1e9 / 7900000001, 3.8e9 / 7900000001, 1 / 7900000001,
                              0.0, 0.0))]
    for _ in range(40):
        n = int(rng.integers(3, 11))
        mix = random_exact_mixture(rng, n, zero_prob=float(rng.choice([0.0, 0.4, 0.7])))
        mixes += [mix, DickeMixture(n, tuple(float(x) for x in mix.lam))]
    fallbacks = points = 0
    for mix in mixes:
        for m in range(1, mix.n):
            _level_direction(mix.n, m, _weight_pattern(mix)[1])  # fill the cache first
            calls.clear()
            got = _alternative_nonneg_point(mix, m)
            want = oracle.alternative_nonneg_point_lp(mix, m)
            assert (got is None) == (want is None), (mix.lam, m)
            assert not (calls and mix.exact), (mix.lam, m)
            fallbacks += bool(calls)
            if got is not None:
                points += 1
                member = _alternative_member(mix.floats, m, got)
                assert is_valid_alternative(mix, m, member), (mix.lam, m)
    assert fallbacks == 3 and points > 100, (fallbacks, points)


def test_tiny_exact_weight_keeps_the_exact_cone_verdict():
    # the tiny weight bounds every step, so no coordinate moves by 1e-9; exact weights still
    # get the alternative at level 3, the float twin keeps the 1e-9 threshold and [2, 4]
    lam = (0, 0, Fraction(4100000000, 7900000001), Fraction(3800000000, 7900000001),
           Fraction(1, 7900000001), 0, 0)
    mix = DickeMixture(6, lam)
    res = sdl_diagonal(mix)
    assert (res.lo, res.hi, res.flag) == (4, 4, "EXACT")
    assert res.certificate["alternative_level"] == 3
    assert is_valid_alternative(mix, 3, res.certificate["alternative_member"])
    assert [has_alternative_nonneg(mix, m) for m in range(1, 6)] == [True, True, True, False, False]
    twin = DickeMixture(6, tuple(float(x) for x in lam))
    res = sdl_diagonal(twin)
    assert (res.lo, res.hi, res.flag) == (2, 4, "INTERVAL")
    assert [has_alternative_nonneg(twin, m) for m in range(1, 6)] == [True, False, False, False, False]


def test_float_twin_bracket_holds_the_exact_value():
    # the tiny float weights hide the alternative at the exact value minus one from the
    # 1e-9 threshold, which lowers the lower bound; the cone test keeps the upper bound
    one, ten = Fraction(1, 1000000001), Fraction(1, 10000000001)
    for lam, exact, twin in [((0, 999999999 * one, 0, one, 0, one, 0, 0), (6, 6), (4, 6)),
                             ((0, 0, 10000000000 * ten, 0, ten, 0), (4, 4), (2, 4))]:
        n = len(lam) - 1
        res = sdl_diagonal(DickeMixture(n, lam))
        assert (res.lo, res.hi, res.flag) == exact + ("EXACT",)
        res = sdl_diagonal(DickeMixture(n, tuple(float(x) for x in lam)))
        assert (res.lo, res.hi, res.flag) == twin + ("INTERVAL",)


def test_float_twin_brackets_keep_the_exact_upper_bound():
    # exact mixtures with one to three weights 1/(10^e + 1), e = 7..11, above
    # NONZERO_TOL as floats so the twin has the same support; the float threshold may
    # lower the twin's lower bound, never move its upper bound
    rng = np.random.default_rng(63)
    lowered = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        support = rng.choice(n + 1, size=int(rng.integers(2, 5)), replace=False).tolist()
        tiny = support[:int(rng.integers(1, len(support)))]
        lam = [Fraction(0)] * (n + 1)
        for i in tiny:
            lam[i] = Fraction(1, 10 ** int(rng.integers(7, 12)) + 1)
        raw = {i: int(rng.integers(1, 40)) for i in support if i not in tiny}
        rest = 1 - sum(lam)
        for i, x in raw.items():
            lam[i] = rest * x / sum(raw.values())
        exact = sdl_diagonal(DickeMixture(n, tuple(lam)))
        twin = sdl_diagonal(DickeMixture(n, tuple(float(x) for x in lam)))
        assert twin.hi == exact.hi and twin.lo <= exact.lo, lam
        lowered += twin.lo < exact.lo
    assert lowered >= 20


def test_full_level_conditions():
    assert sdl_full_level(DickeMixture(3, (0.5, 0, 0, 0.5))).condition == "extremal_pair"
    assert sdl_full_level(DickeMixture(4, (0, 0.4, 0, 0.6, 0))).condition == "all_odd"
    assert sdl_full_level(DickeMixture(4, (0.3, 0, 0.4, 0, 0.3))).condition in ("extremal_pair", "all_even")
    assert not sdl_full_level(DickeMixture(3, (0.5, 0.5, 0, 0)))


def test_sdl_closed_forms():
    for n in range(2, 9):
        for i in range(1, n):
            lam = [Fraction(0)] * (n + 1)
            lam[i] = Fraction(1)
            res = sdl_diagonal(DickeMixture(n, tuple(lam)))
            assert res.exact and res.value == 2, (n, i)
    res = sdl_diagonal(DickeMixture(4, (Fraction(1, 2), 0, Fraction(1, 2), 0, 0)))
    assert res.value == 3 and res.flag == "EXACT"
    res = sdl_diagonal(DickeMixture(3, (Fraction(1, 2), Fraction(1, 2), 0, 0)))
    assert res.value == 2 and res.flag == "DERIVED_RULE"
    res = sdl_diagonal(DickeMixture(3, (0, Fraction(1, 3), Fraction(2, 3), 0)))
    assert res.value == 2
    res = sdl_diagonal(DickeMixture(5, (Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 2))))
    assert res.value == 5 and res.certificate["route"] == "full_level"


def test_sdl_bit_flip_orientation():
    # support {2,3} of four qubits flips to {1,2}, whose top index is smaller
    res = sdl_diagonal(DickeMixture(4, (0, 0, Fraction(1, 2), Fraction(1, 2), 0)))
    assert res.certificate.get("flipped") is True
    assert res.exact


def test_sdl_alternative_member_in_input_frame():
    # support {2, 3, 6} of seven qubits flips to {1, 4, 5}; the LP bracket finds an
    # alternative at level 3 and must report it for the input's weights, not the flipped ones
    mix = DickeMixture(7, (0, 0, Fraction(1, 3), Fraction(1, 6), 0, 0, Fraction(1, 2), 0))
    for state, flipped in ((mix, True), (mix.reversed(), False)):
        cert = sdl_diagonal(state).certificate
        assert cert["route"] == "lp_bracket" and cert["flipped"] is flipped
        m, member = cert["alternative_level"], cert["alternative_member"]
        assert m == 3
        assert min(member) >= -1e-12 and abs(sum(member) - 1) < 1e-12
        assert max(abs(a - float(b)) for a, b in zip(member, state.lam)) >= 1e-3
        got = oracle.diagonal_marginal_binomial(member, 7, m)
        want = oracle.diagonal_marginal_binomial(state.lam, 7, m)
        assert max(abs(a - float(b)) for a, b in zip(got, want)) < 1e-12, flipped


def test_sdl_trivial_product_state():
    res = sdl_diagonal(DickeMixture(4, (Fraction(1), 0, 0, 0, 0)))
    assert res.value == 1
    res = sdl_diagonal(DickeMixture(4, (0, 0, 0, 0, Fraction(1))))
    assert res.value == 1


def test_rank_criterion():
    ket = qcore.basis_ket(3, (0, 1, 0))
    assert rank_criterion_sdl1(np.outer(ket, ket.conj()))
    ghz = qcore.ghz_vector(3).to_density().matrix
    assert not rank_criterion_sdl1(ghz)
    pure0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert rank_criterion_sdl1(qcore.kron(np.eye(2) / 2, pure0))
    assert not rank_criterion_sdl1(qcore.kron(np.eye(2) / 2, np.eye(2) / 2))


def test_compatibility_check():
    rng = np.random.default_rng(30)
    mix = random_exact_mixture(rng, 4)
    dense = to_dense(mix)
    subs = [qcore.Subset.from_indices(4, c) for c in ((1, 2), (2, 3), (3, 4))]
    assert check_compatibility(dense, dense, subs)
    other = to_dense(random_exact_mixture(rng, 4))
    verdict = check_compatibility(other, dense, subs)
    assert not verdict and verdict.worst_subset is not None


def test_symmetric_routes_reject_bad_tolerances():
    # W_3 is detected at pairs; a NaN or infinite tolerance would let no eigenvalue
    # compare below -tol and report it NOT_ENTANGLED.  With a NaN tolerance GHZ_3 would
    # also pass the rank criterion and the two-weight mixture lose its alternative.
    w3 = SymmetricCoeffs(3, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    mix = DickeMixture(3, (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    dense = to_dense(mix)
    subs = [qcore.Subset.from_indices(3, (1, 2))]
    ghz3 = qcore.ghz_vector(3).to_density().matrix
    pair = DickeMixture(5, (0, 0.5, 0, 0, 0.5, 0))
    assert not rank_criterion_sdl1(ghz3) and has_alternative_nonneg(pair, 3)
    calls = [lambda tol: edl_symmetric(w3, tol=tol), lambda tol: edl_diagonal(mix, tol=tol),
             lambda tol: is_ppt_diagonal(mix, tol=tol), lambda tol: sdl_diagonal(mix, tol=tol),
             lambda tol: check_compatibility(dense, dense, subs, tol=tol),
             lambda tol: rank_criterion_sdl1(ghz3, tol=tol),
             lambda tol: has_alternative_nonneg(pair, 3, tol=tol)]
    for call in calls:
        for tol in (-1e-9, float("nan"), float("inf"), -float("inf"), "1e-9", None):
            with pytest.raises(EdlkitError) as err:
                call(tol)
            assert err.value.code == "BAD_TOL", tol
        call(0.0)  # tol = 0 stays legal
    res = edl_symmetric(w3, tol=0.0)
    assert (res.value, res.flag) == (2, "EXACT")


def test_ghz_mixture_compatibility_small():
    n = 4
    ghz = qcore.ghz_vector(n).to_density().matrix
    half = np.zeros_like(ghz)
    half[0, 0] = half[-1, -1] = 0.5
    import itertools
    subs = [qcore.Subset.from_indices(n, c)
            for c in itertools.combinations(range(1, n + 1), n - 1)]
    assert check_compatibility(half, ghz, subs, tol=1e-12)


# ---------------------------------------------------------------------------
# gap families
# ---------------------------------------------------------------------------

def test_gap_pure_family_certified():
    res = gap_pure_family(5, math.sqrt(0.94))
    assert (res.edl, res.sdl, res.gap) == (2, 4, 2)
    assert res.m0_min_eig < 0
    assert res.sigma_compat_dev < 1e-10
    res6 = gap_pure_family(6, math.sqrt(0.97))
    assert res6.gap == 3


def test_gap_pure_family_rejects_weak_amplitude():
    with pytest.raises(EdlkitError) as err:
        gap_pure_family(5, math.sqrt(0.5))
    assert err.value.code == "BAD_AMPLITUDE"
    with pytest.raises(EdlkitError):
        gap_pure_family(3, math.sqrt(0.99))


def test_gap_mixed_family_certified():
    res = gap_mixed_family(4, DickeMixture(4, (Fraction(1, 24), Fraction(1, 3),
                                               Fraction(1, 2), Fraction(1, 12),
                                               Fraction(1, 24))))
    assert (res.edl, res.sdl, res.gap) == (2, 4, 2)
    assert res.quadratic_value < 0 and res.marginal2_value < 0
    res3 = gap_mixed_family(3, DickeMixture(3, (Fraction(1, 12), Fraction(1, 2),
                                                Fraction(1, 3), Fraction(1, 12))))
    assert res3.gap == 1


def test_gap_mixed_family_rejects_zero_extremal_weight():
    with pytest.raises(EdlkitError) as err:
        gap_mixed_family(4, DickeMixture(4, (0, Fraction(1, 2), Fraction(1, 2), 0, 0)))
    assert err.value.code == "BAD_LAMBDA"


def gap_family_edl(family, *args):
    """The detection length a gap family certifies, or None when it refuses."""
    try:
        return family(*args).edl
    except EdlkitError as err:
        assert err.code in ("BAD_LAMBDA", "BAD_AMPLITUDE"), err.code
        return None


def test_boundary_inputs_get_one_verdict():
    # two-qubit marginals with a Hankel eigenvalue in [-PSD_TOL, 0): every route
    # reads them as PPT, the gap families included
    b = 0.5 + 5e-10
    mixes = [DickeMixture(2, ((1 - b) / 2, b, (1 - b) / 2)),
             DickeMixture(3, (0.251316701749, 0.648683298251, 0.0, 0.1))]
    for mix in mixes:
        edl = edl_diagonal(mix).value
        assert edl == edl_symmetric(SymmetricCoeffs.from_diagonal(mix)).value, mix.lam
        assert is_ppt_diagonal(diagonal_marginal(mix, 2)).is_ppt == (edl != 2), mix.lam
        assert gap_family_edl(gap_mixed_family, mix.n, mix) in (None, edl), mix.lam
    alpha = math.sqrt(0.937500001)
    res = gap_family_edl(gap_pure_family, 5, alpha)
    coeffs = SymmetricCoeffs.from_pure_amplitudes(5, [0, alpha, 0, 0, 0, math.sqrt(1 - alpha ** 2)])
    assert res in (None, edl_symmetric(coeffs).value)
