"""Symmetric-subspace machinery: marginals, Hankel criteria, both lengths."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from edlkit import oracle, qcore
from edlkit.errors import EdlkitError
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
    marginal2_ppt,
    marginal3_ppt,
    rank_criterion_sdl1,
    sdl_diagonal,
    sdl_full_level,
    solution_family,
    symmetric_marginal,
    to_dense,
    _exact_psd,
)


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


def test_symmetric_marginal_is_subset_independent():
    # permutation invariance: any k-subset gives the same reduction
    rng = np.random.default_rng(22)
    co = random_coeffs(rng, 5)
    dense = to_dense(co).matrix
    ref = oracle.brute_marginal(dense, 5, [1, 2, 3])
    import itertools
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


def sylvester_psd(a):
    """PSD by Sylvester's criterion: every principal minor is nonnegative."""
    d = len(a)
    return all(oracle.exact_det([[a[r][c] for c in sel] for r in sel]) >= 0
               for size in range(1, d + 1)
               for sel in itertools.combinations(range(d), size))


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


def test_two_body_value_tracks_hankel_determinant_sign():
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        mix = random_exact_mixture(rng, n, zero_prob=0.3)
        ppt, value = marginal2_ppt(mix)
        reduced = diagonal_marginal(mix, 2) if n > 2 else mix
        det = oracle.exact_det([list(r) for r in hankel_pair(reduced).m0])
        assert (value >= 0) == (det >= 0)
        assert ppt == (value >= 0)


def test_three_body_values_exact():
    mix = DickeMixture(4, (Fraction(1, 24), Fraction(1, 3), Fraction(1, 12),
                           Fraction(1, 2), Fraction(1, 24)))
    ppt, value_a, value_b = marginal3_ppt(mix)
    assert not ppt
    assert value_a == Fraction(41, 9)
    assert value_b == Fraction(-16, 9)


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
