"""Conic solver, witness programs, and determination SDPs."""

import itertools

import numpy as np
import pytest

from edlkit import oracle, qcore, witness
from edlkit.errors import EdlkitError
from edlkit.hypergraph import SubsetCollection, all_k_subsets, min_marginal_count
from edlkit.symmetric import (DickeMixture, SymmetricCoeffs, _reduce_coeff_matrix,
                              check_compatibility, dicke_vector)
from edlkit.witness import (
    MAX_ITER,
    SdpBlock,
    SdpProblem,
    Witness,
    edl_upper_bound,
    expand_operator,
    fully_decomposable_alpha,
    noise_threshold,
    pure_determination_alpha,
    refit_certificates,
    sdl_pure,
    smat,
    solve_sdp,
    svec,
    symmetric_sdl_probe,
    verify_witness,
)

PAIR_CHAIN = [(1, 2), (2, 3)]


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def dicke_mix_dense(n, weights):
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, w in enumerate(weights):
        v = dicke_vector(n, i).amplitudes
        out += w * np.outer(v, v.conj())
    return out


# ---------------------------------------------------------------------------
# svec packing and the splitting solver
# ---------------------------------------------------------------------------

def test_svec_roundtrip_and_isometry(rng):
    for d in (1, 2, 3, 5):
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        assert np.max(np.abs(smat(svec(a), d) - a)) < 1e-13
        hs = float(np.trace(a @ b).real)
        assert svec(a) @ svec(b) == pytest.approx(hs, abs=1e-12)


def test_linmap_matrix_represents_partial_trace(rng):
    n = 3
    keep = qcore.Subset.from_indices(n, (1, 3))
    lin = oracle._linmap_matrix(1 << n, 1 << 2, lambda x: qcore.partial_trace(x, keep))
    a = random_hermitian(rng, 1 << n)
    direct = svec(qcore.partial_trace(a, keep))
    assert np.max(np.abs(lin @ svec(a) - direct)) < 1e-12


def test_sdp_minimum_eigenvalue(rng):
    c = random_hermitian(rng, 4)
    problem = SdpProblem(
        blocks=[SdpBlock(4, "psd")],
        objective=[c],
        rows=svec(np.eye(4))[None, :],
        rhs=np.array([1.0]),
    )
    sol = solve_sdp(problem)
    assert sol.status == "OPTIMAL"
    lam = np.linalg.eigvalsh(c)[0]
    assert sol.objective == pytest.approx(lam, abs=1e-5)
    x = sol.blocks[0]
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.eigvalsh((x + x.conj().T) / 2)[0] > -1e-7


def test_sdp_free_block_equality():
    problem = SdpProblem(
        blocks=[SdpBlock(1, "free")],
        objective=[np.array([[2.0]])],
        rows=np.array([[1.0]]),
        rhs=np.array([3.0]),
    )
    sol = solve_sdp(problem)
    assert sol.status == "OPTIMAL"
    assert sol.objective == pytest.approx(6.0, abs=1e-6)
    assert sol.blocks[0][0, 0].real == pytest.approx(3.0, abs=1e-7)


def test_sdp_flags_inconsistent_equalities():
    row = svec(np.eye(2))[None, :]
    problem = SdpProblem(
        blocks=[SdpBlock(2, "psd")],
        objective=[np.eye(2)],
        rows=np.vstack([row, row]),
        rhs=np.array([1.0, 2.0]),
    )
    sol = solve_sdp(problem)
    assert sol.status == "INFEASIBLE"
    assert sol.iterations == 0


def test_sdp_flags_cone_infeasibility():
    # X00 pinned to -1 contradicts positive semidefiniteness
    row = np.zeros((1, 4))
    row[0, 0] = 1.0
    problem = SdpProblem(
        blocks=[SdpBlock(2, "psd")],
        objective=[np.eye(2)],
        rows=row,
        rhs=np.array([-1.0]),
    )
    sol = solve_sdp(problem)
    assert sol.status == "INFEASIBLE"


def test_sdp_reports_iteration_cap(rng, monkeypatch):
    c = random_hermitian(rng, 4)
    problem = SdpProblem(
        blocks=[SdpBlock(4, "psd")],
        objective=[c],
        rows=svec(np.eye(4))[None, :],
        rhs=np.array([1.0]),
    )
    # the rows are unpacked once, before the loop: no svec or smat per iteration
    calls = []
    for name in ("svec", "smat"):
        def counted(*args, real=getattr(witness, name)):
            calls.append(real)
            return real(*args)
        monkeypatch.setattr(witness, name, counted)
    sols, counts = [], []
    for max_iter in (3, 300):
        calls.clear()
        sols.append(solve_sdp(problem, max_iter=max_iter))
        counts.append(len(calls))
    assert sols[0].status == "MAX_ITER" and sols[1].iterations > 3
    assert counts[0] == counts[1]


def test_sdp_blocks_share_one_size():
    # blocks of sizes 1 and 2 (five svec coordinates): the iterate is a stack of one size
    with pytest.raises(EdlkitError) as err:
        solve_sdp(SdpProblem([SdpBlock(1, "psd"), SdpBlock(2, "psd")], [None, np.eye(2)],
                             np.ones((1, 5)), np.array([1.0])))
    assert err.value.code == "DIM_MISMATCH"


def test_bad_block_kind():
    with pytest.raises(EdlkitError) as err:
        SdpBlock(2, "cone_of_shame")
    assert err.value.code == "BAD_KIND"


def test_clip_psd_matches_oracle_projection(rng):
    stacks = [np.array([random_hermitian(rng, d) for _ in range(k)])
              for k, d in ((1, 2), (3, 4), (6, 8))]
    # Hermitian up to rounding: the triangles differ in the last bits, as after an
    # affine step; the projection reads the lower one
    skew = np.array([random_hermitian(rng, 8) for _ in range(4)])
    noise = rng.normal(size=skew.shape) + 1j * rng.normal(size=skew.shape)
    skew += 1e-15 * np.tril(noise)
    assert 0 < np.max(np.abs(skew - skew.conj().transpose(0, 2, 1))) < 1e-14
    stacks.append(skew)
    # a PSD, a negative semidefinite and a rank-deficient block pass through exactly
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    stacks.append(np.array([g @ g.conj().T, -(g @ g.conj().T), np.zeros((4, 4))]))
    for stack in stacks:
        before = stack.copy()
        out = witness._clip_psd(stack)
        assert np.array_equal(stack, before)
        ref = oracle.psd_projection(stack)
        assert np.max(np.abs(out - ref)) <= 1e-12
        for block in out:
            assert np.max(np.abs(block - block.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh((block + block.conj().T) / 2)[0] >= -1e-12
        assert np.max(np.abs(witness._clip_psd(out) - out)) <= 1e-12


def _admm_calls(monkeypatch, run):
    """What ``run()`` returns, and the ``(c, project_affine, project_cone, tol)`` of
    every program it hands to ``_admm``, in call order."""
    programs = []
    real = witness._admm

    def capture(c, project_affine, project_cone, tol, max_iter, memory=0):
        programs.append((c, project_affine, project_cone, tol))
        return real(c, project_affine, project_cone, tol, max_iter, memory)

    monkeypatch.setattr(witness, "_admm", capture)
    out = run()
    monkeypatch.undo()
    return out, programs


def _loop_programs(monkeypatch):
    """Two programs caught at their call into ``_admm``: the random three-qubit pairs
    determination program (its penalty leaves 1 at iteration 25) and the W_3 all-pairs
    witness program."""
    def run():
        rng = np.random.default_rng(20240811)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        oracle.full_determination(qcore.PureVector(3, amp / np.linalg.norm(amp)), all_k_subsets(3, 2))
        fully_decomposable_alpha(dicke_vector(3, 1).to_density().matrix, all_k_subsets(3, 2))

    return _admm_calls(monkeypatch, run)[1]


def test_admm_matches_reference_loop(monkeypatch):
    # the fused loop against the unfused one on the same projections: before and
    # after the first penalty change (a dropped dual rescale shows after it), part
    # way and at convergence; the two differ only by rounding
    determination, witness_program = _loop_programs(monkeypatch)
    for (c, project_affine, project_cone, tol), caps in ((determination, (24, 26, 60, MAX_ITER)),
                                                         (witness_program, (1, 26, 100, MAX_ITER))):
        for cap in caps:
            got = witness._admm(c, project_affine, project_cone, tol, cap)
            ref = oracle.admm_reference(c, project_affine, project_cone, tol, cap)
            assert got[2] == ref[2] and got[5] == ref[5], cap
            assert np.max(np.abs(got[0] - ref[0])) <= 1e-10, cap
            assert np.max(np.abs(got[1] - ref[1])) <= 1e-10, cap
            assert abs(got[6] - ref[6]) <= 1e-10, cap
        assert ref[2] == "OPTIMAL" and ref[5] < MAX_ITER
    # the caps straddle the determination program's first penalty change
    sigmas = [oracle.admm_reference(*determination, cap)[6] for cap in (24, 26)]
    assert sigmas[0] == 1.0 and sigmas[1] != 1.0


def test_anderson_safeguard_and_memory():
    acc = witness._Anderson(2, np.zeros(2))
    v0, g0 = np.array([1.0, 0.0]), np.array([0.5, 0.0])
    v1, g1 = np.array([0.5, 0.0]), np.array([0.0, 0.25])
    step, plain = acc.next_input(v0, g0, True)  # no pair yet: a plain step
    assert plain and np.array_equal(step, v0 - g0)
    step, plain = acc.next_input(v1, g1, True)
    # one pair: gamma fits g1 by dg = g1 - g0 in least squares
    dv, dg = v1 - v0, g1 - g0
    gamma = (dg @ g1) / (dg @ dg)
    assert not plain and np.allclose(step, v1 - g1 - gamma * (dv - dg), atol=1e-15)
    # a larger residual at the extrapolated point: the plain step from v1 instead
    back, plain = acc.next_input(step, 10 * g1, False)
    assert not plain and np.array_equal(back, v1 - g1)
    assert acc.pairs == 0
    # the next pair runs from v1 to the plain step, and a smaller residual is kept
    v2, g2 = back, np.array([0.0, 0.125])
    step, plain = acc.next_input(v2, g2, True)
    dv, dg = v2 - v1, g2 - g1
    assert not plain and np.allclose(step, v2 - g2 - (dg @ g2) / (dg @ dg) * (dv - dg), atol=1e-15)
    kept, plain = acc.next_input(step, 0.5 * g2, False)
    assert plain and np.array_equal(kept, step - 0.5 * g2)
    # two pairs now, and this point takes the older one's slot
    assert acc.pairs == 1


def test_accelerated_solves_stop_on_plain_iterations(monkeypatch):
    # Only a plain step has x and z from one point, so only it may pass the stop test.
    # These seeded single-qubit-marginal programs would pass it at iteration 20, an
    # extrapolation, if the test read every iteration.
    plain = []
    next_input = witness._Anderson.next_input

    def spy(self, v, g, extrapolate):
        out = next_input(self, v, g, extrapolate)
        plain.append(out[1])
        return out

    monkeypatch.setattr(witness._Anderson, "next_input", spy)
    for n, tol in ((3, 3e-5), (4, 5e-6), (4, 1e-5)):
        rng = np.random.default_rng(20240811)
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        plain.clear()
        res = pure_determination_alpha(qcore.PureVector(n, amp / np.linalg.norm(amp)),
                                       all_k_subsets(n, 1), tol=tol)
        assert res.route == "full_program" and res.status == "OPTIMAL", (n, tol)
        assert len(plain) == res.iterations and plain[-1], (n, tol)


def test_accelerated_solves_extrapolate_every_other_iteration(monkeypatch):
    # the second pool random three-qubit state at k = 1 (153 iterations): every
    # extrapolation is followed by a plain step, and none falls on a penalty iteration
    extrapolated = []
    next_input = witness._Anderson.next_input

    def spy(self, v, g, extrapolate):
        out = next_input(self, v, g, extrapolate)
        extrapolated.append(self.ref2 is not None)  # set exactly when the input is extrapolated
        return out

    monkeypatch.setattr(witness._Anderson, "next_input", spy)
    rng = np.random.default_rng(20240811)
    for _ in range(2):
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    res = pure_determination_alpha(qcore.PureVector(3, amp / np.linalg.norm(amp)), all_k_subsets(3, 1))
    assert res.route == "full_program" and len(extrapolated) == res.iterations > 2 * witness.ADAPT_EVERY
    its = [it for it, flag in enumerate(extrapolated, 1) if flag]
    assert its[0] == 2
    assert all(b - a >= 2 for a, b in zip(its, its[1:]))
    assert not [it for it in its if it % witness.ADAPT_EVERY == 0]


def test_penalty_change_clears_acceleration_memory(monkeypatch):
    determination, _witness_program = _loop_programs(monkeypatch)
    clears = []
    clear = witness._Anderson.clear

    def spy(self):
        clears.append(getattr(self, "pairs", 0))
        clear(self)

    monkeypatch.setattr(witness._Anderson, "clear", spy)
    c, project_affine, project_cone, tol = determination
    out = witness._admm(c, project_affine, project_cone, tol, MAX_ITER, witness.ANDERSON_MEMORY)
    assert out[2] == "OPTIMAL" and out[6] != witness.SIGMA_START
    # one clear at construction, one at each penalty change, with pairs stored
    assert len(clears) >= 2 and max(clears[1:]) > 0


def test_admm_rejects_bad_tolerances():
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0] = np.diag([1.0, -1.0])

    def unit_trace(v):
        out = v.copy()
        out[0] += (1.0 - np.trace(v[0]).real) / 2 * np.eye(2)
        return out

    for tol in (-1e-7, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(EdlkitError) as err:
            witness._admm(c, unit_trace, witness._clip_psd, tol, 10)
        assert err.value.code == "BAD_TOL"
    with pytest.raises(EdlkitError) as err:
        fully_decomposable_alpha(np.eye(8) / 8, all_k_subsets(3, 2), tol=float("inf"))
    assert err.value.code == "BAD_TOL"
    # tol = 0 stays legal: the loop runs to its cap
    out = witness._admm(c, unit_trace, witness._clip_psd, 0.0, 7)
    assert out[2] == "MAX_ITER" and out[5] == 7


def test_determination_routes_reject_bad_tolerances():
    # no solve runs on these inputs, so only an entry check sees the tolerance: a NaN
    # one read determination length 3 for the product state |010>
    psi = qcore.PureVector(3, qcore.basis_ket(3, "010"))
    coeffs = SymmetricCoeffs.from_diagonal(DickeMixture(3, (0.5, 0, 0, 0.5)))
    calls = [lambda tol: sdl_pure(psi, tol=tol),
             lambda tol: witness.determination_levels(psi, tol),
             lambda tol: pure_determination_alpha(psi, all_k_subsets(3, 1), tol=tol),
             lambda tol: symmetric_sdl_probe(coeffs, 2, tol=tol),
             lambda tol: witness.negative_by_margin(-1.0, tol),
             lambda tol: witness.determined_by_margin(1.0, tol)]
    for call in calls:
        for tol in (-1.0, float("nan"), float("inf"), -float("inf"), "1e-7", None):
            with pytest.raises(EdlkitError) as err:
                call(tol)
            assert err.value.code == "BAD_TOL", tol
    # tol = 0 stays legal
    assert sdl_pure(psi, tol=0.0)[0] == 1
    assert witness.negative_by_margin(-1.0, 0.0) and witness.determined_by_margin(1.0, 0.0)


# ---------------------------------------------------------------------------
# operator embedding
# ---------------------------------------------------------------------------

def test_expand_operator_places_factors():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    xz = qcore.kron(x, z)
    got = expand_operator(3, (1, 3), xz)
    assert np.max(np.abs(got - qcore.pauli_string(3, "XIZ"))) < 1e-13
    got2 = expand_operator(2, (2,), x)
    assert np.max(np.abs(got2 - qcore.pauli_string(2, "IX"))) < 1e-13


def test_expand_operator_rejects_bad_labels():
    h = np.eye(4, dtype=complex)
    for labels, code in (((1.5, 2), "BAD_VERTEX"), ((0, 1), "BAD_VERTEX"), ((2, 4), "BAD_VERTEX"),
                         ((1, 1), "DIM_MISMATCH")):
        with pytest.raises(EdlkitError) as err:
            expand_operator(3, labels, h)
        assert err.value.code == code, labels
    # labels are read in ascending order whatever order they come in
    assert np.array_equal(expand_operator(3, (3, 1), h), expand_operator(3, (1, 3), h))
    # a block of the wrong shape, also inside a witness
    bad = Witness(3, all_k_subsets(3, 2), 0.0, [(qcore.Subset(3, 0b011), np.eye(2))], [])
    for call in (lambda: expand_operator(3, (1, 2), np.eye(2)), bad.assemble):
        with pytest.raises(EdlkitError) as err:
            call()
        assert err.value.code == "DIM_MISMATCH"


def test_marginal_rows_match_partial_traces(rng):
    n, d = 4, 16
    colls = [SubsetCollection.from_lists(n, PAIR_CHAIN), all_k_subsets(n, 2),
             SubsetCollection.from_lists(n, [[1, 2, 3], [3, 4]])]
    for r in (1, 3, 16):
        v = np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]
        x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        y = v @ x @ v.conj().T
        for coll in colls:
            rows = witness._marginal_rows(v, coll)
            assert rows.shape == (sum(4 ** len(labels) for labels in coll), r * r)
            got = rows @ x.ravel()
            offset = 0
            for labels in coll:
                ref = qcore.partial_trace(y, labels).ravel()
                assert np.max(np.abs(got[offset:offset + ref.size] - ref)) < 1e-12, (r, labels)
                offset += ref.size


def _antichains(n):
    """Every nonempty antichain of nonempty subsets of [n], as mask tuples."""
    def grow(chosen, start):
        if chosen:
            yield chosen
        for mask in range(start, 1 << n):
            if all(mask & c not in (mask, c) for c in chosen):
                yield from grow(chosen + (mask,), mask + 1)
    return grow((), 1)


def test_locality_span_matches_pauli_reference():
    inputs = [SubsetCollection(n, masks) for n in range(1, 5) for masks in _antichains(n)]
    inputs += [all_k_subsets(5, k) for k in range(1, 6)]
    inputs += [SubsetCollection.from_lists(5, [[1, 2], [2, 3], [3, 4], [4, 5]]),
               SubsetCollection.from_lists(4, [[1, 2], [1], [1, 2], [1, 2, 3]]),
               SubsetCollection.from_lists(5, [[2, 5], [5], [1, 2, 5], [3, 4], [4]])]
    for coll in inputs:
        n = coll.n
        span = witness._locality_span(n, coll)
        supports = {t for mask in coll.edges for t in range(1 << n) if t & ~mask == 0}
        assert span.shape == (sum(3 ** t.bit_count() for t in supports), 4 ** n), coll
        assert not np.any(span.imag), coll
        assert np.max(np.abs(span @ span.conj().T - np.eye(len(span)))) < 1e-12, coll
        ref = oracle.pauli_span(n, coll)
        assert np.max(np.abs(span.conj().T @ span - ref.conj().T @ ref)) < 1e-12, coll


def test_locality_span_builds_no_decomposition_at_five_qubits(rng, monkeypatch):
    # all 4-subsets at n = 5: the span has 781 rows, where a Gram matrix has 1280
    coll = all_k_subsets(5, 4)
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, real=getattr(np.linalg, name), **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    span = witness._locality_span(5, coll)
    assert span.shape == (781, 1024) and not calls
    monkeypatch.undo()
    amp = rng.normal(size=32) + 1j * rng.normal(size=32)
    rho = np.outer(amp, amp.conj()) / np.vdot(amp, amp).real
    with pytest.raises(EdlkitError) as err:
        fully_decomposable_alpha(rho, coll, max_iter=1)
    assert err.value.code == "MAX_ITER"


def test_expand_operator_preserves_trace_scaling(rng):
    h = random_hermitian(rng, 4)
    big = expand_operator(4, (2, 4), h)
    assert np.trace(big).real == pytest.approx(4 * np.trace(h).real, abs=1e-10)


# ---------------------------------------------------------------------------
# witness program
# ---------------------------------------------------------------------------

def test_ghz_full_subset_witness():
    ghz = qcore.ghz_vector(3).to_density().matrix
    alpha, witness = fully_decomposable_alpha(ghz, [(1, 2, 3)])
    assert alpha == pytest.approx(-1 / 6, abs=2e-5)
    assert noise_threshold(alpha, 3) == pytest.approx(4 / 7, abs=1e-4)
    verdict = verify_witness(witness, ghz)
    assert verdict.ok, verdict.failures
    assert verdict.value == pytest.approx(alpha, abs=1e-6)


def test_ghz_pair_marginals_carry_no_signal():
    # the diagonal mixture of |000> and |111> shares every 2-marginal
    ghz = qcore.ghz_vector(3).to_density().matrix
    alpha, _ = fully_decomposable_alpha(ghz, all_k_subsets(3, 2))
    assert abs(alpha) < 1e-5


def test_pair_chain_witness_value():
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    alpha, witness = fully_decomposable_alpha(rho, PAIR_CHAIN)
    assert alpha == pytest.approx(-1 / 72, abs=2e-5)
    assert noise_threshold(alpha, 3) == pytest.approx(0.1, abs=2e-3)
    # a larger collection can only lower the minimum
    alpha_all, _ = fully_decomposable_alpha(rho, all_k_subsets(3, 2))
    assert alpha_all <= alpha + 1e-6
    verdict = verify_witness(witness, rho)
    assert verdict.ok, verdict.failures
    assert verdict.value == pytest.approx(alpha, abs=1e-6)


def test_witness_accepts_subset_objects():
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    subsets = [qcore.Subset.from_indices(3, labels) for labels in PAIR_CHAIN]
    alpha, witness = fully_decomposable_alpha(rho, subsets)
    ref_alpha, ref = fully_decomposable_alpha(rho, PAIR_CHAIN)
    assert alpha == ref_alpha and witness.collection == ref.collection
    assert np.array_equal(witness.assemble(), ref.assemble())
    with pytest.raises(EdlkitError) as err:
        fully_decomposable_alpha(rho, [qcore.Subset.from_indices(4, [1, 2])])
    assert err.value.code == "DIM_MISMATCH"


def test_witness_program_iterates_on_the_certificate_stack(monkeypatch):
    # no W block: the stack is (P_1..P_m, Q_1..Q_m), every P_i + Q_i^(T_i) of the affine
    # iterate is one local, unit-trace W, and the cost reads Tr(rho W) there
    w3 = dicke_vector(3, 1).to_density().matrix
    masks = witness._bipartition_masks(3)
    m = len(masks)
    for subsets in (all_k_subsets(3, 2), PAIR_CHAIN):
        (alpha, _wit), [program] = _admm_calls(monkeypatch,
                                               lambda: fully_decomposable_alpha(w3, subsets))
        c, _project_affine, project_cone, _tol = program
        x = witness._admm(*program, MAX_ITER)[0]
        assert c.shape == x.shape == (2 * m, 8, 8)
        assert project_cone is witness._clip_psd
        assert abs(np.vdot(c, x).real - alpha) <= 1e-12
        sums = [p + qcore.partial_transpose(q, qcore.Subset(3, mask))
                for mask, p, q in zip(masks, x[:m], x[m:])]
        assert max(np.max(np.abs(s - sums[0])) for s in sums) <= 1e-12
        span = oracle.pauli_span(3, witness._collection_of(3, subsets))
        w = sums[0].ravel()
        assert np.max(np.abs(w - span.conj().T @ (span @ w))) <= 1e-12
        assert abs(np.trace(sums[0]) - 1.0) <= 1e-12


FDW_COLLECTIONS = {"chain": PAIR_CHAIN, "pairs": all_k_subsets(3, 2), "full": [(1, 2, 3)],
                   "{12}": [(1, 2)], "{12},{3}": [(1, 2), (3,)]}


def _rotated_noisy(bases, seed=20261021):
    """``(label, rho)``: each named 3-qubit base state rotated by a seeded random local
    unitary, then mixed with white noise at p = 0.05 and 0.2."""
    rng = np.random.default_rng(seed)
    for name, base in bases.items():
        u = np.ones((1, 1))
        for _ in range(3):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
        for p in (0.05, 0.2):
            yield "%s p=%g" % (name, p), (1 - p) * u @ base @ u.conj().T + p * np.eye(8) / 8


def _dense_path_gap(rho, subsets):
    """``|alpha - objective|`` of the witness program against the generic dense path
    (infinite unless the dense solve is OPTIMAL), and the witness's verdict on rho."""
    alpha, wit = fully_decomposable_alpha(rho, subsets)
    sol = solve_sdp(oracle.build_fdw_problem(rho, subsets))
    gap = abs(alpha - sol.objective) if sol.status == "OPTIMAL" else np.inf
    return gap, verify_witness(wit, rho)


def test_dense_path_matches_consensus_path():
    # the rank-2, noise-free, unrotated 1/2 W_3 + 1/2 W_3bar on the chain, pairs and
    # full set, then rotated noisy states on every collection
    mix = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    cases = [("1/2 W_3 + 1/2 W_3bar", mix, name) for name in ("chain", "pairs", "full")]
    w3 = dicke_vector(3, 1).to_density().matrix
    ghz = qcore.ghz_vector(3).to_density().matrix
    cases += [(label, rho, name) for label, rho in
              _rotated_noisy({"W_3": w3, "GHZ_3 mixture": 0.75 * ghz + 0.25 * w3})
              for name in FDW_COLLECTIONS]
    for label, rho, name in cases:
        gap, verdict = _dense_path_gap(rho, FDW_COLLECTIONS[name])
        assert gap <= 1e-6, (label, name, gap)
        assert verdict.ok, (label, name, verdict.failures)
    with pytest.raises(EdlkitError) as err:
        oracle.build_fdw_problem(np.eye(16) / 16, [(1, 2)])
    assert err.value.code == "TOO_LARGE"


def test_witness_is_nonnegative_on_biseparable_states(rng):
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    _, witness = fully_decomposable_alpha(rho, PAIR_CHAIN)
    w = witness.assemble()
    for subset_labels in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
        inside = qcore.Subset.from_indices(3, subset_labels)
        d_in = 1 << inside.size
        d_out = 1 << (3 - inside.size)
        for _ in range(12):
            va = rng.normal(size=d_in) + 1j * rng.normal(size=d_in)
            vb = rng.normal(size=d_out) + 1j * rng.normal(size=d_out)
            va /= np.linalg.norm(va)
            vb /= np.linalg.norm(vb)
            rho_a = np.outer(va, va.conj())
            rho_b = np.outer(vb, vb.conj())
            # interleave the two factors back into global qubit order
            prod = np.zeros((8, 8), dtype=complex)
            a_bits = [3 - j for j in inside.indices]
            b_bits = [3 - j for j in range(1, 4) if j not in inside.indices]
            for r in range(8):
                for c in range(8):
                    ra = sum(((r >> b) & 1) << i for i, b in enumerate(reversed(a_bits)))
                    ca = sum(((c >> b) & 1) << i for i, b in enumerate(reversed(a_bits)))
                    rb = sum(((r >> b) & 1) << i for i, b in enumerate(reversed(b_bits)))
                    cb = sum(((c >> b) & 1) << i for i, b in enumerate(reversed(b_bits)))
                    prod[r, c] = rho_a[ra, ca] * rho_b[rb, cb]
            assert np.trace(w @ prod).real > -1e-5


def test_witness_blocks_live_on_the_collection():
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    _, witness = fully_decomposable_alpha(rho, PAIR_CHAIN)
    allowed = set(witness.collection.edges)
    assert all(s.mask in allowed for s, _h in witness.blocks)
    w = witness.assemble()
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-7)


def test_witness_blocks_take_each_term_on_its_first_subset():
    """Pauli coefficients of every block, read off with ``qcore.pauli_string``: each
    term of W sits on the first collection subset that holds its support."""
    n, d = 3, 8
    for rho, subsets in ((dicke_mix_dense(3, (0, 0.5, 0.5, 0)), PAIR_CHAIN),
                         (dicke_vector(3, 1).to_density().matrix, all_k_subsets(3, 2))):
        _alpha, wit = fully_decomposable_alpha(rho, subsets)
        blocks = [(s.mask, expand_operator(n, s.indices, h)) for s, h in wit.blocks]
        # W from one decomposition W = P + Q^(T_S), not from the blocks
        subset, p, q = wit.certificates[0]
        w = p + qcore.partial_transpose(q, subset)
        for labels in itertools.product("IXYZ", repeat=n):
            pauli = qcore.pauli_string(n, "".join(labels))
            support = sum(1 << j for j, ch in enumerate(labels) if ch != "I")
            home = next((mask for mask in wit.collection.edges if support & ~mask == 0), None)
            total = 0.0
            for mask, big in blocks:
                coeff = np.trace(pauli @ big) / d
                total += coeff
                if mask != home:
                    assert abs(coeff) < 1e-12, (labels, mask)
            assert abs(total - np.trace(pauli @ w) / d) < 1e-5, labels


def test_verify_witness_failure_modes():
    ghz = qcore.ghz_vector(3).to_density().matrix
    alpha, witness = fully_decomposable_alpha(ghz, [(1, 2, 3)])
    stripped = Witness(witness.n, witness.collection, alpha, witness.blocks, [])
    verdict = verify_witness(stripped)
    assert not verdict.ok
    assert any("cover 0 of 3" in f for f in verdict.failures)

    scaled_blocks = [(s, 2.0 * h) for s, h in witness.blocks]
    verdict = verify_witness(Witness(witness.n, witness.collection, alpha,
                                     scaled_blocks, witness.certificates))
    assert not verdict.ok
    assert any("trace" in f for f in verdict.failures)

    bad_certs = [(s, -p, q) for s, p, q in witness.certificates]
    verdict = verify_witness(Witness(witness.n, witness.collection, alpha,
                                     witness.blocks, bad_certs))
    assert not verdict.ok

    pairs_only = SubsetCollection.from_lists(3, [[1, 2], [2, 3]])
    verdict = verify_witness(Witness(witness.n, pairs_only, alpha,
                                     witness.blocks, witness.certificates))
    assert any("not in the collection" in f for f in verdict.failures)

    with pytest.raises(EdlkitError) as err:
        verify_witness(witness, np.eye(4) / 4)
    assert err.value.code == "DIM_MISMATCH"


def test_probe_reduction_table_is_the_loop_on_matrix_units():
    # row (n+1) i + j of the probe's cached table is R_k(|D_n^i><D_n^j|)
    for n in range(1, 7):
        dd = n + 1
        for k in range(1, n + 1):
            table = witness._reduction_table(n, k)
            assert table.shape == (dd * dd, (k + 1) ** 2) and not table.flags.writeable
            for i, j in itertools.product(range(dd), repeat=2):
                unit = np.zeros((dd, dd))
                unit[i, j] = 1.0
                ref = oracle.reduce_coeff_matrix_loop(n, k, unit).ravel()
                assert np.max(np.abs(table[dd * i + j] - ref)) <= 1e-15, (n, k, i, j)


def test_verify_witness_rejects_bad_tolerances():
    # a W_3 witness with its blocks scaled by 5 fails the trace and decomposition checks;
    # NaN tolerances would let both pass
    w3 = dicke_vector(3, 1).to_density().matrix
    alpha, wit = fully_decomposable_alpha(w3, all_k_subsets(3, 2))
    scaled = Witness(wit.n, wit.collection, alpha, [(s, 5.0 * h) for s, h in wit.blocks],
                     wit.certificates)
    assert not verify_witness(scaled).ok
    for name in ("recon_tol", "trace_tol", "psd_tol"):
        for tol in (-1e-7, float("nan"), float("inf"), -float("inf"), "1e-7", None):
            with pytest.raises(EdlkitError) as err:
                verify_witness(scaled, **{name: tol})
            assert err.value.code == "BAD_TOL", (name, tol)
    # tol = 0 stays legal
    assert not verify_witness(scaled, recon_tol=0.0, trace_tol=0.0, psd_tol=0.0).ok


def test_refit_certificates_roundtrip():
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    alpha, witness = fully_decomposable_alpha(rho, PAIR_CHAIN)
    bare = Witness(witness.n, witness.collection, alpha, witness.blocks, [])
    refit = refit_certificates(bare)
    verdict = verify_witness(refit, rho)
    assert verdict.ok, verdict.failures
    assert verdict.max_decomposition_dev < 1e-6
    # -I/8 has negative trace, so no P + Q^(T_S) with P, Q >= 0 can match it
    negative = Witness(3, SubsetCollection.from_lists(3, [[1, 2]]), float("nan"),
                       [(qcore.Subset.from_indices(3, (1, 2)), -np.eye(4) / 8)], [])
    for max_iter, code in ((50, "MAX_ITER"), (MAX_ITER, "INFEASIBLE")):
        with pytest.raises(EdlkitError) as err:
            refit_certificates(negative, max_iter=max_iter)
        assert err.value.code == code


def test_refit_is_one_program(monkeypatch):
    # the criterion-08 witness blocks: every bipartition is refit in one solve
    xx_yy = qcore.pauli_string(2, "XX") + qcore.pauli_string(2, "YY")
    zz = qcore.pauli_string(2, "ZZ")
    bare = Witness(3, SubsetCollection.from_lists(3, PAIR_CHAIN), float("nan"),
                   [(qcore.Subset.from_indices(3, (1, 2)), np.eye(4) / 8 - xx_yy / 18 - zz / 72),
                    (qcore.Subset.from_indices(3, (2, 3)), -xx_yy / 18 - zz / 72)], [])
    calls = []
    admm = witness._admm

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return admm(*args, **kwargs)

    monkeypatch.setattr(witness, "_admm", counted)
    refit = refit_certificates(bare)
    assert calls == [(6, 8, 8)]
    verdict = verify_witness(refit, dicke_mix_dense(3, (0, 0.5, 0.5, 0)))
    assert verdict.ok, verdict.failures
    assert abs(verdict.value + 1 / 72) <= 1e-9


def test_edl_upper_bound_scan():
    rho = dicke_mix_dense(3, (0, 0.5, 0.5, 0))
    k, alpha, witness = edl_upper_bound(rho)
    assert k == 2 and alpha < -1e-4 and witness is not None
    ghz = qcore.ghz_vector(3).to_density().matrix
    k, alpha, _ = edl_upper_bound(ghz)
    assert k == 3 and alpha == pytest.approx(-1 / 6, abs=2e-5)
    k, alpha, witness = edl_upper_bound(np.eye(8) / 8)
    assert k is None and witness is None and alpha > -1e-5


def test_witness_programs_refuse_one_qubit():
    # a 1-qubit state has no bipartition, so neither program has a variable
    rho = np.eye(2) / 2
    coll = all_k_subsets(1, 1)
    bare = Witness(1, coll, float("nan"), [(qcore.Subset.from_indices(1, (1,)), rho)], [])
    for call in (lambda: fully_decomposable_alpha(rho, coll), lambda: refit_certificates(bare)):
        with pytest.raises(EdlkitError) as err:
            call()
        assert err.value.code == "DIM_MISMATCH"


def test_noise_threshold_requires_negative_value():
    with pytest.raises(EdlkitError) as err:
        noise_threshold(0.02, 3)
    assert err.value.code == "NOT_NEGATIVE"
    assert noise_threshold(-1 / 6, 3) == pytest.approx(4 / 7, abs=1e-12)


# ---------------------------------------------------------------------------
# determination programs
# ---------------------------------------------------------------------------

def test_pure_determination_ghz():
    ghz = qcore.ghz_vector(3)
    res = pure_determination_alpha(ghz, all_k_subsets(3, 2))
    assert res.alpha < 1e-4
    # the minimizer is a genuinely different state with the same marginals
    subs = [qcore.Subset.from_indices(3, s) for s in ((1, 2), (1, 3), (2, 3))]
    verdict = check_compatibility(res.rho, ghz.to_density().matrix, subs, tol=1e-4)
    assert verdict.compatible
    fid = float(np.real(ghz.amplitudes.conj() @ res.rho @ ghz.amplitudes))
    assert fid < 1e-4
    with pytest.raises(EdlkitError):
        pure_determination_alpha(ghz.to_density().matrix, all_k_subsets(3, 2))


def test_sdl_pure_values():
    k, alphas = sdl_pure(qcore.ghz_vector(3))
    assert k == 3
    assert alphas[2] < 1e-4 and alphas[3] > 1 - 1e-5
    ket = qcore.basis_ket(3, (0, 0, 0))
    k, alphas = sdl_pure(qcore.PureVector(3, ket))
    assert k == 1 and alphas[1] > 1 - 1e-5


def _face_states():
    """Inputs of the face-step equivalence test: GHZ_3..5, W_3..5, D_4^2, the
    criterion-09 state, the filtered GHZ_3 and ten seeded random states at n = 3, 4."""
    crit09 = np.zeros(16, dtype=complex)
    crit09[[0b1000, 0b0100, 0b0010, 0b0001, 0b1111]] = np.sqrt([1 / 2, 1 / 3, 1 / 12, 1 / 24, 1 / 24])
    filtered = np.zeros(8, dtype=complex)
    filtered[[0b000, 0b011, 0b111]] = np.sqrt([1 / 2, 1 / 3, 1 / 6])
    states = ([qcore.ghz_vector(n) for n in (3, 4, 5)] + [dicke_vector(n, 1) for n in (3, 4, 5)]
              + [dicke_vector(4, 2), qcore.PureVector(4, crit09), qcore.PureVector(3, filtered)])
    rng = np.random.default_rng(20240811)
    for n in (3, 4):
        for _ in range(10):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            states.append(qcore.PureVector(n, amp / np.linalg.norm(amp)))
    return states


def test_face_step_matches_full_program():
    for psi in _face_states():
        value, alphas = sdl_pure(psi)
        ref, ref_alphas = oracle.sdl_pure_full_program(psi)
        assert value == ref
        assert alphas.keys() == ref_alphas.keys()
        for k, alpha in alphas.items():
            assert abs(alpha - ref_alphas[k]) <= 1e-6, (psi.n, k)


def _brute_face(psi, subsets):
    """Spectrum of ``sum_S (I - Pi_S) (x) I`` over the label tuples ``subsets`` from
    loop-nest marginals, each term placed by explicit index comparison."""
    n, d = psi.n, 1 << psi.n
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    h = np.zeros((d, d), dtype=complex)
    for labels in subsets:
        k = len(labels)
        w, q = np.linalg.eigh(oracle.brute_marginal(rho, n, labels))
        slack = q[:, w <= 1e-9] @ q[:, w <= 1e-9].conj().T
        inside = [n - j for j in labels]
        for x in range(d):
            for y in range(d):
                if all((x >> b & 1) == (y >> b & 1) for b in range(n) if b not in inside):
                    xs = sum((x >> b & 1) << (k - 1 - i) for i, b in enumerate(inside))
                    ys = sum((y >> b & 1) << (k - 1 - i) for i, b in enumerate(inside))
                    h[x, y] += slack[xs, ys]
    return np.linalg.eigvalsh(h)


def test_face_dimension_and_gap_match_brute_force():
    states = _face_states()
    # the fixed states up to n = 4 and the first two random states at n = 3 and 4
    for psi in [psi for psi in states[:9] if psi.n <= 4] + states[9:11] + states[19:21]:
        _value, levels = witness.determination_levels(psi)
        for k, level in levels.items():
            w = _brute_face(psi, all_k_subsets(psi.n, k))
            r = int(np.sum(w <= 1e-9))
            assert level.face_dim == r, (psi.n, k)
            if r == 1 << psi.n:
                assert level.route == "full_program" and level.gap is None
            else:
                assert level.route != "full_program"
                assert abs(level.gap - w[r]) <= 1e-9
            assert (level.route == "face_rank1") == (r == 1)
            assert (level.iterations > 0) == level.route.endswith("program")


def _collection_cases():
    """Pure states on collections other than all k-subsets: the chains of
    ``min_marginal_count(n, k)`` for k = 2..n-1 (k = 2 is the pair chain) on W_4,
    GHZ_4, D_4^2 and the first two random states of :func:`_face_states` at n = 3
    and 4, and the mixed-size collection {123, 34} on every 4-qubit state."""
    states = _face_states()
    for psi in [dicke_vector(4, 1), qcore.ghz_vector(4), dicke_vector(4, 2)] + states[9:11] + states[19:21]:
        for k in range(2, psi.n):
            yield psi, min_marginal_count(psi.n, k)[1]
        if psi.n == 4:
            yield psi, SubsetCollection.from_lists(4, [[1, 2, 3], [3, 4]])


def test_general_collections_match_full_program():
    slack = 100 * witness.DEFAULT_TOL
    for psi, coll in _collection_cases():
        where = (psi.n, coll.to_lists())
        res = pure_determination_alpha(psi, coll)
        assert res.face_dim == int(np.sum(_brute_face(psi, coll) <= 1e-9)), where
        if res.route == "face_program":
            rho = res.rho
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -1e-6, where
            assert abs(np.trace(rho) - 1) <= 1e-9, where
            target = psi.to_density().matrix
            for labels in coll:
                keep = qcore.Subset.from_indices(psi.n, labels)
                dev = np.max(np.abs(qcore.partial_trace(rho, keep) - qcore.partial_trace(target, keep)))
                assert dev <= 1e-4, where
            assert abs(np.vdot(psi.amplitudes, rho @ psi.amplitudes) - res.alpha) <= 1e-9, where
        # every reference that converges here takes at most 3,304 iterations
        try:
            ref = oracle.full_determination(psi, coll, max_iter=10000)
        except EdlkitError as err:
            # a compatible set that is the single point psi has no interior, and the
            # full program stalls on it (D_4^2 on the pair chain); the face program
            # decides such a level
            assert err.code == "MAX_ITER" and res.route == "face_program", where
            assert res.alpha >= 1 - slack, where
            continue
        assert (res.alpha >= 1 - slack) == (ref.alpha >= 1 - slack), where
        assert abs(res.alpha - ref.alpha) <= slack, where


def test_full_rank_marginals_skip_face_hamiltonian(monkeypatch):
    # one-body marginals of a random state are mixed: the face is the whole space, read
    # with no 2^n x 2^n H; W_3 at pairs still builds H and is decided by its face
    shapes = []
    kernel_face = witness._kernel_face

    def counted(h):
        shapes.append(h.shape)
        return kernel_face(h)

    monkeypatch.setattr(witness, "_kernel_face", counted)
    rng = np.random.default_rng(20240811)
    for n in (3, 3, 4, 4):
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        shapes.clear()
        psi = qcore.PureVector(n, amp / np.linalg.norm(amp))
        res = pure_determination_alpha(psi, all_k_subsets(n, 1))
        assert (res.route, res.face_dim, res.gap) == ("full_program", 1 << n, None)
        assert shapes and (1 << n, 1 << n) not in shapes, n
    shapes.clear()
    res = pure_determination_alpha(dicke_vector(3, 1), all_k_subsets(3, 2))
    assert res.route == "face_injective" and (8, 8) in shapes


def test_random_five_qubit_determination():
    # the second 5-qubit draw after 20 at n = 3 and 20 at n = 4; with an extrapolation
    # every 10th iteration the k = 2 program stopped at MAX_ITER
    rng = np.random.default_rng(777)
    for n, count in ((3, 20), (4, 20), (5, 2)):
        for _ in range(count):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = qcore.PureVector(5, amp / np.linalg.norm(amp))
    value, levels = witness.determination_levels(psi)
    target = psi.to_density().matrix
    for k in range(1, value):
        rho = levels[k].rho
        for labels in all_k_subsets(5, k):
            assert np.allclose(qcore.partial_trace(rho, labels), qcore.partial_trace(target, labels),
                               rtol=0, atol=1e-6), (k, labels)
        assert abs(np.vdot(psi.amplitudes, rho @ psi.amplitudes).real - levels[k].alpha) <= 1e-6, k


def test_determination_solver_honours_iteration_cap():
    ghz = qcore.ghz_vector(3)
    with pytest.raises(EdlkitError) as err:
        pure_determination_alpha(ghz, all_k_subsets(3, 2), max_iter=2)
    assert err.value.code == "MAX_ITER"


def test_adaptive_penalty_cuts_iterations(monkeypatch):
    # criterion-09 probe state at pairs: the optimum 121/144 is known in closed
    # form; a fixed penalty sigma = 1 takes 1,801 iterations here.  A random
    # three-qubit state is fixed by its pairs; sigma = 1 takes 2,160 iterations.
    # The bounds hold with and without acceleration; the penalty is read on the
    # plain loop, which the accelerated one need not reach a penalty change in.
    amp = np.zeros(16, dtype=complex)
    amp[[0b1000, 0b0100, 0b0010, 0b0001, 0b1111]] = np.sqrt([1 / 2, 1 / 3, 1 / 12, 1 / 24, 1 / 24])
    probe = qcore.PureVector(4, amp)
    rng = np.random.default_rng(20240811)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    random3 = qcore.PureVector(3, amp / np.linalg.norm(amp))
    for memory in (witness.ANDERSON_MEMORY, 0):
        monkeypatch.setattr(witness, "ANDERSON_MEMORY", memory)
        res = oracle.full_determination(probe, all_k_subsets(4, 2))
        assert res.status == "OPTIMAL"
        assert abs(res.alpha - 121 / 144) <= 1e-6
        assert res.iterations <= 600, memory
        res = oracle.full_determination(random3, all_k_subsets(3, 2))
        assert res.alpha >= 1 - 1e-6
        assert res.iterations <= 1000, memory
    assert res.penalty != 1.0


def test_acceleration_cuts_slow_determination(monkeypatch):
    # the second pool random three-qubit state at k = 1: at every penalty check
    # sqrt(pn/dn) reads 0.76-1.01, so sigma stays 1 and the plain loop takes 2,061
    # iterations
    rng = np.random.default_rng(20240811)
    for _ in range(2):
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = qcore.PureVector(3, amp / np.linalg.norm(amp))
    fast = pure_determination_alpha(psi, all_k_subsets(3, 1))
    monkeypatch.setattr(witness, "ANDERSON_MEMORY", 0)
    plain = pure_determination_alpha(psi, all_k_subsets(3, 1))
    assert fast.route == plain.route == "full_program"
    assert plain.iterations > 2000 and plain.penalty == 1.0
    assert fast.status == "OPTIMAL" and fast.iterations <= 400
    assert abs(fast.alpha - plain.alpha) <= 100 * witness.DEFAULT_TOL


def _generic_determination(psi, k):
    """The determination program as svec rows for solve_sdp: the trace row and
    one partial-trace map per k-subset."""
    n, d = psi.n, 1 << psi.n
    target = psi.to_density().matrix
    rows, rhs = [svec(np.eye(d))[None, :]], [[1.0]]
    for labels in all_k_subsets(n, k):
        keep = qcore.Subset.from_indices(n, labels)
        rows.append(oracle._linmap_matrix(d, 1 << k, lambda x: qcore.partial_trace(x, keep)))
        rhs.append(svec(qcore.partial_trace(target, keep)))
    problem = SdpProblem([SdpBlock(d, "psd")], [target], np.vstack(rows), np.concatenate(rhs))
    return solve_sdp(problem)


def _generic_probe_deviation(coeffs, k, trials=8, seed=20240811):
    """Largest deviation of the probe's 2*trials solves, through svec rows and solve_sdp."""
    n, dd = coeffs.n, coeffs.n + 1
    lin = oracle._linmap_matrix(dd, k + 1, lambda x: _reduce_coeff_matrix(n, k, x))
    rows = np.vstack([svec(np.eye(dd))[None, :], lin])
    rhs = np.concatenate([[1.0], svec(_reduce_coeff_matrix(n, k, coeffs.a))])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = random_hermitian(rng, dd)
        f /= np.linalg.norm(f)
        base = float(np.trace(f @ coeffs.a).real)
        for sign in (1.0, -1.0):
            sol = solve_sdp(SdpProblem([SdpBlock(dd, "psd")], [sign * f], rows, rhs))
            assert sol.status == "OPTIMAL"
            worst = max(worst, abs(sign * sol.objective - base))
    return worst


def test_determination_matches_generic_path():
    amp = np.array([1.0, 1j]) @ np.random.default_rng(11).normal(size=(2, 8))
    states = [qcore.ghz_vector(3), dicke_vector(3, 1), qcore.PureVector(3, amp / np.linalg.norm(amp))]
    for psi in states:
        for k in (1, 2):
            sol = _generic_determination(psi, k)
            res = oracle.full_determination(psi, all_k_subsets(3, k))
            assert sol.status == "OPTIMAL"
            assert abs(res.alpha - sol.objective) <= 1e-9
            assert res.iterations == sol.iterations
            if k == 1:
                # every 1-marginal has full rank, so the face is the whole space
                fast = pure_determination_alpha(psi, all_k_subsets(3, 1))
                assert fast.route == "full_program" and fast.face_dim == 8 and fast.gap is None
                assert abs(fast.alpha - res.alpha) <= 1e-9
                assert fast.iterations == res.iterations
    w3 = SymmetricCoeffs(3, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    res = symmetric_sdl_probe(w3, 2)
    assert res.verdict == "UNIQUE"
    assert _generic_probe_deviation(w3, 2) <= 100 * witness.DEFAULT_TOL
    r, rank = oracle.probe_face_rank(w3, 2)
    assert res.face_dim == r and rank == r * r


def test_determination_margin():
    tol = witness.DEFAULT_TOL
    assert witness.determined_by_margin(1.0 - 100.0 * tol)
    assert not witness.determined_by_margin(1.0 - 101.0 * tol)
    assert not witness.determined_by_margin(float("nan"))
    assert witness.determined_by_margin(1.0 - 1e-4, tol=1e-6)


def test_sdp_size_cap():
    with pytest.raises(EdlkitError) as err:
        fully_decomposable_alpha(np.eye(64) / 64, [(1, 2)])
    assert err.value.code == "TOO_LARGE"
    with pytest.raises(EdlkitError):
        sdl_pure(qcore.PureVector(6, np.eye(64)[0]))
    with pytest.raises(EdlkitError) as err:
        sdl_pure(qcore.ghz_vector(3).to_density())
    assert err.value.code == "DIM_MISMATCH"


# ---------------------------------------------------------------------------
# symmetric determination probe
# ---------------------------------------------------------------------------

def test_probe_flags_ghz_mixture_at_pairs(monkeypatch):
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = a[3, 3] = 0.5
    coeffs = SymmetricCoeffs(3, a)
    # the mixture is positive definite on its face span{D0, D3}: the exact witness
    # decides, with no program
    monkeypatch.setattr(witness, "_solve_pinned", None)
    res = symmetric_sdl_probe(coeffs, 2)
    assert res.verdict == "NONUNIQUE" and not res and res.face_dim == 2
    assert res.max_deviation > 1e-3
    assert res.witness_coeffs is not None
    # the witness shares the level-2 reduction but is a different operator
    dev = np.max(np.abs(_reduce_coeff_matrix(3, 2, res.witness_coeffs)
                        - _reduce_coeff_matrix(3, 2, coeffs.a)))
    assert dev < 1e-12
    assert np.max(np.abs(res.witness_coeffs - coeffs.a)) > 1e-3
    # a step to the boundary of the PSD cone: the witness is singular on the face
    assert abs(np.linalg.eigvalsh(res.witness_coeffs[np.ix_([0, 3], [0, 3])])[0]) < 1e-12


def test_face_verdict_cuts():
    # the injectivity rank is cut at FACE_CUT, the span that pins the program at 1e-12
    def rows_of(s):
        return lambda v: np.diag(s).astype(complex)

    pd, singular = np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)
    assert witness._face_verdict(np.eye(2), pd, rows_of([1, 1, 1, 1e-8]))[0] == "UNIQUE"
    verdict, sigma, span = witness._face_verdict(np.eye(2), pd, rows_of([1, 1, 1, 1e-10]))
    assert verdict == "NONUNIQUE" and span is None
    # sigma = x0 + t D: the kernel row vec X = e_4 gives D = +-2 |1><1|, and t = 1/4
    assert np.allclose(abs(sigma - pd), np.diag([0.0, 0.5]))
    for s, kept in (([1, 1, 1, 1e-10], 4), ([1, 1, 1, 1e-13], 3)):
        verdict, sigma, span = witness._face_verdict(np.eye(2), singular, rows_of(s))
        assert verdict is None and sigma is None and span.shape == (kept, 4)

    def no_rows(v):
        raise AssertionError("a line needs no rows")

    assert witness._face_verdict(np.ones((4, 1)) / 2, np.ones((1, 1)), no_rows) == ("UNIQUE", None, None)


def test_probe_accepts_full_level_and_single_dicke():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = a[3, 3] = 0.5
    res = symmetric_sdl_probe(SymmetricCoeffs(3, a), 3)
    assert res.verdict == "UNIQUE" and bool(res)
    e1 = np.zeros((4, 4), dtype=complex)
    e1[1, 1] = 1.0
    res = symmetric_sdl_probe(SymmetricCoeffs(3, e1), 2)
    assert res.verdict == "UNIQUE"
    # D_4^2 at pairs: the map is not injective on its face of dimension 5, the program
    # finds no weight outside range(X0) = span{D2}, and that line decides
    e2 = np.zeros((5, 5), dtype=complex)
    e2[2, 2] = 1.0
    res = symmetric_sdl_probe(SymmetricCoeffs(4, e2), 2)
    assert res.verdict == "UNIQUE" and res.face_dim == 1


def test_probe_reports_solver_status(monkeypatch):
    # symmetric GHZ_3 at pairs: face span{D0, D3}, a kernel of dimension 2 and a
    # rank-one input, so only the small program decides
    a = np.zeros((4, 4), dtype=complex)
    a[np.ix_([0, 3], [0, 3])] = 0.5
    ghz = SymmetricCoeffs(3, a)
    monkeypatch.setattr(witness, "MAX_ITER", 3)
    with pytest.raises(EdlkitError) as err:
        symmetric_sdl_probe(ghz, 2)
    assert err.value.code == "MAX_ITER" and "3 iters" in err.value.message
    monkeypatch.undo()
    # a solve the stall heuristic flags INFEASIBLE is a failure, not an iteration cap
    admm = witness._admm

    def stalled(*args, **kwargs):
        x, z, _status, res_p, res_d, iters, sigma = admm(*args, **kwargs)
        return x, z, "INFEASIBLE", res_p, res_d, iters, sigma

    monkeypatch.setattr(witness, "_admm", stalled)
    with pytest.raises(EdlkitError) as err:
        symmetric_sdl_probe(ghz, 2)
    assert err.value.code == "SOLVER_FAIL" and "INFEASIBLE" in err.value.message


def test_probe_agrees_with_pure_determination():
    # for k >= 2 every state sharing a symmetric state's k-marginals is symmetric, so the
    # probe and the dense determination of the same pure state decide alike
    rng = np.random.default_rng(20240811)
    verdicts = set()
    for n in (3, 4):
        ghz = np.zeros(n + 1, dtype=complex)
        ghz[[0, n]] = 2 ** -0.5
        coeff_list = list(np.eye(n + 1, dtype=complex)) + [ghz]
        for _ in range(2):
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            coeff_list.append(c / np.linalg.norm(c))
        for c in coeff_list:
            psi = qcore.PureVector(n, sum(x * dicke_vector(n, i).amplitudes for i, x in enumerate(c)))
            for k in range(2, n + 1):
                probe = symmetric_sdl_probe(SymmetricCoeffs(n, np.outer(c, c.conj())), k)
                res = pure_determination_alpha(psi, all_k_subsets(n, k))
                assert (probe.verdict == "UNIQUE") == witness.determined_by_margin(res.alpha), (n, c, k)
                verdicts.add((probe.verdict, res.route))
    assert {("UNIQUE", "face_rank1"), ("UNIQUE", "face_injective"),
            ("NONUNIQUE", "face_program")} <= verdicts


def test_probe_validation():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0
    for bad in (0, True, 1.0):
        with pytest.raises(EdlkitError) as err:
            symmetric_sdl_probe(SymmetricCoeffs(3, a), bad)
        assert err.value.code == "BAD_LEVEL", bad
    with pytest.raises(EdlkitError) as err:
        symmetric_sdl_probe(np.eye(4) / 4, 2)
    assert err.value.code == "DIM_MISMATCH"
