"""Check the face step of the determination programs against the full programs.

``witness.determination_levels`` (behind ``sdl_pure``) must give the value of
``oracle.sdl_pure_full_program``, level by level to 1e-6, on every Dicke state
D_n^i, every GHZ_n and every connected graph state (one per isomorphism class)
with n <= 5.  On the ``min_marginal_count(n, k)`` chain of each of those states
with n <= 4 and k = 2..n-1, ``witness.pure_determination_alpha`` must give the
determined verdict of the full program and its value to ``100 tol``; where the
full program stalls (a compatible set that is the single point psi has no
interior), the face program must find psi determined.
On every face those runs visit, the marginal map restricted to the face
(``witness._marginal_rows``) must have the rank of the allowed Pauli rows
restricted to it (``oracle.pauli_span``): the two maps share their kernel.
``witness.symmetric_sdl_probe`` must agree with the sampled generic probe
(random linear functionals minimised and maximised through ``solve_sdp``) at
every level k on every Dicke state with n <= 6 and, for n = 2..6, on GHZ_n,
the GHZ diagonal mixture and three seeded rank-2 states, and each NONUNIQUE
witness must be a unit-trace PSD coefficient matrix with the input's level-k
reduction.  A sampled solve counts only when it converges (a single-point
compatible set has no interior and stalls the loop), so every verdict is also
checked against the face rank that ``oracle.probe_face_rank`` rebuilds from
the term-by-term reduction: UNIQUE on the face itself exactly when that rank
is full.  Not collected by pytest (~30 s); run it as

    PYTHONPATH=src python tests/check_face_routes.py

It prints the number of cases checked, how many determination results each
route decided with their total ADMM iterations (a change to the splitting loop
that keeps its iterates keeps these totals), how many pure levels and probe
verdicts each outcome of the shared face routine ``witness._face_verdict``
decided (injective, exact witness, program, or the probe's second pass on
``range(X0)``) and how many faces it compared, and exits 1 listing any cases
that disagree.
"""

import collections
import itertools
import sys

import numpy as np

from edlkit import oracle, qcore, witness
from edlkit.errors import EdlkitError
from edlkit.graphstate import SimpleGraph, graph_state
from edlkit.hypergraph import all_k_subsets, min_marginal_count
from edlkit.symmetric import SymmetricCoeffs, _reduce_coeff_matrix, dicke_vector

SLACK = 100 * witness.DEFAULT_TOL
OUTCOME = {"UNIQUE": "injective", "NONUNIQUE": "exact witness", None: "program"}
face_calls = []  # the verdict of every face routine call since it was last cleared


def recording_face_verdict(v, x0, rows_of, face_verdict=witness._face_verdict):
    """``witness._face_verdict``, recording its verdict in ``face_calls``; main installs it."""
    out = face_verdict(v, x0, rows_of)
    face_calls.append(out[0])
    return out


def probe_outcome():
    """Which outcome of the face routine decided the probe call just made."""
    return "second pass" if len(face_calls) == 2 else OUTCOME[face_calls[0]]


def connected_graphs(n):
    """One connected graph on n vertices per isomorphism class."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    seen, out = set(), []
    for chosen in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if chosen >> i & 1]
        canon = min(tuple(sorted(tuple(sorted((pm[u - 1], pm[v - 1]))) for u, v in edges))
                    for pm in perms)
        if canon in seen:
            continue
        seen.add(canon)
        graph = SimpleGraph.from_edges(n, edges)
        if graph.is_connected():
            out.append(graph)
    return out


def pure_cases():
    for n in range(2, 6):
        for i in range(n + 1):
            yield "D_%d^%d" % (n, i), dicke_vector(n, i)
        yield "GHZ_%d" % n, qcore.ghz_vector(n)
        for graph in connected_graphs(n):
            yield "graph %s" % (graph.edges,), graph_state(graph)


def probe_cases():
    """Every Dicke state with n <= 6, and for n = 2..6 GHZ_n, the GHZ diagonal mixture
    and three seeded rank-2 states, as coefficient matrices."""
    for n in range(1, 7):
        for i in range(n + 1):
            a = np.zeros((n + 1, n + 1), dtype=complex)
            a[i, i] = 1.0
            yield "D_%d^%d" % (n, i), SymmetricCoeffs(n, a)
    for n in range(2, 7):
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[np.ix_([0, n], [0, n])] = 0.5
        yield "GHZ_%d" % n, SymmetricCoeffs(n, a)
        yield "GHZ_%d diagonal mixture" % n, SymmetricCoeffs(n, np.diag(np.diag(a)))
        rng = np.random.default_rng(20240811 + n)
        for j in range(3):
            g = rng.normal(size=(n + 1, 2)) + 1j * rng.normal(size=(n + 1, 2))
            a = g @ g.conj().T
            yield "rank-2 state %d at n=%d" % (j, n), SymmetricCoeffs(n, a / np.trace(a).real)


def sampled_deviation(coeffs, k, trials=2, max_iter=1000, seed=20240811):
    """Largest deviation of random functionals over the compatible set, by solve_sdp,
    and the number of solves that converged.  Only converged solves count: on a
    single-point compatible set (no interior) the loop stalls short of ``tol``."""
    n, dd = coeffs.n, coeffs.n + 1
    lin = oracle._linmap_matrix(dd, k + 1, lambda x: _reduce_coeff_matrix(n, k, x))
    rows = np.vstack([witness.svec(np.eye(dd))[None, :], lin])
    rhs = np.concatenate([[1.0], witness.svec(_reduce_coeff_matrix(n, k, coeffs.a))])
    rng = np.random.default_rng(seed)
    worst, converged = 0.0, 0
    for _ in range(trials):
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        f = (g + g.conj().T) / 2
        f /= np.linalg.norm(f)
        base = float(np.trace(f @ coeffs.a).real)
        for sign in (1.0, -1.0):
            sol = witness.solve_sdp(witness.SdpProblem([witness.SdpBlock(dd, "psd")], [sign * f],
                                                       rows, rhs), max_iter=max_iter)
            if sol.status == "OPTIMAL":
                converged += 1
                worst = max(worst, abs(sign * sol.objective - base))
    return worst, converged


def probe_mismatch(coeffs, k, outcomes):
    """None if the probe agrees with the sampled probe and the independent face
    rank, and its NONUNIQUE witness is a compatible state other than the input.
    Tallies in ``outcomes`` the outcome of the face routine that decided it."""
    face_calls.clear()
    res = witness.symmetric_sdl_probe(coeffs, k)
    outcomes[probe_outcome()] += 1
    dev, converged = sampled_deviation(coeffs, k)
    r, rank = oracle.probe_face_rank(coeffs, k)
    unique = res.verdict == "UNIQUE"
    # injective on the face: UNIQUE there; otherwise UNIQUE only on a smaller face
    if (rank == r * r) != (unique and res.face_dim == r):
        return "%s on a face of dimension %d, independent face %d with rank %d" % (
            res.verdict, res.face_dim, r, rank)
    if converged and unique != (dev <= SLACK):
        return "%s, sampled deviation %.2e over %d converged solves" % (res.verdict, dev, converged)
    if not unique:
        wit = res.witness_coeffs
        red = np.max(np.abs(_reduce_coeff_matrix(coeffs.n, k, wit)
                            - _reduce_coeff_matrix(coeffs.n, k, coeffs.a)))
        if (red > 1e-6 or abs(np.trace(wit) - 1) > 1e-6
                or np.linalg.eigvalsh((wit + wit.conj().T) / 2)[0] < -1e-6
                or np.linalg.norm(wit - coeffs.a) <= SLACK):
            return "NONUNIQUE witness fails its check (reduction deviation %.2e)" % red
    return None


def rank(rows):
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > witness.FACE_CUT * s[0]))


def face_rank_mismatch(psi, coll):
    """None if the marginal map and the allowed Pauli rows have equal rank on the face
    of ``psi`` and ``coll``."""
    d = 1 << psi.n
    h = witness._face_hamiltonian(psi, coll)
    face = np.eye(d) if h is None else witness._kernel_face(h)[0]
    r = face.shape[1]
    # span @ vec(V X V^dag) on vec X: the rows of span, conjugated by the face
    span = oracle.pauli_span(psi.n, coll).reshape(-1, d, d)
    pauli_rows = (face.T @ span @ face.conj()).reshape(-1, r * r)
    ranks = rank(witness._marginal_rows(face, coll)), rank(pauli_rows)
    if ranks[0] != ranks[1]:
        return "face of dimension %d: marginal rank %d, Pauli rank %d" % (r, ranks[0], ranks[1])
    return None


def chain_mismatch(psi, coll, routes, iterations, outcomes):
    """None if ``pure_determination_alpha`` on ``coll`` agrees with the full program.
    Tallies the route in ``routes``, its ADMM iterations in ``iterations``, a stalled
    full program under "stalled" and the face routine's outcome in ``outcomes``."""
    face_calls.clear()
    res = witness.pure_determination_alpha(psi, coll)
    outcomes.update(OUTCOME[verdict] for verdict in face_calls)
    routes[res.route] += 1
    iterations[res.route] += res.iterations
    determined = res.alpha >= 1 - SLACK
    try:
        ref = oracle.full_determination(psi, coll)
    except EdlkitError as err:
        routes["stalled"] += 1
        if err.code == "MAX_ITER" and res.route == "face_program" and determined:
            return None
        return "%s %.9f, full program failed: %s" % (res.route, res.alpha, err)
    if determined != (ref.alpha >= 1 - SLACK) or abs(res.alpha - ref.alpha) > SLACK:
        return "%s %.9f, full program %.9f" % (res.route, res.alpha, ref.alpha)
    return None


def main():
    witness._face_verdict = recording_face_verdict
    checked, faces, bad = 0, 0, []
    routes = collections.Counter()
    iterations = collections.Counter()
    pure_outcomes = collections.Counter()
    probe_outcomes = collections.Counter()
    for name, psi in pure_cases():
        checked += 1
        face_calls.clear()
        value, levels = witness.determination_levels(psi)
        pure_outcomes.update(OUTCOME[verdict] for verdict in face_calls)
        alphas = {k: level.alpha for k, level in levels.items()}
        for level in levels.values():
            routes[level.route] += 1
            iterations[level.route] += level.iterations
        ref, ref_alphas = oracle.sdl_pure_full_program(psi)
        if value != ref or alphas.keys() != ref_alphas.keys() or any(
                abs(alphas[k] - ref_alphas[k]) > 1e-6 for k in alphas):
            bad.append("sdl_pure %s: %s %s, full program %s %s" % (name, value, alphas, ref, ref_alphas))
        chains = [min_marginal_count(psi.n, k)[1] for k in range(2, psi.n)] if psi.n <= 4 else []
        for coll in chains:
            checked += 1
            why = chain_mismatch(psi, coll, routes, iterations, pure_outcomes)
            if why:
                bad.append("chain %s on %s: %s" % (name, coll.to_lists(), why))
        for coll in [all_k_subsets(psi.n, k) for k in levels] + chains:
            faces += 1
            why = face_rank_mismatch(psi, coll)
            if why:
                bad.append("face rank %s on %s: %s" % (name, coll.to_lists(), why))
    for name, coeffs in probe_cases():
        for k in range(1, coeffs.n + 1):
            checked += 1
            why = probe_mismatch(coeffs, k, probe_outcomes)
            if why:
                bad.append("probe %s at k=%d: %s" % (name, k, why))
    print("checked %d cases: %d disagree" % (checked, len(bad)))
    stalled = routes.pop("stalled", 0)
    print("determination routes (results, ADMM iterations): %s; the full program stalled on"
          " %d chain(s)" % (", ".join("%s %d (%d)" % (route, count, iterations[route])
                                      for route, count in sorted(routes.items())), stalled))
    for what, outcomes in (("pure levels", pure_outcomes), ("probe verdicts", probe_outcomes)):
        print("%s decided by the face routine: %s" % (what, ", ".join(
            "%s %d" % (outcome, outcomes[outcome])
            for outcome in ("injective", "exact witness", "program", "second pass"))))
    print("compared the marginal and Pauli ranks on %d faces" % faces)
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
