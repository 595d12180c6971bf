"""Seeded inputs, calls and output checks for the four benchmark workloads.

A workload is a *round*: a fixed list of case kinds whose inputs are drawn
from the seed.  The timed loop repeats the round; every output of every
case is compared with a reference that is computed once per distinct
input, outside the timed region.

Inputs are built so that the seed changes the data but not the amount of
work much: random local unitaries (which leave every program here
equivalent, so iteration counts repeat), random relabelings, and random
rational weights inside fixed support patterns.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from collections import deque
from fractions import Fraction

import numpy as np

from edlkit import _simplex, cli, graphstate, hypergraph, oracle, qcore, symmetric, witness
from edlkit.errors import EdlkitError

WORKLOADS = ("exact", "witness", "determination", "graph-orbit")


class Case:
    """One call with its input, a reference check and a kind label.

    ``run`` performs the call and returns its output; ``check(output)``
    returns True when the output matches the reference.  ``check`` may do
    expensive reference work on first use and cache it.
    """

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _once(fn):
    """Cache a zero-argument reference computation on first call."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _haar_unitary(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _local_unitary(rng, n):
    """Random product unitary, particle 1 as the most significant factor."""
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, _haar_unitary(rng, 2))
    return out


def _proj(v):
    return np.outer(v, v.conj())


def _dicke_amp(n, i):
    return symmetric.dicke_vector(n, i).amplitudes


def _ghz_amp(n):
    return qcore.ghz_vector(n).amplitudes


def _hypergeometric_marginal(lam, n, k):
    """Dicke weights of the k-qubit marginal of ``sum_i lam_i D_n^i``."""
    return [sum(Fraction(lam[i]) * math.comb(k, s) * math.comb(n - k, i - s) / math.comb(n, i)
                for i in range(s, n - k + s + 1)) for s in range(k + 1)]


def _oracle_edl_diag(lam, n):
    """First level whose marginal fails the brute-force PPT test, else None.

    Up to n = 6 the marginal comes from ``oracle.brute_marginal`` on the
    dense state; above that from the hypergeometric weight formula (the
    dense state would have 4^n entries), then densified by the oracle.
    """
    dense = oracle.dense_from_diagonal(lam, n) if n <= 6 else None
    for k in range(2, n + 1):
        if dense is not None:
            marg = oracle.brute_marginal(dense, n, range(1, k + 1))
        else:
            marg = oracle.dense_from_diagonal(_hypergeometric_marginal(lam, n, k), k)
        ppt, _eig = oracle.brute_ppt(marg, k)
        if not ppt:
            return k
    return None


def _bfs_connected(masks, n):
    """Union covers 1..n and the intersection graph of the subsets is connected."""
    if not masks:
        return False
    cover = 0
    for m in masks:
        cover |= m
    if cover != (1 << n) - 1:
        return False
    seen = {0}
    todo = [0]
    while todo:
        cur = todo.pop()
        for j, m in enumerate(masks):
            if j not in seen and masks[cur] & m:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(masks)


def _rand_fraction_weights(rng, support, n, total=211):
    """Random positive weights on ``support`` that sum to one.

    All share the prime denominator ``total``, so that the size of the
    rationals, and with it the cost, does not depend on the seed."""
    support = list(support)
    cuts = sorted(int(x) for x in rng.choice(np.arange(1, total), size=len(support) - 1,
                                             replace=False))
    raw = [0] * (n + 1)
    for i, lo, hi in zip(support, [0] + cuts, cuts + [total]):
        raw[i] = hi - lo
    return tuple(Fraction(x, total) for x in raw)


def _full_level(lam, n):
    nz = [x != 0 for x in lam]
    return (nz[0] and nz[n]) or all(nz[i] for i in range(1, n + 1, 2)) \
        or all(nz[i] for i in range(0, n + 1, 2))


# ---------------------------------------------------------------------------
# exact: symmetric routes, hypergraph counts and the CLI
# ---------------------------------------------------------------------------

def _family_sep(rng, n):
    """Rational mixture of two product states |t><t|^n: separable, all weights > 0.

    Denominators are fixed so that the size of the rationals, and with it
    the cost, does not depend on the seed; numerators and weights do."""
    lam = [Fraction(0)] * (n + 1)
    ws = [Fraction(int(rng.integers(1, 9))) for _ in range(2)]
    tot = sum(ws)
    for w, b in zip(ws, (5, 7)):
        p = Fraction(int(rng.integers(1, b)), b)
        for i in range(n + 1):
            lam[i] += w / tot * math.comb(n, i) * p ** i * (1 - p) ** (n - i)
    return tuple(lam)


def _family_closed(rng, n, k):
    """Support 0..k with k <= n-2: no vanishing weight below the top."""
    return _rand_fraction_weights(rng, range(k + 1), n)


def _family_lp(rng, n, wide):
    """Support {1, n-1}, or {1, 2, n-1} when ``wide`` (n >= 5): at least two
    vanishing weights below the top, so the linear-program bracket runs."""
    return _rand_fraction_weights(rng, (1, 2, n - 1) if wide else (1, n - 1), n)


def _check_lp_certificate(lo, hi, cert, lam, n):
    """An LP-bracket answer must carry a valid alternative at level lo-1."""
    if cert.get("route") != "lp_bracket" or cert.get("flipped"):
        return False
    if cert.get("alternative_level") is None:
        return lo == 2 and hi >= lo
    m = cert["alternative_level"]
    alt = [Fraction(x) for x in cert["alternative_member"]]
    if min(alt) < -1e-9 or abs(sum(alt) - 1) > 1e-9 or lo != m + 1 or hi < lo:
        return False
    if max(abs(float(a) - float(b)) for a, b in zip(alt, lam)) < 1e-9:
        return False
    a = _hypergeometric_marginal(alt, n, m)
    b = _hypergeometric_marginal(lam, n, m)
    return max(abs(float(x - y)) for x, y in zip(a, b)) < 1e-9


def _write_state(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise EdlkitError("CLI", "exit code %d" % code)
    return json.loads(buf.getvalue())


SYMMETRIC_POOL_SEED = 20240811


def exact_round(rng, workdir):
    cases = []
    cli_cmds = ("edl", "sdl", "marginal")
    # Eight instances per size and family: the median of a mixture of kinds
    # sits where its distribution is flat, so a smaller round lets the
    # seed's random weights move case_p50_ms (four instances: 8% between
    # seeds).
    for n, j, _ in itertools.product(range(3, 11), range(4), range(2)):
        k_c = 1 + j * (n - 3) // 3
        mixes = [("sep", _family_sep(rng, n), n),
                 ("closed", _family_closed(rng, n, k_c), k_c + 1)]
        if n >= 5:
            mixes.append(("lp", _family_lp(rng, n, j % 2 == 1), None))
        i = int(rng.integers(1, n))
        mixes.append(("single", tuple(Fraction(int(m == i)) for m in range(n + 1)), 2))
        for fam_idx, (fam, lam, sdl_want) in enumerate(mixes):
            mix = symmetric.DickeMixture(n, lam)
            if n > 6 and fam == "sep":
                edl_ref = (lambda: None)        # separable by construction
            elif n > 6 and fam == "single":
                edl_ref = (lambda: 2)           # a single Dicke weight, 0 < i < n
            else:
                edl_ref = _once(lambda lam=lam, n=n: _oracle_edl_diag(lam, n))
            if sdl_want is None:
                def sdl_ok(lo, hi, cert, lam=lam, n=n):
                    return _check_lp_certificate(lo, hi, cert, lam, n)
            else:
                def sdl_ok(lo, hi, cert, w=sdl_want):
                    return (lo, hi) == (w, w)
            cases.append(Case("edl_diagonal." + fam,
                              lambda mix=mix: symmetric.edl_diagonal(mix),
                              lambda r, ref=edl_ref: r.value == ref()))
            cases.append(Case("sdl_diagonal." + fam,
                              lambda mix=mix: symmetric.sdl_diagonal(mix),
                              lambda r, ok=sdl_ok: ok(r.lo, r.hi, r.certificate)))
            if fam == "single":
                continue
            path = _write_state(workdir, "dicke_%d_%s_%d.json" % (n, fam, len(cases)),
                                cli.state_to_json(mix))
            cmd = cli_cmds[(n + j + fam_idx) % 3]
            if cmd == "edl":
                cases.append(Case("cli.edl", lambda p=path: _run_cli(["edl", "--state", p]),
                                  lambda d, ref=edl_ref: d["result"]["edl"] == ref()))
            elif cmd == "sdl":
                cases.append(Case("cli.sdl", lambda p=path: _run_cli(["sdl", "--state", p]),
                                  lambda d, ok=sdl_ok: ok(d["result"]["lo"], d["result"]["hi"],
                                                          d["certificates"])))
            else:
                keep = "%d,%d" % tuple(sorted(int(x) + 1 for x in rng.choice(n, size=2,
                                                                           replace=False)))
                want = [str(x) for x in _hypergeometric_marginal(lam, n, 2)]
                cases.append(Case("cli.marginal",
                                  lambda p=path, kp=keep: _run_cli(
                                      ["marginal", "--state", p, "--keep", kp]),
                                  lambda d, w=want: d["result"]["state"]["lambda"] == w))
    # The coefficient matrices are the first draws of a fixed generator,
    # turned by a random local unitary u^n, u a phase gate after an optional
    # bit flip: with matrices drawn per seed, the share of cheap cases, and
    # with it case_p50_ms, depended on the seed.
    pool_rng = np.random.default_rng(SYMMETRIC_POOL_SEED)
    for n, r in itertools.product(range(3, 9), (1, 2, 3) * 4):
        g = pool_rng.normal(size=(n + 1, r)) + 1j * pool_rng.normal(size=(n + 1, r))
        a = g @ g.conj().T
        if rng.integers(2):
            a = a[::-1, ::-1]
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi) * np.arange(n + 1))
        a = phase[:, None] * a * phase.conj()[None, :]
        co = symmetric.SymmetricCoeffs(n, a / np.trace(a).real)
        ref = _once(lambda co=co, n=n: _oracle_edl_sym(co, n))
        cases.append(Case("edl_symmetric", lambda co=co: symmetric.edl_symmetric(co),
                          lambda res, ref=ref: res.value == ref()))
    for n in [m for m in range(3, 11) for _ in range(4)]:
        k = int(rng.integers(2, n + 1))
        ref = _once(lambda n=n, k=k: _oracle_min_count(n, k))
        cases.append(Case("min_marginal_count", lambda n=n, k=k: hypergraph.min_marginal_count(n, k),
                          lambda out, n=n, ref=ref: out[0] == ref()
                          and len(out[1]) == out[0] and _bfs_connected(list(out[1].edges), n)))
        cases.append(Case("cli.min-collection",
                          lambda n=n, k=k: _run_cli(["min-collection", "--n", str(n), "--k", str(k)]),
                          lambda d, ref=ref: d["result"]["count"] == ref()))
        edl = int(rng.integers(2, n + 1))
        subsets = [sorted(int(x) + 1 for x in rng.choice(n, size=int(rng.integers(2, n + 1)),
                                                          replace=False))
                   for _ in range(int(rng.integers(1, 4)))]
        target = sorted(int(x) + 1 for x in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                         replace=False))
        masks = [sum(1 << (j - 1) for j in s) for s in subsets]
        holds = (_bfs_connected(masks, n) and max(len(s) for s in subsets) >= edl
                 and len(target) >= edl)
        query = hypergraph.TransitivityQuery(
            hypergraph.SubsetCollection.from_lists(n, subsets), tuple(target))
        cases.append(Case("transitivity_certificate",
                          lambda q=query, e=edl: hypergraph.transitivity_certificate(q, e),
                          lambda out, h=holds: out[0] == h and (len(out[1]) == 0) == h))
    return cases


def _oracle_edl_sym(co, n):
    dense = oracle.dense_from_symmetric(co.a, n)
    for k in range(2, n + 1):
        marg = oracle.brute_marginal(dense, n, range(1, k + 1)) if k < n else dense
        ppt, _eig = oracle.brute_ppt(marg, k)
        if not ppt:
            return k
    return None


def _oracle_min_count(n, k):
    if n <= 6 and (k <= 4 or k == n):
        return oracle.exhaustive_min_connected_cover(n, k)[0]
    # frozen reference above the oracle's range: ceil((n-1)/(k-1))
    return -(-(n - 1) // (k - 1))


# ---------------------------------------------------------------------------
# witness: the fully decomposable witness program
# ---------------------------------------------------------------------------

# Witness values of the noiseless base states, frozen at this commit; the
# generic dense path (build_fdw_problem + solve_sdp) agrees to 1e-15.  With
# white noise p the value is exactly (1-p) alpha + p/2^n, because every
# feasible witness has unit trace, and it is invariant under local unitaries.
FROZEN_ALPHA = {
    ("w", "pairs"): -0.0545826949633539,
    ("w", "chain"): -0.02853849905734893,
    ("ghz", "pairs"): 0.0,
    ("ghz", "chain"): 0.0,
    ("ghz", "full"): -1.0 / 6.0,
    ("dmix14", "pairs"): -0.042591371767462326,
    ("dmix14", "chain"): -0.017183193759062926,
    ("dmix12", "pairs"): -0.03867514525708946,
    ("dmix12", "chain"): -1.0 / 72.0,
    ("wghz34", "pairs"): -0.0016571398862521777,
    ("wghz34", "chain"): -0.0005604355060340183,
    ("ghz4", "pairs"): 0.0,
}
ALPHA_TOL = 1e-5


def _witness_base(name):
    if name == "w":
        return _proj(_dicke_amp(3, 1))
    if name == "ghz":
        return _proj(_ghz_amp(3))
    if name == "dmix14":
        return 0.25 * _proj(_dicke_amp(3, 1)) + 0.75 * _proj(_dicke_amp(3, 2))
    if name == "dmix12":
        return 0.5 * _proj(_dicke_amp(3, 1)) + 0.5 * _proj(_dicke_amp(3, 2))
    if name == "wghz34":
        return 0.75 * _proj(_dicke_amp(3, 1)) + 0.25 * _proj(_ghz_amp(3))
    if name == "ghz4":
        return _proj(_ghz_amp(4))
    raise KeyError(name)


def _collection(name, n):
    if name == "pairs":
        return hypergraph.all_k_subsets(n, 2)
    if name == "chain":
        return hypergraph.SubsetCollection.from_lists(n, [[j, j + 1] for j in range(1, n)])
    return hypergraph.all_k_subsets(n, n)


def _alpha_matches(alpha, ref):
    if abs(alpha - ref) > ALPHA_TOL:
        return False
    return abs(ref) <= ALPHA_TOL or (alpha < 0) == (ref < 0)


def _fdw_case(base, coll, p, rng):
    rho0 = _witness_base(base)
    n = int(round(math.log2(rho0.shape[0])))
    u = _local_unitary(rng, n)
    d = 1 << n
    rho = (1 - p) * (u @ rho0 @ u.conj().T) + p * np.eye(d) / d
    ref = (1 - p) * FROZEN_ALPHA[(base, coll)] + p / d
    collection = _collection(coll, n)

    def run():
        alpha, w = witness.fully_decomposable_alpha(rho, collection)
        return alpha, witness.verify_witness(w, rho)

    def check(out):
        alpha, verdict = out
        return verdict.ok and abs(verdict.value - alpha) < 1e-9 and _alpha_matches(alpha, ref)
    return Case("fdw.%s.%s.n%d" % (base, coll, n), run, check)


def _edl_upper_case(base, p, rng):
    rho0 = _witness_base(base)
    u = _local_unitary(rng, 3)
    rho = (1 - p) * (u @ rho0 @ u.conj().T) + p * np.eye(8) / 8
    # first level whose frozen value is clearly negative
    for k, coll in ((2, "pairs"), (3, "full")):
        ref = (1 - p) * FROZEN_ALPHA[(base, coll)] + p / 8
        if ref < -10 * witness.DEFAULT_TOL:
            break

    def run():
        k_out, alpha, w = witness.edl_upper_bound(rho)
        return k_out, alpha, witness.verify_witness(w, rho)

    def check(out):
        k_out, alpha, verdict = out
        return k_out == k and verdict.ok and _alpha_matches(alpha, ref)
    return Case("edl_upper_bound.%s" % base, run, check)


def witness_round(rng):
    cases = []
    for coll in ("pairs", "chain"):
        for p in (0.05, 0.15):
            cases.append(_fdw_case("w", coll, p, rng))
        cases.append(_fdw_case("ghz", coll, float(rng.choice([0.1, 0.3])), rng))
        cases.append(_fdw_case("dmix14", coll, 0.1, rng))
        # p = 0.1 is exactly the noise threshold of this state on the chain
        cases.append(_fdw_case("dmix12", coll, 0.05, rng))
        cases.append(_fdw_case("wghz34", coll, 0.1, rng))
    cases.append(_fdw_case("ghz4", "pairs", 0.2, rng))
    cases.append(_edl_upper_case("w", 0.1, rng))
    cases.append(_edl_upper_case("ghz", 0.1, rng))
    return cases


def crit07_state():
    """The four-qubit probe state of acceptance criterion 07 / 09."""
    amp = np.zeros(16, dtype=complex)
    amp[0b1000] = 1 / math.sqrt(2)
    amp[0b0100] = 1 / math.sqrt(3)
    amp[0b0010] = 1 / math.sqrt(12)
    amp[0b0001] = 1 / math.sqrt(24)
    amp[0b1111] = 1 / math.sqrt(24)
    return amp


def probe_inputs():
    """Inputs of the fixed-cap witness probe: (label, rho, collection, cap)."""
    w3 = 0.95 * _proj(_dicke_amp(3, 1)) + 0.05 * np.eye(8) / 8
    return [("n3", w3, _collection("pairs", 3), 101),
            ("n4", _proj(crit07_state()), _collection("pairs", 4), 41)]


# ---------------------------------------------------------------------------
# determination: marginal-compatibility SDPs through solve_sdp
# ---------------------------------------------------------------------------

def _sdl_case(kind, amp, want, rng):
    n = int(round(math.log2(amp.shape[0])))
    psi = qcore.PureVector(n, _local_unitary(rng, n) @ amp)

    def check(out):
        value, alphas = out
        return value == want and alphas[value] >= 1 - 1e-5
    return Case("sdl_pure.%s.n%d" % (kind, n), lambda: witness.sdl_pure(psi), check)


def _refit_case(rng):
    """Criterion-08 witness blocks, rotated by a random local unitary."""
    us = [_haar_unitary(rng, 2) for _ in range(3)]
    xx_yy = qcore.pauli_string(2, "XX") + qcore.pauli_string(2, "YY")
    zz = qcore.pauli_string(2, "ZZ")
    h12 = np.eye(4) / 8 - xx_yy / 18 - zz / 72
    h23 = -xx_yy / 18 - zz / 72
    u12 = np.kron(us[0], us[1])
    u23 = np.kron(us[1], us[2])
    coll = hypergraph.SubsetCollection.from_lists(3, [[1, 2], [2, 3]])
    bare = witness.Witness(3, coll, float("nan"),
                           [(qcore.Subset.from_indices(3, (1, 2)), u12 @ h12 @ u12.conj().T),
                            (qcore.Subset.from_indices(3, (2, 3)), u23 @ h23 @ u23.conj().T)],
                           [])
    u = np.kron(np.kron(us[0], us[1]), us[2])
    rho = u @ (0.5 * _proj(_dicke_amp(3, 1)) + 0.5 * _proj(_dicke_amp(3, 2))) @ u.conj().T

    def run():
        return witness.verify_witness(witness.refit_certificates(bare), rho)

    return Case("refit_certificates", run,
                lambda v: v.ok and abs(v.value + 1.0 / 72.0) < 1e-9)


def _probe_case(n, k, i):
    a = np.zeros((n + 1, n + 1))
    a[i, i] = 1.0
    co = symmetric.SymmetricCoeffs(n, a)
    return Case("symmetric_sdl_probe.n%d" % n, lambda: witness.symmetric_sdl_probe(co, k),
                lambda res: res.verdict == "UNIQUE")


RANDOM_PURE_POOL_SEED = 20240811


def determination_round(rng):
    cases = []
    for n in (3, 4):
        cases.append(_sdl_case("ghz", _ghz_amp(n), n, rng))
    for n in (3, 4, 5):
        cases.append(_sdl_case("w", _dicke_amp(n, 1), 2, rng))
    cases.append(_sdl_case("dicke", _dicke_amp(4, 2), 2, rng))
    cases.append(_sdl_case("probe09", crit07_state(), 3, rng))
    # Almost every three-qubit pure state is fixed by its two-body marginals.
    # The two random states are the first draws of a fixed generator, rotated
    # by the run's random local unitaries: the solve time of a random state
    # ranges over 40x (0.13 s to 5.4 s measured), which would make the cost
    # of a round depend on the seed.
    pool_rng = np.random.default_rng(RANDOM_PURE_POOL_SEED)
    for _ in range(2):
        amp = pool_rng.normal(size=8) + 1j * pool_rng.normal(size=8)
        cases.append(_sdl_case("random", amp / np.linalg.norm(amp), 2, rng))
    cases.append(_refit_case(rng))
    cases.append(_probe_case(3, 2, 1))
    cases.append(_probe_case(4, 3, 2))
    return cases


# ---------------------------------------------------------------------------
# graph-orbit: local-complementation orbits and uniformity
# ---------------------------------------------------------------------------

def _random_graph(rng, n, extra):
    """Random labeled tree with ``extra`` further random edges."""
    while True:
        perm = [int(x) + 1 for x in rng.permutation(n)]
        edges = {tuple(sorted((perm[v], perm[int(rng.integers(0, v))]))) for v in range(1, n)}
        rest = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in edges]
        for j in rng.choice(len(rest), size=extra, replace=False):
            edges.add(rest[int(j)])
        g = graphstate.SimpleGraph.from_edges(n, sorted(edges))
        if g.max_degree() > 2:
            return g


def _reference_orbit(graph):
    """Independent orbit scan on adjacency bitmasks: (min max degree, orbit size).

    Stops early, like the program, once maximum degree 2 is reached.
    """
    n = graph.n
    adj = [0] * n
    for a, b in graph.edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    start = tuple(adj)

    def maxdeg(g):
        return max(bin(x).count("1") for x in g)
    best = maxdeg(start)
    seen = {start}
    todo = deque([start])
    while todo and best > 2:
        g = todo.popleft()
        for v in range(n):
            nb = g[v]
            new = list(g)
            for a in range(n):
                if nb >> a & 1:
                    new[a] ^= nb & ~(1 << a)
            t = tuple(new)
            if t not in seen:
                seen.add(t)
                todo.append(t)
                best = min(best, maxdeg(t))
    return best, len(seen)


def _reference_uniformity(graph):
    """Largest k with every k-subset of full GF(2) cut rank, as for graph states."""
    n = graph.n
    adj = [0] * n
    for a, b in graph.edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)

    def cut_rank(sub):
        rest = ((1 << n) - 1) & ~sum(1 << v for v in sub)
        rows = [adj[v] & rest for v in sub]
        rank = 0
        for bit in range(n):
            piv = next((i for i, r in enumerate(rows) if r >> bit & 1), None)
            if piv is None:
                continue
            pr = rows.pop(piv)
            rows = [r ^ pr if r >> bit & 1 else r for r in rows]
            rank += 1
        return rank
    level = 0
    for k in range(1, n):
        if any(cut_rank(s) < k for s in itertools.combinations(range(n), k)):
            return level
        level = k
    return level


def _graph_case(graph):
    ref = _once(lambda: _reference_orbit(graph))

    def check(b):
        mdeg, size = ref()
        return ((b.lo, b.hi) == (3, 1 + mdeg) and b.exact_hi
                and (mdeg <= 2 or b.orbit.visited == size))
    return Case("graph_bounds.n%d" % graph.n, lambda: graphstate.graph_bounds(graph), check)


def _uniformity_case(graph):
    ref = _once(lambda: _reference_uniformity(graph))
    return Case("uniformity_level.n%d" % graph.n,
                lambda: graphstate.uniformity_level(graphstate.graph_state(graph)),
                lambda level: level == ref())


# The graphs themselves come from a fixed generator; the run's seed draws a
# random relabeling of each.  Orbit sizes of random graphs vary by an order
# of magnitude, so graphs drawn per seed would make one seed's round several
# times dearer than another's; a relabeled graph has an orbit of the same size.
GRAPH_POOL_SEED = 20240811


def _relabel(graph, rng):
    perm = [0] + [int(x) + 1 for x in rng.permutation(graph.n)]
    return graphstate.SimpleGraph.from_edges(graph.n, [(perm[a], perm[b]) for a, b in graph.edges])


def graph_round(rng):
    pool_rng = np.random.default_rng(GRAPH_POOL_SEED)
    cases = []
    # A short round gives each case more repetitions in a run, and so more
    # chances to be timed while the machine is not slowed from elsewhere.
    for n, extra, count in ((7, 2, 6), (8, 1, 6), (9, 0, 4), (10, 0, 4)):
        for _ in range(count):
            g = _relabel(_random_graph(pool_rng, n, extra), rng)
            cases.append(_graph_case(g))
            if n <= 8:
                cases.append(_uniformity_case(g))
    return cases


def build_round(workload, seed, workdir):
    """The round's cases in the order they were generated and in run order.

    The generation order is the same for every seed, so its first case of a
    kind is a warm-up whose cost does not depend on the seed.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "exact":
        cases = exact_round(rng, workdir)
    elif workload == "witness":
        cases = witness_round(rng)
    elif workload == "determination":
        cases = determination_round(rng)
    elif workload == "graph-orbit":
        cases = graph_round(rng)
    else:
        raise ValueError(workload)
    order = rng.permutation(len(cases))
    return cases, [cases[i] for i in order]


MODULES = {
    "symmetric": symmetric, "_simplex": _simplex, "hypergraph": hypergraph,
    "qcore": qcore, "witness": witness, "graphstate": graphstate, "cli": cli,
}
