"""Graph states: construction, local complementation, determination bounds."""

import itertools

import numpy as np
import pytest

from edlkit import graphstate, oracle, qcore
from edlkit.errors import EdlkitError
from edlkit.graphstate import (
    SimpleGraph,
    graph_bounds,
    graph_state,
    lc_orbit_min_max_degree,
    local_complement,
    uniformity_level,
)
from check_orbit_domain import pair_toggle_mask, stabilizer_matrix


def random_connected_graph(rng, n, extra):
    """Random labeled tree on 1..n with ``extra`` further random edges."""
    perm = [int(x) + 1 for x in rng.permutation(n)]
    edges = {tuple(sorted((perm[v], perm[int(rng.integers(0, v))]))) for v in range(1, n)}
    rest = [(a, b) for a, b in itertools.combinations(range(1, n + 1), 2) if (a, b) not in edges]
    for j in rng.choice(len(rest), size=min(extra, len(rest)), replace=False):
        edges.add(rest[int(j)])
    return SimpleGraph.from_edges(n, edges)


STAR = SimpleGraph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
DIAMOND = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
PRISM = SimpleGraph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                                   (1, 4), (2, 5), (3, 6)])
K33 = SimpleGraph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])


def orbit_graphs():
    rng = np.random.default_rng(606)
    graphs = [STAR, DIAMOND, SimpleGraph.cycle(5), PRISM, K33]
    for n in range(3, 9):
        for extra in (0, 1, n // 2):
            graphs.append(random_connected_graph(rng, n, extra))
    return graphs


def wide_graphs():
    """n = 9..11: the packed graphs of the orbit scan are wider than 64 bits."""
    rng = np.random.default_rng(911)
    return [random_connected_graph(rng, n, extra) for n in (9, 10, 11) for extra in (0, 3)]


def cut_rank(graph, part):
    """GF(2) rank of the adjacency block between ``part`` and the rest."""
    rows = []
    for a in part:
        rows.append(sum(1 << (b - 1) for b in graph.neighbors(a) if b not in part))
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def test_graph_normalization_and_errors():
    g = SimpleGraph.from_edges(3, [(2, 1), (1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.degree(2) == 2 and g.max_degree() == 2
    with pytest.raises(EdlkitError) as err:
        SimpleGraph.from_edges(3, [(1, 1)])
    assert err.value.code == "BAD_VERTEX"
    with pytest.raises(EdlkitError):
        SimpleGraph.from_edges(3, [(1, 4)])
    assert SimpleGraph(np.int64(3), ((np.int64(1), 2),)) == SimpleGraph(3, ((1, 2),))
    for n in (3.0, True, "3", 0):
        with pytest.raises(EdlkitError) as err:
            SimpleGraph(n, ((1, 2),))
        assert err.value.code == "DIM_MISMATCH", n
    for edge in ((1.5, 2), (1, 2.0), (True, 2), ("1", 2)):
        with pytest.raises(EdlkitError) as err:
            SimpleGraph.from_edges(3, [edge])
        assert err.value.code == "BAD_VERTEX", edge
    for v in (0, 4, 1.5, True):
        with pytest.raises(EdlkitError) as err:
            local_complement(g, v)
        assert err.value.code == "BAD_VERTEX", v
    for budget in (0, -1, 2.5, True):
        with pytest.raises(EdlkitError) as err:
            graph_bounds(SimpleGraph.path(4), budget=budget)
        assert err.value.code == "BAD_BUDGET", budget


def test_path_cycle_builders():
    assert SimpleGraph.path(4).edges == ((1, 2), (2, 3), (3, 4))
    assert SimpleGraph.cycle(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert SimpleGraph.path(5).is_connected()
    assert not SimpleGraph(4, ((1, 2),)).is_connected()
    # the vertex count is checked before the edge list is built
    for build, n, code in ((SimpleGraph.path, 3.0, "DIM_MISMATCH"),
                           (SimpleGraph.path, "3", "DIM_MISMATCH"),
                           (SimpleGraph.cycle, "5", "DIM_MISMATCH"),
                           (SimpleGraph.cycle, 5.0, "DIM_MISMATCH"),
                           (SimpleGraph.cycle, 2, "BAD_VERTEX")):
        with pytest.raises(EdlkitError) as err:
            build(n)
        assert err.value.code == code, (build, n)


def test_graph_state_stabilized():
    # up to n = 10, the largest graph-orbit size: graph_state does not check itself
    rng = np.random.default_rng(17)
    graphs = [SimpleGraph.path(3), SimpleGraph.cycle(5), DIAMOND]
    for n in range(1, 11):
        graphs.append(random_connected_graph(rng, n, n // 2))
        graphs.append(SimpleGraph(n, ()))
        graphs.append(SimpleGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2)))
    for g in graphs:
        psi = graph_state(g).amplitudes
        for v in range(1, g.n + 1):
            s = stabilizer_matrix(g, v)
            assert np.max(np.abs(s @ psi - psi)) < 1e-12, (g.edges, v)


def test_two_vertex_graph_state_is_maximally_entangled():
    psi = graph_state(SimpleGraph.from_edges(2, [(1, 2)]))
    rho = psi.to_density().matrix
    marg = qcore.partial_trace(rho, [1])
    assert np.max(np.abs(marg - np.eye(2) / 2)) < 1e-12


def test_local_complement_involution_and_state_equivalence():
    g = SimpleGraph.cycle(5)
    h = local_complement(g, 2)
    assert h != g
    assert local_complement(h, 2) == g
    # degrees change but the vertex set does not
    assert h.n == 5 and h.is_connected()


def test_local_complement_matches_edge_set_toggle():
    for g in orbit_graphs() + wide_graphs():
        for v in range(1, g.n + 1):
            h = local_complement(g, v)
            assert h == oracle.local_complement_edges(g, v), (g.edges, v)
            assert local_complement(h, v) == g, (g.edges, v)


def test_local_complement_preserves_marginal_spectra():
    # local Clifford equivalence: every marginal keeps its eigenvalues
    g = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    h = local_complement(g, 1)
    rho_g = graph_state(g).to_density().matrix
    rho_h = graph_state(h).to_density().matrix
    for combo in itertools.chain.from_iterable(
            itertools.combinations(range(1, 5), k) for k in (1, 2, 3)):
        eg = np.linalg.eigvalsh(qcore.partial_trace(rho_g, combo))
        eh = np.linalg.eigvalsh(qcore.partial_trace(rho_h, combo))
        assert np.max(np.abs(eg - eh)) < 1e-12, combo


def test_orbit_reaches_cycle_from_diamond():
    diamond = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    orbit = lc_orbit_min_max_degree(diamond)
    assert orbit.min_max_degree == 2
    w = orbit.witness
    assert all(w.degree(v) == 2 for v in range(1, 5)) and w.is_connected()


def test_orbit_matches_edge_set_search():
    truncated = 0
    cases = ([(g, (5, 50, 100000)) for g in orbit_graphs()]
             + [(g, (5, 50, 500)) for g in wide_graphs()])
    for g, budgets in cases:
        for budget in budgets:
            orbit = lc_orbit_min_max_degree(g, budget=budget)
            assert orbit == oracle.lc_orbit_edge_sets(g, budget=budget), (g.edges, budget)
            truncated += not orbit.exhausted
    assert truncated  # some budgets cut the search short


def test_orbit_mask_memo_is_per_vertex_count():
    # scans alternate between vertex counts, so a memo that forgot n would hand
    # one scan the mask built at another n for the same neighbourhood
    rng = np.random.default_rng(4911)
    graphs = {n: [random_connected_graph(rng, n, extra) for extra in (0, 2)] for n in (4, 9, 11)}
    truncated = 0
    for n in (9, 4, 11, 4, 9):
        for g in graphs[n]:
            for budget in (2, 30, 100000 if n == 4 else 400):
                orbit = lc_orbit_min_max_degree(g, budget=budget)
                assert orbit == oracle.lc_orbit_edge_sets(g, budget=budget), (g.edges, budget)
                truncated += not orbit.exhausted
    assert truncated  # some budgets cut the scan short
    for n in (4, 9):
        memo = graphstate._SPREAD[n]
        assert memo
        for nbs, mask in memo.items():
            assert mask == pair_toggle_mask(nbs, n), (n, nbs)
    # above the dense cap the masks stay with the scan, so the shared memo stays bounded
    assert not any(n > qcore.MAX_QUBITS for n in graphstate._SPREAD)


def test_orbit_requires_connected_graph():
    with pytest.raises(EdlkitError) as err:
        lc_orbit_min_max_degree(SimpleGraph(4, ((1, 2), (3, 4))))
    assert err.value.code == "DISCONNECTED"


def test_bounds_for_paths_cycles_and_diamond():
    for n in range(4, 8):
        for g in (SimpleGraph.path(n), SimpleGraph.cycle(n)):
            b = graph_bounds(g)
            assert (b.lo, b.hi) == (3, 3), g.edges
            assert b.exact_hi
    diamond = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    b = graph_bounds(diamond)
    assert (b.lo, b.hi) == (3, 3)


def test_star_orbit_contains_complete_graph():
    # star and complete graph are the GHZ orbit; min max degree stays n-1
    star = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    orbit = lc_orbit_min_max_degree(star)
    assert orbit.min_max_degree == 3
    assert orbit.exhausted
    b = graph_bounds(star)
    assert (b.lo, b.hi) == (3, 4)


def test_uniformity_levels():
    assert uniformity_level(graph_state(SimpleGraph.from_edges(2, [(1, 2)]))) == 1
    # GHZ graph state: 1-marginals mixed, some 2-marginal is not
    assert uniformity_level(graph_state(SimpleGraph.from_edges(3, [(1, 2), (1, 3)]))) == 1
    ring5 = graph_state(SimpleGraph.cycle(5))
    assert uniformity_level(ring5) == 2
    plus = qcore.PureVector(2, np.full(4, 0.5))
    assert uniformity_level(plus) == 0


def test_uniformity_level_rejects_bad_tolerances():
    # a NaN tolerance would let no marginal deviate from the maximally mixed one, so
    # GHZ_3 would read 2
    ghz3 = qcore.ghz_vector(3)
    for tol in (-1e-9, float("nan"), float("inf"), -float("inf"), "1e-9", None):
        with pytest.raises(EdlkitError) as err:
            uniformity_level(ghz3, tol=tol)
        assert err.value.code == "BAD_TOL", tol
    assert uniformity_level(ghz3) == 1
    uniformity_level(ghz3, tol=0.0)  # tol = 0 stays legal


def test_uniformity_matches_cut_rank():
    # a graph-state marginal on A is maximally mixed iff the cut rank of A is |A|
    rng = np.random.default_rng(29)
    graphs = [SimpleGraph.cycle(5), PRISM, K33]
    for n in range(3, 11):
        graphs += [random_connected_graph(rng, n, extra) for extra in (0, n // 2, n)]
    for g in graphs:
        level = 0
        for k in range(1, g.n):
            if any(cut_rank(g, part) < k
                   for part in itertools.combinations(range(1, g.n + 1), k)):
                break
            level = k
        assert uniformity_level(graph_state(g)) == level, g.edges


def test_cubic_six_vertex_graphs():
    levels = {}
    for name, g in (("prism", PRISM), ("k33", K33)):
        assert all(g.degree(v) == 3 for v in range(1, 7))
        levels[name] = uniformity_level(graph_state(g))
    # exactly the prism is 3-uniform (two same-side K33 vertices share their
    # neighborhood, so a weight-2 stabilizer product survives on that pair)
    assert levels["prism"] == 3
    assert levels["k33"] == 1
    b = graph_bounds(PRISM)
    assert b.hi == 4  # with 3-uniformity this pins the determination length to 4
