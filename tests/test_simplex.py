"""Dense tableau simplex against brute-force vertex enumeration."""

import itertools

import numpy as np
import pytest

from edlkit._simplex import simplex_max
from edlkit.errors import EdlkitError


def bounded_lp(rng, p, m):
    """``G y <= h`` with ``h >= 0`` and a bounded feasible set.

    The last row is a negative combination of the others, which span R^p, so
    no direction d != 0 has ``G d <= 0``.  Some right-hand sides are zero,
    making ``y = 0`` a degenerate vertex.
    """
    while True:
        rows = rng.integers(-4, 5, size=(m - 1, p)).astype(float)
        if np.linalg.matrix_rank(rows) == p:
            break
    last = -rng.uniform(0.5, 2.0) * rows.sum(axis=0)
    G = np.vstack([rows, last])
    h = rng.integers(0, 6, size=m).astype(float)
    return G, h


def vertex_optimum(c, G, h):
    """Largest ``c . y`` over the vertices: solutions of p tight rows that satisfy the rest."""
    m, p = G.shape
    best = -np.inf
    for rows in itertools.combinations(range(m), p):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        y = np.linalg.solve(sub, h[list(rows)])
        if np.all(G @ y <= h + 1e-9):
            best = max(best, float(c @ y))
    return best


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(300):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(p + 1, 8))
        G, h = bounded_lp(rng, p, m)
        c = rng.normal(size=p)
        value, y = simplex_max(c, G, h)
        assert abs(value - vertex_optimum(c, G, h)) <= 1e-9, (c, G, h)
        assert abs(value - float(c @ y)) <= 1e-9
        assert np.all(G @ y <= h + 1e-9)


def test_simplex_failures():
    # maximize -y subject to y <= 1: unbounded below
    with pytest.raises(EdlkitError) as err:
        simplex_max([-1.0], [[1.0]], [1.0])
    assert err.value.code == "SOLVER_FAIL"
    # the all-slack start needs h >= 0
    with pytest.raises(EdlkitError) as err:
        simplex_max([1.0], [[1.0], [-1.0]], [1.0, -1.0])
    assert err.value.code == "SOLVER_FAIL"
