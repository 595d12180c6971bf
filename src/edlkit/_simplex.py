"""Dense tableau simplex for tiny linear programs.

Maximizes ``c . y`` over ``{y : G y <= h}`` with free variables ``y``, via
the standard split ``y = u - v`` with ``u, v >= 0`` plus slack variables.
The right-hand side must be nonnegative so that the all-slack basis is
feasible; every call site in this package satisfies that (the feasible set
always contains ``y = 0``).  Bland's smallest-index rule keeps the pivot
sequence deterministic and cycle-free.
"""

from __future__ import annotations

import numpy as np

from .errors import EdlkitError


def simplex_max(c, G, h, tol=1e-9, max_iter=20000):
    """Maximize ``c . y`` subject to ``G y <= h`` (``y`` free).

    Returns ``(value, y)`` at an optimal vertex.  Requires ``h >= 0``.
    Raises ``SOLVER_FAIL`` on an unbounded objective or if the pivot budget
    is exhausted (neither happens for the bounded polytopes used here).
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, p = G.shape
    if h.shape != (m,) or c.shape != (p,):
        raise EdlkitError("DIM_MISMATCH", "inconsistent LP dimensions")
    if np.any(h < -tol):
        raise EdlkitError("SOLVER_FAIL", "simplex_max needs a nonnegative right-hand side")
    h = np.maximum(h, 0.0)

    # columns: u (p), v (p), slack (m)
    T = np.hstack([G, -G, np.eye(m)])
    b = h.copy()
    cc = np.concatenate([c, -c, np.zeros(m)])
    basis = list(range(2 * p, 2 * p + m))

    for _ in range(max_iter):
        cb = cc[basis]
        reduced = cc - cb @ T
        candidates = np.flatnonzero(reduced > tol)
        if candidates.size == 0:
            value = float(cb @ b)
            y = np.zeros(p)
            for i, var in enumerate(basis):
                if var < p:
                    y[var] += b[i]
                elif var < 2 * p:
                    y[var - p] -= b[i]
            return value, y
        entering = int(candidates[0])
        col = T[:, entering].tolist()
        rhs = b.tolist()
        best_ratio = None
        leaving = -1
        for i in range(m):
            if col[i] > tol:
                ratio = rhs[i] / col[i]
                if best_ratio is None or ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise EdlkitError("SOLVER_FAIL", "LP unbounded (unexpected for a bounded polytope)")
        piv = T[leaving, entering]
        T[leaving] /= piv
        b[leaving] /= piv
        f = T[:, entering].copy()
        f[leaving] = 0.0
        rows = f != 0.0
        T[rows] -= np.outer(f[rows], T[leaving])
        b[rows] -= f[rows] * b[leaving]
        b[rows & (b > -1e-12) & (b < 0.0)] = 0.0  # clamp pivot round-off
        basis[leaving] = entering
    raise EdlkitError("SOLVER_FAIL", "simplex pivot budget exhausted")
