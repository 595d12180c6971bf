"""Check the Dicke-space routes of ``edl_symmetric`` against dense and loop references,
and ``edl_diagonal`` against Sylvester's criterion on every small exact input.

For seeded symmetric states with n in 2..max_n, at every level k of each
state:

- the Pascal walk ``symmetric._reduce_coeff_matrix`` must agree with the
  term-by-term ``oracle.reduce_coeff_matrix_loop`` to ``WALK_TOL``;
- the smallest eigenvalue of the partial transpose on k // 2 qubits taken
  inside Sym^j (x) Sym^(k-j) (``symmetric._half_cut_min_eig`` on the marginal's
  coefficient matrix) must agree with the one of ``to_dense`` +
  ``qcore.partial_transpose`` on the ``2^k`` space.  The dense spectrum adds
  zeros only, so both are clipped at 0 before they are compared; the PPT
  verdicts then agree as well.

The states come from four families: random rank 1..n+1 under white noise,
diagonal weights with zeros, spin-coherent mixtures and GHZ/Dicke mixtures.

The second pass takes every exact diagonal mixture with weights ``c_i / q``,
``q <= DOMAIN_Q``, at n = 2..DOMAIN_N, each weight vector once, and compares
the value and certificate of ``edl_diagonal`` (integer moments over one
common denominator, fraction-free elimination) with
``oracle.edl_diagonal_sylvester`` (binomial-sum marginals, every principal
minor of their Hankel matrices).

Not collected by pytest; run it as

    PYTHONPATH=src python tests/check_symmetric_ppt.py [max_n] [per_family]

It prints the number of levels and of mixtures checked and exits 1 listing
any that disagree.
"""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from edlkit import oracle, qcore
from edlkit.symmetric import (PSD_TOL, DickeMixture, SymmetricCoeffs, _half_cut_min_eig,
                              _reduce_coeff_matrix, edl_diagonal, symmetric_marginal, to_dense)

SEED = 15
MIN_EIG_TOL = 1e-12
WALK_TOL = 1e-13
DOMAIN_N = 6
DOMAIN_Q = 6


def _coherent(n, theta, phi):
    """Dicke amplitudes of the spin-coherent product state ``(cos t/2 |0> + e^(i phi) sin t/2 |1>)^n``."""
    up, down = math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)
    return np.array([math.sqrt(math.comb(n, i)) * up ** (n - i) * down ** i for i in range(n + 1)])


def _noisy(a, p):
    """``(1 - p) a / Tr a + p I / (n+1)``: white noise on the symmetric subspace."""
    return (1 - p) * a / np.trace(a).real + p * np.eye(len(a)) / len(a)


def seeded_states(n, per_family, rng):
    """``4 * per_family`` unit-trace Dicke coefficient matrices on n qubits."""
    out = []
    for _ in range(per_family):
        g = rng.normal(size=(n + 1, int(rng.integers(1, n + 2))))
        g = g + 1j * rng.normal(size=g.shape)
        out.append(_noisy(g @ g.conj().T, rng.random()))
        lam = rng.random(n + 1) * (rng.random(n + 1) > 0.4)
        lam[int(rng.integers(n + 1))] += 0.1
        out.append(_noisy(np.diag(lam).astype(complex), 0.0))
        coherent = [_coherent(n, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
                    for _ in range(int(rng.integers(1, 4)))]
        out.append(_noisy(sum(rng.random() * np.outer(c, c.conj()) for c in coherent),
                          0.3 * rng.random()))
        ghz = np.zeros((n + 1, n + 1), dtype=complex)
        ghz[0, 0] = ghz[n, n] = ghz[0, n] = ghz[n, 0] = 0.5
        i = int(rng.integers(n + 1))
        ghz[i, i] += rng.random()
        out.append(_noisy(ghz, rng.random()))
    return [SymmetricCoeffs(n, a) for a in out]


def dense_min_eig(bk):
    """Smallest eigenvalue of the ``2^k`` partial transpose of ``bk`` on its first k // 2 qubits."""
    half = qcore.Subset.from_indices(bk.n, range(1, bk.n // 2 + 1))
    pt = qcore.partial_transpose(to_dense(bk).matrix, half)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def ppt_mismatches(max_n, per_family):
    """``(checked, npt, disagreements)`` over every level of the seeded states, ``npt``
    counting the levels whose dense minimum is below ``-PSD_TOL`` and each disagreement
    a line naming its state size, level and values."""
    rng = np.random.default_rng(SEED)
    checked, npt, bad = 0, 0, []
    for n in range(2, max_n + 1):
        for coeffs in seeded_states(n, per_family, rng):
            for k in range(2, n + 1):
                walk_dev = np.max(np.abs(_reduce_coeff_matrix(n, k, coeffs.a)
                                         - oracle.reduce_coeff_matrix_loop(n, k, coeffs.a)))
                if walk_dev > WALK_TOL:
                    bad.append("n=%d k=%d walk deviates from the loop by %.3e" % (n, k, walk_dev))
                bk = symmetric_marginal(coeffs, k)
                dicke, dense = _half_cut_min_eig(bk.a), dense_min_eig(bk)
                checked += 1
                npt += dense < -PSD_TOL
                if abs(min(dicke, 0.0) - min(dense, 0.0)) > MIN_EIG_TOL:
                    bad.append("n=%d k=%d dicke %.3e dense %.3e" % (n, k, dicke, dense))
    return checked, npt, bad


def exact_weight_vectors(n, max_q):
    """Every weight vector ``(c_0/q, ..., c_n/q)`` with nonnegative integers ``c_i``
    summing to some ``q <= max_q``, each distinct vector once."""
    seen = set()
    for q in range(1, max_q + 1):
        for bars in itertools.combinations(range(q + n), n):  # stars and bars
            ends = (-1,) + bars + (q + n,)
            lam = tuple(Fraction(b - a - 1, q) for a, b in zip(ends, ends[1:]))
            if lam not in seen:
                seen.add(lam)
                yield lam


def diagonal_mismatches(max_n, max_q):
    """``(checked, npt, disagreements)`` of ``edl_diagonal`` against
    ``oracle.edl_diagonal_sylvester`` over :func:`exact_weight_vectors` at
    n = 2..max_n, ``npt`` counting the entangled mixtures."""
    checked, npt, bad = 0, 0, []
    for n in range(2, max_n + 1):
        for lam in exact_weight_vectors(n, max_q):
            res = edl_diagonal(DickeMixture(n, lam))
            ref = oracle.edl_diagonal_sylvester(lam, n)
            checked += 1
            npt += ref[0] is not None
            if (res.value, res.certificate) != ref:
                bad.append("n=%d lam=%s edl %s %s, Sylvester %s %s"
                           % (n, [str(x) for x in lam], res.value, res.certificate, *ref))
    return checked, npt, bad


def main(argv):
    max_n = int(argv[0]) if argv else qcore.MAX_QUBITS
    per_family = int(argv[1]) if len(argv) > 1 else 5
    checked, npt, bad = ppt_mismatches(max_n, per_family)
    print("checked %d levels of seeded symmetric states (%d NPT), n <= %d: %d disagree"
          % (checked, npt, max_n, len(bad)))
    for line in bad:
        print("  " + line)
    exact_checked, exact_npt, exact_bad = diagonal_mismatches(DOMAIN_N, DOMAIN_Q)
    print("checked %d exact diagonal mixtures with weights c/q, q <= %d, n <= %d (%d entangled)"
          " against Sylvester's criterion: %d disagree"
          % (exact_checked, DOMAIN_Q, DOMAIN_N, exact_npt, len(exact_bad)))
    for line in exact_bad:
        print("  " + line)
    return 1 if bad or exact_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
