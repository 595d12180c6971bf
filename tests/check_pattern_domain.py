"""Check the zero-pattern cone test against the full coordinate search on its whole domain.

For every n in 2..MAX_QUBITS, every level m in 1..n-1 and every nonempty
proper zero set Z of the weights 0..n, ``symmetric._level_direction`` must
return a direction exactly when ``oracle.alternative_nonneg_point_lp`` finds an
alternative on the uniform mixture supported off Z.  Each direction must also
be a nonzero point of the cone ``{d : N_Z d >= 0}``, exactly in Fractions, and
the alternative that ``sdl_diagonal`` builds from it for the uniform mixture
must be valid (:func:`is_valid_alternative`).

A second pass checks that every cone verdict carries its certificate
(:func:`certificate_holds`), on the same domain and, past the dense cap, on
the support {1, n-1} and ``CERT_DRAWS`` seeded zero sets per n = 11..24: a
direction's weights ``N s`` are >= 0 on Z and a nonzero kernel vector, their
level-m marginal by ``oracle.diagonal_marginal_binomial`` exactly 0; a None
comes with a polynomial of degree at most m that vanishes off Z and is positive
on Z (:func:`gordan_roots`), so by Gordan's alternative the cone is {0}.

A third pass checks the zero rule on round-off: a float weight of 1e-13 in
place of a 0 must leave ``sdl_diagonal``'s bracket as it is
(:func:`roundoff_mismatches`, 333 inputs).  Not collected by pytest
(30-50 s at n <= 10); run it as

    PYTHONPATH=src python tests/check_pattern_domain.py [max_n]

It prints the count of each pass and exits 1 listing any input that disagrees.
"""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from edlkit import oracle, qcore
from edlkit.symmetric import (DickeMixture, _alternative_member, _alternative_nonneg_point,
                              _kernel_rows, _level_direction, sdl_diagonal)

ALT_TOL = 1e-12
ROUNDOFF = 1e-13
CERT_TOP_N = 24
CERT_DRAWS = 20
CERT_SEED = 24


def uniform_member(n, zero_mask):
    """Uniform weights on the indices whose bit is clear in ``zero_mask``."""
    support = [i for i in range(n + 1) if not zero_mask >> i & 1]
    weight = Fraction(1, len(support))
    return DickeMixture(n, tuple(weight if i in support else Fraction(0) for i in range(n + 1)))


def is_valid_alternative(mix, m, member):
    """Whether the float weights ``member`` are another state with the level-m
    marginal of ``mix``: every weight >= -1e-12, sum 1 and the marginal of
    ``oracle.diagonal_marginal_binomial`` within 1e-12, and not the input."""
    member = [float(x) for x in member]
    lam = [float(x) for x in mix.lam]
    if min(member) < -ALT_TOL or abs(sum(member) - 1.0) > ALT_TOL or member == lam:
        return False
    got = oracle.diagonal_marginal_binomial(member, mix.n, m)
    want = oracle.diagonal_marginal_binomial(lam, mix.n, m)
    return max(abs(a - b) for a, b in zip(got, want)) <= ALT_TOL


def cone_weights(n, m, direction):
    """The Fraction weights ``N s`` of the level-m kernel at ``s = direction``, each
    float entry read exactly."""
    s = [Fraction(float(x)) for x in direction]
    return [sum(a * b for a, b in zip(row, s)) for row in _kernel_rows(n, m)]


def direction_is_valid(mix, m, zero_mask, direction):
    """A nonzero cone point, ``N_Z s >= 0`` exactly, whose alternative for ``mix`` is valid."""
    weights = cone_weights(mix.n, m, direction)
    if not np.any(direction) or any(weights[i] < 0 for i in range(mix.n + 1) if zero_mask >> i & 1):
        return False
    point = _alternative_nonneg_point(mix, m)
    return is_valid_alternative(mix, m, _alternative_member(mix, m, point))


def pattern_mismatches(max_n):
    """``(checked, disagreeing (n, m, zero_mask) triples)`` for n = 2..max_n."""
    checked, bad = 0, []
    for n in range(2, max_n + 1):
        for zero_mask in range(1, (1 << (n + 1)) - 1):
            mix = uniform_member(n, zero_mask)
            for m in range(1, n):
                checked += 1
                found = oracle.alternative_nonneg_point_lp(mix, m) is not None
                direction = _level_direction(n, m, zero_mask)
                if (direction is not None) != found or (
                        found and not direction_is_valid(mix, m, zero_mask, direction)):
                    bad.append((n, m, zero_mask))
    return checked, bad


def gordan_roots(n, zero_mask):
    """Roots of a polynomial that vanishes at the nonzero indices and has one sign on
    the zeros: every nonzero index, and ``z - 1/2`` for each zero z with an odd number
    of nonzero indices between it and the zero before it."""
    roots, seen_zero, between = [], False, 0
    for i in range(n + 1):
        if not zero_mask >> i & 1:
            roots.append(Fraction(i))
            between += 1
            continue
        if seen_zero and between % 2:
            roots.append(Fraction(2 * i - 1, 2))
        seen_zero, between = True, 0
    return roots


def certificate_holds(n, m, zero_mask):
    """Whether the cone verdict of ``(n, m, zero_mask)`` carries its certificate: a
    direction's weights are >= 0 on the zeros and a nonzero kernel vector whose level-m
    marginal vanishes exactly; a None has a polynomial of degree at most m with the roots
    of :func:`gordan_roots`, of one sign on the zeros."""
    zeros = [i for i in range(n + 1) if zero_mask >> i & 1]
    direction = _level_direction(n, m, zero_mask)
    if direction is None:
        roots = gordan_roots(n, zero_mask)
        return len(roots) <= m and len({math.prod(z - r for r in roots) > 0 for z in zeros}) == 1
    weights = cone_weights(n, m, direction)
    return (any(weights) and all(weights[i] >= 0 for i in zeros)
            and not any(oracle.diagonal_marginal_binomial(weights, n, m)))


def certificate_failures(max_n):
    """``(checked, uncertified (n, m, zero_mask) triples)``: every zero set for n = 2..max_n,
    and for n = 11..CERT_TOP_N the support {1, n-1} and ``CERT_DRAWS`` seeded zero sets."""
    rng = np.random.default_rng(CERT_SEED)
    checked, bad = 0, []
    for n in list(range(2, max_n + 1)) + list(range(qcore.MAX_QUBITS + 1, CERT_TOP_N + 1)):
        full = (1 << (n + 1)) - 1
        if n <= max_n:
            masks = range(1, full)
        else:
            masks = [full - (1 << 1) - (1 << (n - 1))]    # support {1, n-1}
            masks += [int(x) for x in rng.integers(1, full, CERT_DRAWS)]
        for zero_mask in masks:
            for m in range(1, n):
                checked += 1
                if not certificate_holds(n, m, zero_mask):
                    bad.append((n, m, zero_mask))
    return checked, bad


def _bracket(mix):
    res = sdl_diagonal(mix)
    return res.lo, res.hi, res.flag


def roundoff_mismatches():
    """``(checked, disagreeing weight tuples)``: weights 0.4 and 0.6 on every pair of
    indices i < j at n = 5..7, with ``ROUNDOFF`` moved from the 0.6 onto each other index,
    against the unperturbed pair by ``sdl_diagonal``'s ``(lo, hi, flag)``."""
    checked, bad = 0, []
    for n in range(5, 8):
        for i, j in itertools.combinations(range(n + 1), 2):
            lam = [0.0] * (n + 1)
            lam[i], lam[j] = 0.4, 0.6
            want = _bracket(DickeMixture(n, tuple(lam)))
            for extra in set(range(n + 1)) - {i, j}:
                tilted = list(lam)
                tilted[j] -= ROUNDOFF
                tilted[extra] = ROUNDOFF
                checked += 1
                if _bracket(DickeMixture(n, tuple(tilted))) != want:
                    bad.append(tuple(tilted))
    return checked, bad


def main(argv):
    max_n = int(argv[0]) if argv else qcore.MAX_QUBITS
    checked, bad = pattern_mismatches(max_n)
    print("checked %d (n, m, zero set) triples, n <= %d: %d disagree" % (checked, max_n, len(bad)))
    for n, m, zero_mask in bad:
        print("  n=%d m=%d zeros=%s" % (n, m, [i for i in range(n + 1) if zero_mask >> i & 1]))
    checked_cert, bad_cert = certificate_failures(max_n)
    print("checked %d cone verdicts for their certificates, n <= %d, and {1, n-1} with %d"
          " seeded zero sets per n = %d..%d: %d fail" % (checked_cert, max_n, CERT_DRAWS,
                                                         qcore.MAX_QUBITS + 1, CERT_TOP_N,
                                                         len(bad_cert)))
    for n, m, zero_mask in bad_cert:
        print("  n=%d m=%d zeros=%s" % (n, m, [i for i in range(n + 1) if zero_mask >> i & 1]))
    checked_roundoff, bad_roundoff = roundoff_mismatches()
    print("checked %d two-weight inputs with a %.0e weight moved, n = 5..7: %d disagree"
          " with the weight at 0" % (checked_roundoff, ROUNDOFF, len(bad_roundoff)))
    for lam in bad_roundoff:
        print("  lam=%r" % (lam,))
    return 1 if bad or bad_cert or bad_roundoff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
