"""Check the zero-pattern cone test against the full coordinate search on its whole domain.

For every n in 2..MAX_QUBITS, every level m in 1..n-1 and every nonempty
proper zero set Z of the weights 0..n, ``symmetric._level_direction`` must
return a direction exactly when ``oracle.alternative_nonneg_point_lp`` finds an
alternative on the uniform mixture supported off Z.  Each direction must also
be a nonzero point of the cone ``{d : N_Z d >= 0}`` (to ``1e-12 max|d|``), and
the alternative that ``sdl_diagonal`` builds from it for the uniform mixture
must be valid (:func:`is_valid_alternative`).  Not collected by pytest
(20-40 s at n <= 10); run it as

    PYTHONPATH=src python tests/check_pattern_domain.py [max_n]

It prints the number of triples checked and exits 1 listing any that disagree.
"""

import sys
from fractions import Fraction

import numpy as np

from edlkit import oracle, qcore
from edlkit.symmetric import (DickeMixture, _alternative_member, _alternative_nonneg_point,
                              _kernel_array, _level_direction)

ALT_TOL = 1e-12


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


def direction_is_valid(mix, m, zero_mask, direction):
    """A nonzero cone point whose alternative for ``mix`` is valid."""
    scale = float(np.max(np.abs(direction)))
    zeros = [i for i in range(mix.n + 1) if zero_mask >> i & 1]
    if scale == 0.0 or np.any(_kernel_array(mix.n, m)[zeros] @ direction < -ALT_TOL * scale):
        return False
    point = _alternative_nonneg_point(mix, m)
    return is_valid_alternative(mix, m, _alternative_member(mix.floats, m, point))


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


def main(argv):
    max_n = int(argv[0]) if argv else qcore.MAX_QUBITS
    checked, bad = pattern_mismatches(max_n)
    print("checked %d (n, m, zero set) triples, n <= %d: %d disagree" % (checked, max_n, len(bad)))
    for n, m, zero_mask in bad:
        print("  n=%d m=%d zeros=%s" % (n, m, [i for i in range(n + 1) if zero_mask >> i & 1]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
