"""Check the zero-pattern cone test against the full coordinate search on its whole domain.

For every n in 2..MAX_QUBITS, every level m in 1..n-1 and every nonempty
proper zero set Z of the weights 0..n, ``symmetric._level_has_directions``
must say whether ``oracle.alternative_nonneg_point_lp`` finds an alternative
on the uniform mixture supported off Z.  Not collected by pytest (20-30 s
at n <= 10); run it as

    PYTHONPATH=src python tests/check_pattern_domain.py [max_n]

It prints the number of triples checked and exits 1 listing any that disagree.
"""

import sys
from fractions import Fraction

from edlkit import oracle, qcore
from edlkit.symmetric import DickeMixture, _level_has_directions


def uniform_member(n, zero_mask):
    """Uniform weights on the indices whose bit is clear in ``zero_mask``."""
    support = [i for i in range(n + 1) if not zero_mask >> i & 1]
    weight = Fraction(1, len(support))
    return DickeMixture(n, tuple(weight if i in support else Fraction(0) for i in range(n + 1)))


def pattern_mismatches(max_n):
    """``(checked, disagreeing (n, m, zero_mask) triples)`` for n = 2..max_n."""
    checked, bad = 0, []
    for n in range(2, max_n + 1):
        for zero_mask in range(1, (1 << (n + 1)) - 1):
            mix = uniform_member(n, zero_mask)
            for m in range(1, n):
                checked += 1
                found = oracle.alternative_nonneg_point_lp(mix, m) is not None
                if _level_has_directions(n, m, zero_mask) != found:
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
