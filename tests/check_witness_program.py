"""Check the witness program against the generic dense path.

``witness.fully_decomposable_alpha`` must give the optimum of
``witness.solve_sdp(oracle.build_fdw_problem(...))`` within 1e-6, and its
witness must pass ``verify_witness``, on the five 3-qubit base states of the
benchmark's witness workload (W_3, GHZ_3, the Dicke mixtures 1/4 W_3 + 3/4 W_3bar
and 1/2 W_3 + 1/2 W_3bar, and 3/4 W_3 + 1/4 GHZ_3), each rotated by a seeded
random local unitary and mixed with white noise at p = 0.05 and 0.2, on the
chain, all pairs, the full set, {12} and {12},{3}: 50 cases.  The unitaries
come from a seed of their own, so no case repeats one of the Tier-1
cross-check ``test_witness.test_dense_path_matches_consensus_path``.

No run may raise.  Not collected by pytest (~6 s, most of it in the dense
path); run it as

    PYTHONPATH=src python tests/check_witness_program.py

It prints the worst difference and the total ADMM iterations of the witness
program and of the dense path, and exits 1 listing any cases that disagree.
"""

import sys
import time

from edlkit import qcore, witness
from edlkit.errors import EdlkitError
from edlkit.symmetric import dicke_vector
from test_witness import FDW_COLLECTIONS, _dense_path_gap, _rotated_noisy

TOL = 1e-6
SEED = 20261022


def base_states():
    w, wbar = (dicke_vector(3, i).to_density().matrix for i in (1, 2))
    ghz = qcore.ghz_vector(3).to_density().matrix
    return {"w": w, "ghz": ghz, "dmix14": 0.25 * w + 0.75 * wbar, "dmix12": 0.5 * w + 0.5 * wbar,
            "wghz34": 0.75 * w + 0.25 * ghz}


def main():
    admm = witness._admm
    iterations = {"witness": 0, "dense": 0}

    def counted(c, project_affine, project_cone, *args, **kwargs):
        # the witness program's cone step is the plain clip; solve_sdp wraps its own
        out = admm(c, project_affine, project_cone, *args, **kwargs)
        iterations["witness" if project_cone is witness._clip_psd else "dense"] += out[5]
        return out

    witness._admm = counted
    t0 = time.perf_counter()
    checked, worst, bad = 0, 0.0, []
    for label, rho in _rotated_noisy(base_states(), SEED):
        for name, subsets in FDW_COLLECTIONS.items():
            checked += 1
            try:
                gap, verdict = _dense_path_gap(rho, subsets)
            except EdlkitError as err:
                bad.append("%s on %s: %s" % (label, name, err))
                continue
            worst = max(worst, gap)
            if gap > TOL or not verdict.ok:
                bad.append("%s on %s: difference %.3e, %s" % (label, name, gap, verdict.failures))
    witness._admm = admm
    print("checked %d cases in %.1f s: %d disagree, worst difference %.2e"
          % (checked, time.perf_counter() - t0, len(bad), worst))
    print("ADMM iterations: witness program %d, dense path %d"
          % (iterations["witness"], iterations["dense"]))
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
