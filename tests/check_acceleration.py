"""Check the Anderson-accelerated splitting loop against the plain one.

Every determination scan and certificate refit runs twice, with
``witness.ANDERSON_MEMORY`` at its default and at 0 (the plain loop):

- ``witness.determination_levels`` on 30 seeded random pure states (15 each
  at n = 3 and 4) and on the states of ``test_witness._face_states()``: the
  two runs must give the same value, the same levels and the same route at
  each level, with minimum fidelities within ``100 tol``;
- ``witness.refit_certificates`` on the criterion-08 witness blocks, rotated
  by 10 seeded random local unitaries: both refits must pass
  ``verify_witness`` with the witness value -1/72 on the rotated state.

No run may raise.  Not collected by pytest (~30 s); run it as

    PYTHONPATH=src python tests/check_acceleration.py

It prints the ADMM iterations and wall time of each side, how many of the
accelerated side's extrapolations the safeguard kept and rejected, and how many
of its penalty iterations (multiples of ``witness.ADAPT_EVERY``) skipped the
penalty rule because the step before them was a rejected extrapolation, and
exits 1 listing any cases that disagree.
"""

import sys
import time

import numpy as np

from edlkit import qcore, witness
from edlkit.errors import EdlkitError
from edlkit.hypergraph import SubsetCollection
from edlkit.symmetric import dicke_vector
from test_witness import _face_states

SLACK = 100 * witness.DEFAULT_TOL
MEMORY = witness.ANDERSON_MEMORY


def random_states(seed=20240819):
    rng = np.random.default_rng(seed)
    for n in (3, 4):
        for _ in range(15):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            yield qcore.PureVector(n, amp / np.linalg.norm(amp))


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def refit_cases(count=10, seed=20240819):
    """Criterion-08 witness blocks and state, rotated by random local unitaries."""
    rng = np.random.default_rng(seed)
    xx_yy = qcore.pauli_string(2, "XX") + qcore.pauli_string(2, "YY")
    zz = qcore.pauli_string(2, "ZZ")
    h12 = np.eye(4) / 8 - xx_yy / 18 - zz / 72
    h23 = -xx_yy / 18 - zz / 72
    w3, w3bar = (dicke_vector(3, i).to_density().matrix for i in (1, 2))
    coll = SubsetCollection.from_lists(3, [[1, 2], [2, 3]])
    for _ in range(count):
        us = [haar_unitary(rng, 2) for _ in range(3)]
        u12, u23 = np.kron(us[0], us[1]), np.kron(us[1], us[2])
        u = np.kron(u12, us[2])
        bare = witness.Witness(3, coll, float("nan"),
                               [(qcore.Subset.from_indices(3, (1, 2)), u12 @ h12 @ u12.conj().T),
                                (qcore.Subset.from_indices(3, (2, 3)), u23 @ h23 @ u23.conj().T)],
                               [])
        yield bare, u @ (w3 + w3bar) @ u.conj().T / 2


class Side:
    """One setting of the acceleration memory: its ADMM iterations, wall time, the
    extrapolations its safeguard kept and rejected, and its penalty iterations with
    those that skipped the penalty rule after a rejection."""

    def __init__(self, memory):
        self.memory, self.iterations, self.seconds = memory, 0, 0.0
        self.kept = self.rejected = 0
        self.penalty_steps = self.penalty_skipped = 0

    def run(self, fn, *args):
        witness.ANDERSON_MEMORY = self.memory
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0
            witness.ANDERSON_MEMORY = MEMORY


def main():
    sides = Side(MEMORY), Side(0)
    admm = witness._admm

    def counted(*args, **kwargs):
        out = admm(*args, **kwargs)
        next(s for s in sides if s.memory == witness.ANDERSON_MEMORY).iterations += out[5]
        return out

    next_input = witness._Anderson.next_input

    def safeguarded(accel, v, g, extrapolate):
        # one call per iteration of the solve that made accel, so this is its number
        accel.step = getattr(accel, "step", 0) + 1
        penalty = accel.step % witness.ADAPT_EVERY == 0
        sides[0].penalty_steps += penalty
        pending = accel.ref2 is not None  # an extrapolated point meets its safeguard here
        out = next_input(accel, v, g, extrapolate)
        if pending:
            # a rejection returns the older point's plain step, flagged not plain, and
            # leaves no extrapolation pending; the loop's penalty rule reads plain steps only
            if out[1] or accel.ref2 is not None:
                sides[0].kept += 1
            else:
                sides[0].rejected += 1
                sides[0].penalty_skipped += penalty
        return out

    witness._admm = counted
    witness._Anderson.next_input = safeguarded
    checked, bad = 0, []
    for psi in list(random_states()) + _face_states():
        checked += 1
        name = "n=%d state %s" % (psi.n, np.round(psi.amplitudes[:2], 3))
        try:
            fast, plain = (side.run(witness.determination_levels, psi) for side in sides)
        except EdlkitError as err:
            bad.append("%s: %s" % (name, err))
            continue
        if fast[0] != plain[0] or fast[1].keys() != plain[1].keys():
            bad.append("%s: value %d, plain loop %d" % (name, fast[0], plain[0]))
            continue
        for k, level in fast[1].items():
            ref = plain[1][k]
            if level.route != ref.route or abs(level.alpha - ref.alpha) > SLACK:
                bad.append("%s at k=%d: %s %.9f, plain loop %s %.9f"
                           % (name, k, level.route, level.alpha, ref.route, ref.alpha))
    for i, (bare, rho) in enumerate(refit_cases()):
        checked += 1
        for side in sides:
            try:
                verdict = witness.verify_witness(side.run(witness.refit_certificates, bare), rho)
            except EdlkitError as err:
                bad.append("refit %d, memory %d: %s" % (i, side.memory, err))
                continue
            if not verdict.ok or abs(verdict.value + 1 / 72) > 1e-9:
                bad.append("refit %d, memory %d: %s, value %r"
                           % (i, side.memory, verdict.failures, verdict.value))
    witness._admm = admm
    witness._Anderson.next_input = next_input
    print("checked %d cases: %d disagree" % (checked, len(bad)))
    for side in sides:
        print("memory %2d: %6d ADMM iterations, %.2f s" % (side.memory, side.iterations, side.seconds))
    print("memory %2d: %d extrapolations kept, %d rejected by the safeguard"
          % (sides[0].memory, sides[0].kept, sides[0].rejected))
    print("memory %2d: %d of %d penalty iterations skipped the penalty rule after a rejected "
          "extrapolation" % (sides[0].memory, sides[0].penalty_skipped, sides[0].penalty_steps))
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
