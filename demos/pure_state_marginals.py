"""Which marginals determine a pure state among all density matrices?

Every state sharing psi's k-body marginals lives on the face ker H, where H
sums the projectors onto the kernels of those marginals.  When that face is
the line through psi, or the marginal map is injective on it, the marginals
single psi out with no solve.  Otherwise a small SDP minimizes the fidelity
with psi over the compatible states on the face (over all states when the
face is the whole space).  Value 1 means the marginals determine psi;
anything less comes with a concrete second state.  pure_determination_alpha
takes the same route for any marginal collection and reports it.
"""

import math

import numpy as np

from edlkit import (PureVector, all_k_subsets, determination_levels, ghz_vector,
                    pure_determination_alpha, sdl_pure)

ghz = ghz_vector(3)
value, alphas = sdl_pure(ghz)
print("GHZ_3 determination length:", value)
print("program values by marginal size:", {k: round(a, 6) for k, a in alphas.items()})
_value, levels = determination_levels(ghz)
print("routes (face dimension):", {k: "%s (%d)" % (lv.route, lv.face_dim) for k, lv in levels.items()})

# At k=2 the minimizer is an honest counterexample: same two-body
# marginals, fidelity zero (the opposite-phase superposition).
res = pure_determination_alpha(ghz, all_k_subsets(3, 2))
amp = ghz.amplitudes
print("fidelity floor at k=2: %.2e (route %s, face dimension %d, %d ADMM iterations)"
      % (res.alpha, res.route, res.face_dim, res.iterations))
print("counterexample corner entries:",
      np.round([res.rho[0, 0].real, res.rho[0, 7].real, res.rho[7, 7].real], 4))

# A four-qubit state with single excitations plus a |1111> component:
# pairs leave room, triples close it.
a = np.zeros(16, dtype=complex)
a[0b1000] = 1 / math.sqrt(2)
a[0b0100] = 1 / math.sqrt(3)
a[0b0010] = 1 / math.sqrt(12)
a[0b0001] = 1 / math.sqrt(24)
a[0b1111] = 1 / math.sqrt(24)
psi = PureVector(4, a)
value, alphas = sdl_pure(psi)
print("probe state determination length:", value,
      "alpha(S_2) = %.4f" % alphas[2], "alpha(S_3) = %.6f" % alphas[3])

# Local invertible operations can change the answer: this state is a
# filtered GHZ_3 yet two-body marginals already determine it.
b = np.zeros(8, dtype=complex)
b[0b000] = 1 / math.sqrt(2)
b[0b011] = 1 / math.sqrt(3)
b[0b111] = 1 / math.sqrt(6)
value, alphas = sdl_pure(PureVector(3, b))
print("filtered GHZ_3 determination length:", value, "alpha(S_2) = %.6f" % alphas[2])
