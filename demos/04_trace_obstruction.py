"""Why none of this works in a matrix algebra: the trace obstruction.

The normalized trace tau(x) = tr(x)/dim kills every commutator, so
||1 - x|| >= |tau(1 - x)| = 1 for any sum of self-adjoint commutators x.
``commutator_distance`` finds that functional itself: its dual lower bound
from the seed rho = 1 is 1.  Consequences, all visible numerically:

* least-squares + polishing can never push the distance from 1 to a
  commutator span below 1, and the lower bound certifies it;
* witness construction from matrix candidates always aborts with a trace
  obstruction (t0 >= 1);
* compressing to the interior of a Fock truncation removes the trace and
  the distance promptly drops below 1, the finite shadow of an algebra
  without tracial states.
"""

import numpy as np

from traceless import Operator, evaluate, fock_truncation, interior_projection
from traceless.errors import TraceObstruction
from traceless.tracedist import commutator_distance, commutator_span_family
from traceless.witness import build_witness, toeplitz_candidate_family

rng = np.random.default_rng(7)

print("=== distance from 1 to random commutator spans ===")
for dim in (4, 8, 16, 32):
    gens = [
        Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for _ in range(3)
    ]
    estimate = commutator_distance(commutator_span_family(gens), polish_steps=100)
    print(
        f"  dim {dim:2d}: opnorm residual = {estimate.opnorm_residual:.12f}"
        f"  >= lower bound = {estimate.lower_bound:.12f}"
    )

print()
print("=== the certificate behind it ===")
gens = [Operator(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) for _ in range(3)]
estimate = commutator_distance(commutator_span_family(gens))
tau = estimate.rho / np.trace(estimate.rho).real
x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
print(f"  lower bound of the full dim-16 problem = {estimate.lower_bound:.12f}")
print(f"  its functional rho / tr(rho) is tau: max |entry - 1/16 delta| = "
      f"{np.abs(tau - np.eye(16) / 16).max():.2e}")
print(f"  |tau(xy) - tau(yx)| = {abs(np.trace(tau @ (x @ y - y @ x))):.2e}")

print()
print("=== witness construction from matrices always aborts ===")
candidates = [
    Operator(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) for _ in range(4)
]
try:
    build_witness(candidates)
    print("  unexpectedly succeeded")
except TraceObstruction as err:
    print(f"  TraceObstruction: t0 = {err.t0:.6f} >= 1")

print()
print("=== compress away the trace and the distance drops ===")
trunc = fock_truncation(2, 4)
generators = [evaluate(a, trunc) for a in toeplitz_candidate_family(2)]
family = commutator_span_family(generators)
full = commutator_distance(family, polish_steps=100)
mask = interior_projection(trunc, 3)
interior = commutator_distance(family, polish_steps=200, interior_mask=mask)
print(f"  full dim-31 problem:        residual = {full.opnorm_residual:.6f}"
      f"  lower bound = {full.lower_bound:.6f}")
print(f"  compressed to the interior: residual = {interior.opnorm_residual:.6f}"
      f"  lower bound = {interior.lower_bound:.6f}  (< 1/2 + 1e-6)")
print("  coefficients found:", [round(t, 4) for t in interior.coefficients])
