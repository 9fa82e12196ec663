"""Decomposing elements into sums of commutators.

With a witness b_1..b_n in hand, any element a factors through the
transfer map phi(a) = sum b_i a b_i*: the Neumann series
psi = sum_k phi^k inverts Id - phi, and

    a = sum_i [b_i*, b_i psi(a)]

is an explicit sum of n commutators.  This script runs the engine on a
random Hermitian matrix, checks the pairs with the verifier, and repeats
with the self-adjoint pairs used for positive elements.
"""

import numpy as np

from traceless import (
    decompose_element,
    decompose_positive,
    op_norm,
    positivity_check,
    solve_psi_direct,
    solve_psi_neumann,
    verify_decomposition,
)
from traceless.linalg import Operator
from traceless.witness import build_witness, evaluate_witness, toeplitz_candidate_family

rng = np.random.default_rng(2024)

print("=== the witness ===")
witness = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 5)
dim = witness.elements[0].dim
print(f"  J=2 family realized at depth 5: {witness.n} elements, dim {dim}")
print(f"  eta2 = {witness.report.eta2:.6f}, interior eta1 = {witness.report.eta1_interior:.2e}")

print()
print("=== decompose a random Hermitian element ===")
g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
a = Operator((g + g.conj().T) / 2, witness.elements[0].basis_labels)
result = decompose_element(a, witness, eps=1e-10)
print(f"  ||a|| = {op_norm(a):.3f}")
print(f"  solver: {result.solver.method}, {result.solver.iterations} iterations,"
      f" tail bound {result.solver.tail_bound:.2e}")
print(f"  pairs: {len(result.pairs)} commutators [b_i*, b_i psi(a)]")

# the engine returns pairs only; the residual is recomputed from them alone
check = verify_decomposition(a, result.pairs, interior_mask=witness.interior_mask)
print(f"  residual (full)     = {check.residual_norm:.3e}   <- boundary defect, unavoidable")
print(f"  residual (interior) = {check.residual_interior_norm:.3e}")
print(f"  trace defect        = {check.trace_defect:.3e}   (commutators are trace-free)")

print()
print("=== both solvers agree ===")
small = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 3)
d_small = small.elements[0].dim
h = rng.standard_normal((d_small, d_small)) + 1j * rng.standard_normal((d_small, d_small))
h = Operator((h + h.conj().T) / 2)
neumann, iterations, _ = solve_psi_neumann(h, small, eps=1e-12)
direct = solve_psi_direct(h, small)
print(f"  dim {d_small}: ||psi_neumann - psi_direct|| = {op_norm(neumann - direct):.2e}"
      f" ({iterations} Neumann iterations vs one {d_small ** 2}x{d_small ** 2} solve)")

print()
print("=== positive elements: self-adjoint commutators ===")
psd = Operator(g.conj().T @ g / dim, witness.elements[0].basis_labels)
positive = decompose_positive(psd, witness, eps=1e-10)
print(f"  psi(a) min eigenvalue: {positivity_check(positive.psi_a).min_eig:.2e} (stays positive)")
worst = 0.0
for pair in positive.pairs:
    contribution = pair.x @ pair.y - pair.y @ pair.x
    worst = max(worst, op_norm(contribution - contribution.adjoint()))
print(f"  largest anti-Hermitian part of a contribution: {worst:.2e}")
