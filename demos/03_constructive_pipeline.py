"""From candidate elements to a full witness, constructively.

If some elements a_1..a_m already push the self-adjoint commutator sum
close to 1, in the sense that

    t0 = ||1 - sum_i (a_i* a_i - a_i a_i*)|| < 1,

then appending a_{m+1} = (k - sum a_i* a_i)^(1/2) with k = ||sum a_i* a_i||
and rescaling everything by 1/sqrt(k) produces a genuine witness with
||sum b_i b_i*|| <= (k - 1 + t0)/k < 1.

The shipped J-family over two isometries reaches t0 = 1/J: its commutator
sums telescope down the words 1, 11, 111, ...  This script walks the whole
pipeline for several J.
"""

import math

from traceless import poly_to_string, word_isometry
from traceless.witness import (
    build_witness,
    candidate_stats,
    check_witness,
    evaluate_witness,
    toeplitz_candidate_family,
)

print("=== the candidate family, J = 2 ===")
family = toeplitz_candidate_family(2)
for i, a in enumerate(family, start=1):
    print(f"  a{i} = {poly_to_string(a)}")

print()
print("=== obstruction statistics ===")
for J in (2, 3, 4, 5):
    stats = candidate_stats(toeplitz_candidate_family(J))
    print(f"  J={J}: t0 = {stats.t0:.6f} (= 1/J), k = {stats.k:.1f}, exact = {stats.norms_exact}")

print()
print("=== build the witness (J = 2) ===")
witness = build_witness(toeplitz_candidate_family(2))
print(f"  {witness.n} elements; the appended square root is")
print(f"  b{witness.n} = {poly_to_string(witness.elements[-1])}")
stats = candidate_stats(toeplitz_candidate_family(2))
bound = (stats.k - 1 + stats.t0) / stats.k
print(f"  report: eta1 = {witness.report.eta1:.2e}, eta2 = {witness.report.eta2:.6f}"
      f" <= guaranteed bound {bound:.6f}")

print()
print("=== a truncated eta2 is a lower bound; the symbolic eta2 is exact here ===")
b = (1.0 / math.sqrt(2.0)) * word_isometry(2, (1,) * 5)
for name, family in (("J = 2 witness", witness), ("b1 = b2 = s1^5/sqrt(2)", check_witness([b, b]))):
    print(f"  {name}:")
    for depth in (2, 3, 4, 5, 6):
        truncated = evaluate_witness(family, depth).report.eta2
        print(f"    depth {depth}: truncated eta2 = {truncated:.12f},"
              f" symbolic eta2 = {family.report.eta2:.12f}")

print()
print("=== realized as matrices ===")
for depth in (4, 5):
    realized = evaluate_witness(witness, depth)
    r = realized.report
    print(f"  depth {depth} (dim {realized.elements[0].dim:3d}): eta2 = {r.eta2:.6f},"
          f" boundary eta1 = {r.eta1:.3f}, interior eta1 = {r.eta1_interior:.2e}")
