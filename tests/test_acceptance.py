"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (the verdict lines are
repeated in the terminal summary).
"""

import time

import numpy as np
import pytest

from traceless import (
    apply_phi,
    commutator,
    decompose_element,
    decompose_positive,
    equals,
    identity,
    multiply,
    op_norm,
    positivity_check,
    solve_psi_direct,
    solve_psi_neumann,
)
from traceless.cuntz import adjoint, zero_poly
from traceless.errors import TraceObstruction
from traceless.tracedist import commutator_distance, commutator_span_family
from traceless.witness import (
    build_witness,
    candidate_stats,
    check_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from conftest import record_criterion
from helpers import random_hermitian, random_operator, random_poly

MODULE_START = time.perf_counter()


def test_criterion_1_standard_witness():
    start = time.perf_counter()
    witness = standard_isometry_witness(2)
    elapsed = time.perf_counter() - start
    ok = (
        witness.report.eta1 <= 1e-12
        and witness.report.eta2 == 0.5
        and witness.report.valid
        and elapsed < 1.0
    )
    record_criterion(
        1, ok, f"standard witness: eta1={witness.report.eta1!r}, eta2={witness.report.eta2!r}, "
        f"built in {elapsed:.4f}s"
    )
    assert witness.report.eta1 <= 1e-12
    assert witness.report.eta2 == 0.5
    assert elapsed < 1.0


def test_criterion_2_reverse_identity_suite():
    rng = np.random.default_rng(1002)
    witness = standard_isometry_witness(2)
    failures = 0
    for _ in range(100):
        c = random_poly(rng, n=2, max_degree=3, max_terms=8)
        total = zero_poly(2)
        for b in witness.elements:
            total = total + commutator(adjoint(b), multiply(b, c))
        if not equals(total, c - apply_phi(c, witness), 1e-12):
            failures += 1
    record_criterion(2, failures == 0, f"reverse identity on 100 random polynomials, {failures} failures")
    assert failures == 0


def test_criterion_3_psi_closed_form():
    # phi^k(1) = 2^-k P_{len >= k} on the depth-L truncation, so phi^(L+1)(1)
    # = 0 and the series stops at the nilpotency index L + 1
    eps = 1e-12
    worst_entry = 0.0
    counts = []
    for depth in (3, 4, 5, 6):
        witness = standard_isometry_witness(2, depth=depth)
        labels = witness.elements[0].basis_labels
        dim = witness.elements[0].dim
        one = identity(dim, labels)
        psi, iterations, _ = solve_psi_neumann(one, witness, eps=eps)
        expected = np.diag([2.0 - 2.0 ** (-len(w)) for w in labels])
        worst_entry = max(worst_entry, float(np.max(np.abs(psi.entries - expected))))
        counts.append((iterations, depth + 1))
    exact = all(iterations == index for iterations, index in counts)
    ok = worst_entry <= 1e-12 and exact
    record_criterion(
        3, ok, f"psi(1) closed form at L=3..6: worst entry error {worst_entry:.2e}, "
        f"iterations {[i for i, _ in counts]} (nilpotency index L + 1)"
    )
    assert worst_entry <= 1e-12
    assert exact


def test_criterion_4_solver_cross_validation():
    rng = np.random.default_rng(1004)
    shapes = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)]
    worst = 0.0
    runs = 0
    while runs < 20:
        n, depth = shapes[runs % len(shapes)]
        witness = standard_isometry_witness(n, depth=depth)
        dim = witness.elements[0].dim
        assert dim <= 50
        a = random_hermitian(rng, dim)
        neumann, _, _ = solve_psi_neumann(a, witness, eps=1e-12)
        direct = solve_psi_direct(a, witness)
        worst = max(worst, op_norm(neumann - direct))
        runs += 1
    ok = worst <= 1e-10
    record_criterion(4, ok, f"neumann vs direct on 20 runs, dims <= 50: worst gap {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_5_decomposition_residuals():
    rng = np.random.default_rng(1005)
    witness = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 5)
    dim = witness.elements[0].dim
    labels = witness.elements[0].basis_labels
    worst_interior = 0.0
    worst_trace = 0.0
    worst_antiherm = 0.0
    worst_psi_eig = 0.0
    for _ in range(20):
        a = random_hermitian(rng, dim, labels)
        result = decompose_element(a, witness, eps=1e-10)
        worst_interior = max(worst_interior, result.residual_interior_norm)
        worst_trace = max(worst_trace, result.trace_defect)
        g = random_operator(rng, dim, labels)
        psd = g.adjoint() @ g
        positive = decompose_positive(psd, witness, eps=1e-10)
        worst_psi_eig = min(worst_psi_eig, positivity_check(positive.psi_a).min_eig)
        for pair in positive.pairs:
            contribution = pair.x @ pair.y - pair.y @ pair.x
            worst_antiherm = max(
                worst_antiherm, op_norm(contribution - contribution.adjoint()) / 2
            )
    ok = (
        worst_interior <= 1e-8
        and worst_trace <= 1e-9 * dim
        and worst_antiherm <= 1e-12
        and worst_psi_eig >= -1e-10
    )
    record_criterion(
        5, ok, f"J=2 witness at L=5 (dim {dim}), 20 runs: interior {worst_interior:.2e}, "
        f"trace {worst_trace:.2e}, anti-hermitian {worst_antiherm:.2e}, "
        f"min psi eigenvalue {worst_psi_eig:.2e}"
    )
    assert worst_interior <= 1e-8
    assert worst_trace <= 1e-9 * dim
    assert worst_antiherm <= 1e-12
    assert worst_psi_eig >= -1e-10


def test_criterion_6_constructive_pipeline():
    details = []
    ok = True
    for J in (2, 3, 4, 5):
        stats = candidate_stats(toeplitz_candidate_family(J))
        witness = build_witness(toeplitz_candidate_family(J))
        checked = check_witness(witness.elements)
        bound = (stats.k - 1 + stats.t0) / stats.k
        ok = ok and abs(stats.t0 - 1.0 / J) <= 1e-10
        ok = ok and abs(stats.k - 3.0) <= 1e-10
        ok = ok and checked.report.eta1 <= 1e-9
        ok = ok and checked.report.eta2 <= bound + 1e-9
        ok = ok and checked.report.valid
        details.append(f"J={J}: t0={stats.t0:.6f}, eta2={checked.report.eta2:.6f}<= {bound:.6f}")
        assert abs(stats.t0 - 1.0 / J) <= 1e-10
        assert abs(stats.k - 3.0) <= 1e-10
        assert checked.report.eta2 <= bound + 1e-9
        assert checked.report.valid
    stats2 = candidate_stats(toeplitz_candidate_family(2))
    checked2 = check_witness(build_witness(toeplitz_candidate_family(2)).elements)
    assert abs(checked2.report.eta2 - 2.0 / 3.0) <= 1e-9
    assert (stats2.k - 1 + stats2.t0) / stats2.k == pytest.approx(5.0 / 6.0, abs=1e-9)
    record_criterion(6, ok, "; ".join(details))


def test_criterion_7_trace_obstruction():
    rng = np.random.default_rng(1007)
    min_residual = float("inf")
    min_t0 = float("inf")
    obstructions = 0
    for run in range(50):
        dim = int(rng.integers(2, 33))
        count = int(rng.integers(1, 5))
        generators = [random_operator(rng, dim) for _ in range(count)]
        estimate = commutator_distance(commutator_span_family(generators), polish_steps=40)
        min_residual = min(min_residual, estimate.opnorm_residual)
        try:
            build_witness(generators)
        except TraceObstruction as err:
            obstructions += 1
            min_t0 = min(min_t0, err.t0)
    ok = min_residual >= 1.0 - 1e-9 and obstructions == 50 and min_t0 >= 1.0 - 1e-9
    record_criterion(
        7, ok, f"50 families (dims 2..32): min residual {min_residual:.12f}, "
        f"{obstructions}/50 obstructions, min t0 {min_t0:.6f}"
    )
    assert min_residual >= 1.0 - 1e-9
    assert obstructions == 50
    assert min_t0 >= 1.0 - 1e-9


def test_criterion_8_runtime_budget():
    # exercise the largest configured truncation (n=2, L=6, dim 127) and
    # check the acceptance workload fits the two-minute budget
    witness = standard_isometry_witness(2, depth=6)
    dim = witness.elements[0].dim
    assert dim == 127
    rng = np.random.default_rng(1008)
    a = random_hermitian(rng, dim, witness.elements[0].basis_labels)
    result = decompose_element(a, witness, eps=1e-10)
    assert result.residual_interior_norm <= 1e-8
    elapsed = time.perf_counter() - MODULE_START
    ok = elapsed < 120.0
    record_criterion(8, ok, f"acceptance workload incl. dim-127 decomposition in {elapsed:.1f}s")
    assert elapsed < 120.0
