import numpy as np
import pytest

from traceless import Operator, evaluate, fock_truncation, interior_projection, op_norm
from traceless.errors import DimensionMismatch, EmptyFamily
from traceless.tracedist import (
    commutator_distance,
    commutator_span_family,
    trace_certificate,
)
from traceless.witness import toeplitz_candidate_family

from helpers import random_operator


def test_empty_family():
    estimate = commutator_distance(commutator_span_family([], dim=4))
    assert estimate.coefficients == ()
    assert estimate.opnorm_residual == pytest.approx(1.0, abs=1e-12)
    assert estimate.frobenius_residual == pytest.approx(2.0, abs=1e-12)


def test_empty_family_needs_dim():
    with pytest.raises(EmptyFamily):
        commutator_span_family([])


def test_span_elements_are_traceless_hermitian():
    rng = np.random.default_rng(40)
    family = commutator_span_family([random_operator(rng, 9) for _ in range(4)])
    for c in family.span_elements:
        assert op_norm(c - c.adjoint()) <= 1e-12
        assert abs(c.trace()) <= 1e-10 * 9


def test_matrix_families_cannot_approach_one():
    rng = np.random.default_rng(41)
    for dim in (2, 5, 17, 32):
        gens = [random_operator(rng, dim) for _ in range(rng.integers(1, 5))]
        estimate = commutator_distance(commutator_span_family(gens), polish_steps=40)
        assert estimate.opnorm_residual >= 1.0 - 1e-9


def test_interior_compressed_toeplitz_distance():
    trunc = fock_truncation(2, 4)
    generators = [evaluate(a, trunc) for a in toeplitz_candidate_family(2)]
    family = commutator_span_family(generators)
    mask = interior_projection(trunc, 3)
    estimate = commutator_distance(family, polish_steps=200, interior_mask=mask)
    assert estimate.opnorm_residual <= 0.5 + 1e-6
    # oracle: with all coefficients 1 the compressed residual is exactly
    # -(1/2)(q_1 + q_2), of norm 1/2, computed here with raw numpy
    total = np.eye(31, dtype=complex)
    for a in generators:
        m = a.entries
        total -= m.conj().T @ m - m @ m.conj().T
    p = np.diag(mask.astype(float))
    assert np.linalg.norm(p @ total @ p, 2) == pytest.approx(0.5, abs=1e-12)


def test_least_squares_orthogonality():
    rng = np.random.default_rng(42)
    generators = [random_operator(rng, 6) for _ in range(3)]
    family = commutator_span_family(generators)
    estimate = commutator_distance(family, polish_steps=0)
    residual = np.eye(6, dtype=complex)
    for t, c in zip(estimate.coefficients, family.span_elements):
        residual -= t * c.entries
    for c in family.span_elements:
        inner = float(np.trace(c.entries.conj().T @ residual).real)
        assert abs(inner) <= 1e-9


def test_monotonicity_in_family_size():
    rng = np.random.default_rng(43)
    generators = [random_operator(rng, 8) for _ in range(5)]
    previous = None
    for count in range(1, 6):
        family = commutator_span_family(generators[:count])
        estimate = commutator_distance(family, polish_steps=0)
        if previous is not None:
            assert estimate.frobenius_residual <= previous + 1e-10
        previous = estimate.frobenius_residual


def test_scale_invariance_of_span():
    rng = np.random.default_rng(44)
    generators = [random_operator(rng, 7) for _ in range(3)]
    base = commutator_distance(commutator_span_family(generators), polish_steps=0)
    scaled_gens = [2.5 * generators[0]] + generators[1:]
    scaled = commutator_distance(commutator_span_family(scaled_gens), polish_steps=0)
    assert scaled.frobenius_residual == pytest.approx(base.frobenius_residual, abs=1e-10)


def test_dimension_mismatch():
    rng = np.random.default_rng(45)
    with pytest.raises(DimensionMismatch):
        commutator_span_family([random_operator(rng, 3), random_operator(rng, 4)])


def test_trace_certificate_basics():
    tau = trace_certificate(16)
    assert tau(Operator(np.eye(16))) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(46)
    x = random_operator(rng, 16)
    y = random_operator(rng, 16)
    assert abs(tau(x @ y) - tau(y @ x)) <= 1e-12
    assert tau(x.adjoint() @ x).real >= 0.0


def test_trace_certificate_lower_bound():
    # for any span element x, ||1 - x|| >= |tau(1 - x)| = 1
    rng = np.random.default_rng(47)
    tau = trace_certificate(12)
    eye = np.eye(12, dtype=complex)
    for _ in range(50):
        x = np.zeros((12, 12), dtype=complex)
        for _ in range(rng.integers(1, 4)):
            m = random_operator(rng, 12).entries
            x += m.conj().T @ m - m @ m.conj().T
        gap = abs(tau(Operator(eye - x)))
        assert gap == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(eye - x, 2) >= gap - 1e-10


def test_reported_opnorm_is_the_norm_at_the_reported_coefficients():
    rng = np.random.default_rng(76)
    family = commutator_span_family([random_operator(rng, 12) for _ in range(3)])
    for steps in (0, 1, 25):
        estimate = commutator_distance(family, polish_steps=steps)
        residual = np.eye(12) - sum(
            t * c.entries for t, c in zip(estimate.coefficients, family.span_elements)
        )
        assert estimate.opnorm_residual == pytest.approx(op_norm(residual), rel=1e-13)
