import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceless import Operator, evaluate, fock_truncation, interior_projection, op_norm
from traceless.errors import DimensionMismatch, EmptyFamily
from traceless.tracedist import _Dual, commutator_distance, commutator_span_family
from traceless.witness import toeplitz_candidate_family

from helpers import random_operator


def svd_polish(span, steps):
    """The upper bound of the one-sided method this module replaced, as a
    reference: the regularized Frobenius projection, then ``steps``
    normalized subgradient steps of size 1/sqrt(k), one SVD each."""
    m, dim = len(span), len(span[0])
    gram = np.array([[np.trace(a.conj().T @ b).real for b in span] for a in span])
    rhs = np.array([np.trace(a).real for a in span])
    t = np.linalg.solve(gram + 1e-12 * np.eye(m), rhs)
    best = math.inf
    for step in itertools.count(1):
        u, sigma, vh = np.linalg.svd(np.eye(dim) - sum(tj * c for tj, c in zip(t, span)))
        best = min(best, sigma[0])
        if step > steps:
            return best
        grad = np.array([-(u[:, 0].conj() @ c @ vh[0].conj()).real for c in span])
        if np.linalg.norm(grad) < 1e-15:
            return best
        t = t - grad / (math.sqrt(step) * np.linalg.norm(grad))


def compressed_span(family, mask):
    keep = np.ones(family.dim, bool) if mask is None else mask
    return [c.entries[np.ix_(keep, keep)] for c in family.span_elements]


def check_bracket(estimate, span):
    """lower <= upper, and a kept rho is feasible and gives the lower bound."""
    assert estimate.lower_bound <= estimate.opnorm_residual
    rho = estimate.rho
    if rho is None:
        assert estimate.lower_bound == 0.0
        return
    trace_norm = np.linalg.svd(rho, compute_uv=False).sum()
    for c in span:
        assert abs(np.trace(rho @ c)) <= 1e-12 * trace_norm * np.linalg.norm(c)
    quotient = abs(np.trace(rho).real) / trace_norm
    assert estimate.lower_bound == pytest.approx(quotient, rel=1e-12)


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
    with pytest.raises(DimensionMismatch):
        commutator_span_family([random_operator(rng, 3)], dim=4)


@pytest.mark.parametrize("seed", [5, 9, 22, 39, 41, 62])
def test_rank_deficient_span_at_a_large_scale_is_bracketed(seed):
    # four span elements in the 3-dimensional space of trace-free Hermitian
    # 2 x 2 matrices: a singular Gram matrix with entries up to about 1e13
    rng = np.random.default_rng(seed)
    family = commutator_span_family([600 * random_operator(rng, 2) for _ in range(4)])
    estimate = commutator_distance(family)
    check_bracket(estimate, compressed_span(family, None))
    assert estimate.lower_bound == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_functional_is_the_trace():
    # with no mask the kept rho is the seed 1: a tracial functional, so it
    # kills every commutator and is positive on x*x
    rng = np.random.default_rng(46)
    family = commutator_span_family([random_operator(rng, 16) for _ in range(3)])
    estimate = commutator_distance(family)
    rho = estimate.rho / np.trace(estimate.rho).real
    assert np.abs(rho - np.eye(16) / 16).max() <= 1e-15
    x = random_operator(rng, 16).entries
    y = random_operator(rng, 16).entries
    assert abs(np.trace(rho @ (x @ y - y @ x))) <= 1e-12
    assert np.trace(rho @ x.conj().T @ x).real >= 0.0


def test_lower_bound_holds_at_every_coefficient_vector():
    # for any span element x, ||1 - x|| >= lower_bound = 1
    rng = np.random.default_rng(47)
    eye = np.eye(12, dtype=complex)
    for _ in range(50):
        family = commutator_span_family(
            [random_operator(rng, 12) for _ in range(rng.integers(1, 4))]
        )
        lower = commutator_distance(family, polish_steps=0).lower_bound
        assert lower == pytest.approx(1.0, abs=1e-12)
        t = rng.standard_normal(len(family.span_elements))
        x = sum(tj * c.entries for tj, c in zip(t, family.span_elements))
        assert np.linalg.norm(eye - x, 2) >= lower


@st.composite
def span_problems(draw):
    dim = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 4))
    keep = draw(st.none() | st.lists(st.booleans(), min_size=dim, max_size=dim))
    if keep is not None and not any(keep):
        keep[0] = True
    rng = np.random.default_rng(seed)
    family = commutator_span_family([random_operator(rng, dim) for _ in range(count)])
    mask = None if keep is None else np.array(keep)
    return family, mask, draw(st.integers(0, 30))


@settings(max_examples=60, deadline=None)
@given(span_problems())
def test_lower_bound_is_below_the_upper_bound(problem):
    family, mask, steps = problem
    estimate = commutator_distance(family, polish_steps=steps, interior_mask=mask)
    check_bracket(estimate, compressed_span(family, mask))
    if mask is None:
        assert estimate.lower_bound == pytest.approx(1.0, abs=1e-12)
        # the projected seed 1 is both the start point and the kept rho
        assert estimate.frobenius_residual == np.linalg.norm(estimate.rho)


def test_one_in_the_span_gives_no_lower_bound_from_rounding():
    # J = 3 at depth 3, compressed to words of length <= 2: 1 lies in the
    # span, so rho = 1 projects to rounding, whose quotient is no bound
    trunc = fock_truncation(2, 3)
    family = commutator_span_family([evaluate(a, trunc) for a in toeplitz_candidate_family(3)])
    mask = interior_projection(trunc, 2)
    estimate = commutator_distance(family, interior_mask=mask)
    assert estimate.opnorm_residual <= 1e-10
    check_bracket(estimate, compressed_span(family, mask))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "entries",
    [np.diag([1.5e308, 1.0, 1.0]), np.array([[1e200, -1e200, 0], [1e200, 1e200, 0], [0, 0, 1]])],
    ids=["partial-map", "dense"],
)
def test_a_generator_whose_star_sums_overflow_is_refused_by_index(entries, capfd):
    """Refused before its span element is formed (inf - inf) and before any
    LAPACK call, which would print complaints on the process's stdout."""
    generators = [Operator(np.eye(3)), Operator(entries)]
    with pytest.raises(ValueError, match=r"^span element a\* a - a a\* of generator 1 is not"):
        commutator_span_family(generators)
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("length", [None, 1], ids=["full", "interior"])
def test_entries_near_1e100_are_bracketed_as_their_scaled_copy(length, capfd):
    """The span element of g is near 1e200, so its Gram matrix is past the
    float range: it is formed again from the element scaled by a power of
    two, and the bracket is that of g / 1e100, whose coefficient t answers
    t / 1e200 for g."""
    trunc = fock_truncation(1, 2)
    g = np.zeros((3, 3))
    g[1, 0], g[2, 1] = 1e100, 2e100
    large, small = (commutator_span_family([Operator(x, trunc.labels)]) for x in (g, g / 1e100))
    mask = None if length is None else interior_projection(trunc, length)
    estimate = commutator_distance(large, interior_mask=mask)
    reference = commutator_distance(small, interior_mask=mask)
    check_bracket(estimate, compressed_span(small, mask))
    assert estimate.lower_bound == pytest.approx(reference.lower_bound, rel=1e-12)
    assert estimate.opnorm_residual == pytest.approx(reference.opnorm_residual, rel=1e-12)
    (t,), (t_reference,) = estimate.coefficients, reference.coefficients
    assert t == pytest.approx(t_reference / 1e200, rel=1e-12, abs=0.0)
    if mask is None:
        assert (estimate.lower_bound, estimate.opnorm_residual) == (0.9999999999999994, 1.0)
    else:
        assert 0.49 < estimate.lower_bound <= estimate.opnorm_residual < 0.51
    assert capfd.readouterr() == ("", "")


def test_a_rho_that_is_not_orthogonal_to_the_span_gives_no_bound():
    # tr(c rho) = 1 for rho = 1 + c/2; without the feasibility check the
    # quotient |tr(rho)| / ||rho||_1 would be 1.0
    c = np.diag([1.0, -1.0, 0.0]).astype(complex)
    assert _Dual([c]).bound(np.eye(3) + c / 2, 1.0) == (0.0, None)


def test_full_problem_stops_after_one_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(48)
    family = commutator_span_family([random_operator(rng, 40) for _ in range(4)])
    estimate = commutator_distance(family, polish_steps=10**6)
    assert len(calls) == 1
    assert estimate.lower_bound <= 1.0 <= estimate.opnorm_residual <= 1.0 + 1e-12


def _reference_cases():
    rng = np.random.default_rng(41)
    for dim in (2, 5, 17, 32):
        gens = [random_operator(rng, dim) for _ in range(rng.integers(1, 5))]
        yield f"seed 41, dim {dim}", commutator_span_family(gens), None, 40
    rng = np.random.default_rng(76)
    family = commutator_span_family([random_operator(rng, 12) for _ in range(3)])
    for steps in (0, 1, 25):
        yield f"seed 76, {steps} steps", family, None, steps
    for j, depth in itertools.product((2, 3), (3, 4, 5, 6)):
        trunc = fock_truncation(2, depth)
        gens = [evaluate(a, trunc) for a in toeplitz_candidate_family(j)]
        mask = interior_projection(trunc, depth - 1)
        yield f"J = {j}, depth {depth}", commutator_span_family(gens), mask, 200


def test_upper_bound_is_no_worse_than_svd_polishing():
    for label, family, mask, steps in _reference_cases():
        estimate = commutator_distance(family, polish_steps=steps, interior_mask=mask)
        span = compressed_span(family, mask)
        reference = svd_polish(span, steps)
        assert estimate.opnorm_residual <= reference * (1 + 1e-12), label
        check_bracket(estimate, span)


def test_reported_opnorm_is_the_norm_at_the_reported_coefficients():
    rng = np.random.default_rng(76)
    family = commutator_span_family([random_operator(rng, 12) for _ in range(3)])
    for steps in (0, 1, 25):
        estimate = commutator_distance(family, polish_steps=steps)
        residual = np.eye(12) - sum(
            t * c.entries for t, c in zip(estimate.coefficients, family.span_elements)
        )
        assert estimate.opnorm_residual == pytest.approx(op_norm(residual), rel=1e-13)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: commutator_distance(
                         commutator_span_family([random_operator(np.random.default_rng(3), 3)]),
                         interior_mask=np.zeros(3, dtype=bool)),
                     DimensionMismatch, "interior mask has empty range", id="empty-interior"),
        # an empty family of dimension 0 would bracket the distance inverted,
        # lower_bound 1.0 above opnorm_residual 0.0
        pytest.param(lambda: commutator_span_family([], dim=0),
                     ValueError, "dimension must be at least 1, got 0", id="dim-zero"),
        pytest.param(lambda: commutator_span_family([], dim=-2),
                     ValueError, "dimension must be at least 1, got -2", id="dim-negative"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
