import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceless import (
    Operator,
    apply_phi,
    commutator,
    decompose_element,
    decompose_positive,
    equals,
    identity,
    multiply,
    op_norm,
    parse_star_poly,
    positivity_check,
    solve_psi_direct,
    solve_psi_neumann,
    unit,
    vacuum_projection,
    verify_decomposition,
    zero,
)
from traceless.cuntz import adjoint, fock_truncation, multiply_scalar, symbolic_norm, zero_poly
from traceless import decompose as decompose_module
from traceless.decompose import CommutatorPair
from traceless.errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NotContractive,
    NotPositive,
    SizeLimitExceeded,
)
from traceless.witness import (
    build_witness,
    check_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import (
    brute_neumann,
    brute_phi,
    commutator_residual,
    random_hermitian,
    random_operator,
    random_poly,
)


@pytest.fixture(scope="module")
def toeplitz_witness_L5():
    return evaluate_witness(build_witness(toeplitz_candidate_family(2)), 5)


# ---------------------------------------------------------------------------
# apply_phi
# ---------------------------------------------------------------------------


def test_phi_of_zero():
    w = standard_isometry_witness(2, depth=2)
    out = apply_phi(zero(7, w.elements[0].basis_labels), w)
    assert op_norm(out) == 0.0
    ws = standard_isometry_witness(2)
    assert apply_phi(zero_poly(2), ws).is_zero


def test_phi_symbolic_standard_unit():
    ws = standard_isometry_witness(2)
    expected = parse_star_poly("0.5*(s1 s1* + s2 s2*)", 2)
    assert equals(apply_phi(unit(2), ws), expected, 1e-12)


def test_phi_truncated_unit():
    w = standard_isometry_witness(2, depth=2)
    out = apply_phi(identity(7, w.elements[0].basis_labels), w)
    # brute force: half the projection onto nonempty words
    expected = 0.5 * np.diag([0.0, 1, 1, 1, 1, 1, 1])
    assert np.allclose(out.entries, expected, atol=1e-12)


def test_phi_of_identity_has_norm_eta2(toeplitz_witness_L5):
    w = toeplitz_witness_L5
    out = apply_phi(identity(w.elements[0].dim, w.elements[0].basis_labels), w)
    assert op_norm(out) == pytest.approx(w.report.eta2, abs=1e-12)


def test_phi_contraction(toeplitz_witness_L5):
    rng = np.random.default_rng(30)
    w = toeplitz_witness_L5
    for _ in range(5):
        a = random_operator(rng, w.elements[0].dim)
        assert op_norm(apply_phi(a, w)) <= w.report.eta2 * op_norm(a) + 1e-10


def test_phi_preserves_positivity(toeplitz_witness_L5):
    rng = np.random.default_rng(31)
    w = toeplitz_witness_L5
    g = random_operator(rng, w.elements[0].dim)
    psd = g.adjoint() @ g
    assert positivity_check(apply_phi(psd, w)).is_psd


# ---------------------------------------------------------------------------
# Neumann solver
# ---------------------------------------------------------------------------


def test_neumann_zero_input():
    w = standard_isometry_witness(2, depth=2)
    psi, iterations, tail = solve_psi_neumann(zero(7), w)
    assert iterations == 0
    assert tail == 0.0
    assert op_norm(psi) == 0.0


def test_neumann_closed_form_diagonal():
    # psi(1) on the truncated standard witness: 2 - 2^(-len(w)) at word w;
    # oracle below is a raw series summation with fresh matrices
    w = standard_isometry_witness(2, depth=3)
    labels = w.elements[0].basis_labels
    a = identity(15, labels)
    psi, _, _ = solve_psi_neumann(a, w, eps=1e-10)
    expected = np.diag([2.0 - 2.0 ** (-len(word)) for word in labels])
    assert np.max(np.abs(psi.entries - expected)) <= 1e-12
    oracle = brute_neumann(np.eye(15, dtype=complex), [b.entries for b in w.elements], 60)
    assert np.max(np.abs(oracle - expected)) <= 1e-12


def test_neumann_iteration_count():
    # phi^k(|vac><vac|) is the projection onto words of length k, so on the
    # depth-2 truncation phi^3 of it is exactly 0 and ends the sum with tail
    # 0.0; the count is replayed below with raw dense phi and the same rule
    w = standard_isometry_witness(2, depth=2)
    a = Operator(np.diag([1.0] + [0.0] * 6))
    _, iterations, tail = solve_psi_neumann(a, w, eps=1e-10)
    eta = w.report.eta2
    family = [b.entries for b in w.elements]
    term = a.entries
    k = 0
    prior = eta * np.linalg.norm(term) / (1 - eta)
    while min(prior, eta / (1 - eta) * np.linalg.norm(term)) > 1e-10:
        term = brute_phi(term, family)
        k += 1
        prior *= eta
    assert iterations == k == 3
    assert tail == 0.0
    # never past the a-priori count: the smallest K with
    # (1/2)^(K+1) * 1 / (1 - 1/2) <= 1e-10
    k_prior = _a_priori_count(eta, 1.0, 1e-10)
    assert k_prior == 34
    assert iterations <= k_prior


def test_neumann_rejects_expansive_witness():
    ones = check_witness([identity(3), identity(3)], tol=1e-10)
    with pytest.raises(NotContractive):
        solve_psi_neumann(identity(3), ones)


def test_neumann_max_iter(monkeypatch):
    # eta2 = 1 - 1e-6 needs about 7e8 terms to reach eps = 1e-300, far past
    # MAX_NEUMANN_ITERATIONS; the count is refused before any phi is applied
    b = math.sqrt((1 - 1e-6) / 2) * identity(2)
    w = check_witness([b, b])
    eta = w.report.eta2
    assert eta == pytest.approx(1 - 1e-6, abs=1e-12)
    bound = eta * math.sqrt(2.0) / (1.0 - eta)
    for _ in range(decompose_module.MAX_NEUMANN_ITERATIONS):
        bound *= eta
    monkeypatch.setattr(decompose_module, "apply_phi", None)
    with pytest.raises(MaxIterExceeded) as err:
        solve_psi_neumann(identity(2), w, eps=1e-300)
    assert str(err.value) == f"tail bound still {bound:.3e} after 100000 iterations"


def test_neumann_walks_its_a_priori_bounds_once(toeplitz_witness_L5):
    """The solve replays, bit for bit, the two walks it replaced: a count of
    the bounds eta^(k+1) ||a||_F / (1 - eta), then the same bounds again as
    the cap on each step's tail."""
    assert not hasattr(decompose_module, "_check_iteration_cap")
    w = toeplitz_witness_L5
    a = random_hermitian(np.random.default_rng(28), 63, w.elements[0].basis_labels)
    eta, eps = w.report.eta2, 1e-10
    psi, iterations, tail = solve_psi_neumann(a, w, eps)
    ratio, norm_a = eta / (1.0 - eta), np.linalg.norm(a.entries)
    expected, term = a.entries.copy(), a
    prior = reference_tail = eta * norm_a / (1.0 - eta)
    k = 0
    while reference_tail > eps:
        term = apply_phi(term, w)
        expected += term.entries
        k += 1
        prior *= eta
        reference_tail = min(prior, ratio * np.linalg.norm(term.entries))
    assert (iterations, tail) == (k, reference_tail)
    assert psi.entries.tobytes() == expected.tobytes()
    assert iterations <= _a_priori_count(eta, norm_a, eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_neumann_solves_an_element_whose_frobenius_squares_overflow(capfd):
    # ||a||_F = 1.5e308 is finite though its square is not: the a-priori count
    # is finite, and the nilpotent phi of depth 2 stops at K = 3 with tail 0
    w = standard_isometry_witness(2, depth=2)
    entries = np.zeros((7, 7), dtype=complex)
    entries[0, 0] = 1.5e308
    a = Operator(entries, w.elements[0].basis_labels)
    psi, iterations, tail = solve_psi_neumann(a, w)
    assert (iterations, tail) == (3, 0.0)
    expected = [1.5e308] + [0.75e308] * 2 + [0.375e308] * 4
    assert np.diag(psi.entries).real == pytest.approx(expected, rel=1e-15)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("eps", [0.0, -0.0, -1.0, float("nan")])
@pytest.mark.parametrize("witness", ["standard", "toeplitz"])
def test_neumann_refuses_an_eps_that_is_not_positive(toeplitz_witness_L5, witness, eps):
    # eps = 0 once gave K = L + 1 with tail 0.0 for the nilpotent standard
    # witness and MaxIterExceeded for eta2 = 2/3, whose a-priori count stuck
    # at the smallest subnormal bound
    w = standard_isometry_witness(2, depth=5) if witness == "standard" else toeplitz_witness_L5
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_psi_neumann(identity(w.elements[0].dim), w, eps=eps)


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------


def test_direct_zero_and_closed_form():
    w = standard_isometry_witness(2, depth=2)
    assert op_norm(solve_psi_direct(zero(7), w)) <= 1e-14
    labels = w.elements[0].basis_labels
    psi = solve_psi_direct(identity(7, labels), w)
    expected = np.diag([2.0 - 2.0 ** (-len(word)) for word in labels])
    assert np.max(np.abs(psi.entries - expected)) <= 1e-12


def test_direct_agrees_with_neumann():
    rng = np.random.default_rng(32)
    w = standard_isometry_witness(2, depth=2)
    a = random_hermitian(rng, 7)
    direct = solve_psi_direct(a, w)
    neumann, _, _ = solve_psi_neumann(a, w, eps=1e-12)
    assert op_norm(direct - neumann) <= 1e-10


def test_direct_size_limit_and_env_override(monkeypatch):
    # d = 127 is above the fixed limit of 64; the refusal comes before the
    # d^2 x d^2 system (4 GB here) is allocated
    big = standard_isometry_witness(2, depth=6)
    with pytest.raises(SizeLimitExceeded):
        solve_psi_direct(identity(127, big.elements[0].basis_labels), big)
    # the limit is a constant: the environment no longer changes a solve
    w = standard_isometry_witness(2, depth=2)
    expected = solve_psi_direct(identity(7), w)
    monkeypatch.setenv("CF_MAX_DIRECT_DIM", "3")
    assert np.array_equal(solve_psi_direct(identity(7), w).entries, expected.entries)


def _a_priori_count(eta: float, norm_a: float, eps: float) -> int:
    """Smallest K with eta^(K+1) * norm_a / (1 - eta) <= eps, by brute loop."""
    k = 0
    bound = eta * norm_a / (1 - eta)
    while bound > eps:
        k += 1
        bound *= eta
    return k


def _dense_contractive_family(dim: int, count: int, eta2: float) -> list[Operator]:
    """Random dense elements scaled so that ||sum b b*|| = eta2; no element is
    a partial map, so apply_phi takes the dense product."""
    rng = np.random.default_rng(76)
    gs = [random_operator(rng, dim) for _ in range(count)]
    scale = math.sqrt(eta2 / np.linalg.norm(sum(g.entries @ g.entries.conj().T for g in gs), 2))
    return [scale * g for g in gs]


# every witness has d <= 63, inside the direct solver's limit
CERTIFICATE_WITNESSES = {
    **{
        f"standard-{n}-{depth}": functools.partial(standard_isometry_witness, n, depth=depth)
        for n, depth in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
    },
    "toeplitz-2-4": lambda: evaluate_witness(build_witness(toeplitz_candidate_family(2)), 4),
    "dense-31": lambda: check_witness(_dense_contractive_family(31, 3, 0.8)),
    # phi(a) = 0.9 a on 1 x 1 matrices, where the Frobenius and operator
    # norms agree, so the remainder equals the tail bound up to rounding
    "scalar-1": lambda: check_witness([math.sqrt(0.45) * identity(1)] * 2),
}


@functools.cache
def _certificate_witness(name):
    return CERTIFICATE_WITNESSES[name]()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(CERTIFICATE_WITNESSES)),
    st.booleans(),
    st.floats(1e-3, 1e3),
    st.sampled_from([1e-4, 1e-8, 1e-10, 1e-12]),
    st.integers(0, 2**32 - 1),
)
def test_neumann_tail_certifies_distance_to_direct_solve(name, hermitian, scale, eps, seed):
    w = _certificate_witness(name)
    dim = w.elements[0].dim
    if name == "dense-31":
        assert all(b.partial_map is None for b in w.elements)
    rng = np.random.default_rng(seed)
    a = scale * (random_hermitian if hermitian else random_operator)(rng, dim)
    psi, iterations, tail = solve_psi_neumann(a, w, eps=eps)
    direct = solve_psi_direct(a, w)
    assert tail <= eps
    assert op_norm(direct - psi) <= tail + 1e-12 * max(1.0, np.linalg.norm(psi.entries))
    assert iterations <= _a_priori_count(w.report.eta2, op_norm(a), eps)


# ---------------------------------------------------------------------------
# decompose_element
# ---------------------------------------------------------------------------


def test_decompose_identity_truncated_standard():
    w = standard_isometry_witness(2, depth=3)
    a = identity(15, w.elements[0].basis_labels)
    result = decompose_element(a, w, eps=1e-10)
    report = verify_decomposition(a, result.pairs, w.interior_mask)
    assert report.residual_interior_norm <= 1e-8
    assert report.trace_defect <= 1e-9
    # residual lives on the boundary words
    interior = [k for k, word in enumerate(w.elements[0].basis_labels) if len(word) <= 2]
    sub = commutator_residual(a, result.pairs).entries[np.ix_(interior, interior)]
    assert np.max(np.abs(sub)) <= 1e-10


def test_decompose_pair_orientation(toeplitz_witness_L5):
    w = toeplitz_witness_L5
    rng = np.random.default_rng(33)
    a = random_hermitian(rng, w.elements[0].dim)
    result = decompose_element(a, w, eps=1e-10)
    assert len(result.pairs) == w.n
    for pair, b in zip(result.pairs, w.elements):
        assert np.allclose(pair.x.entries, b.adjoint().entries, atol=1e-14)
        assert np.allclose(pair.y.entries, (b @ result.psi_a).entries, atol=1e-12)


def test_decompose_random_with_toeplitz_witness(toeplitz_witness_L5):
    rng = np.random.default_rng(34)
    w = toeplitz_witness_L5
    dim = w.elements[0].dim
    for _ in range(3):
        a = random_hermitian(rng, dim, w.elements[0].basis_labels)
        result = decompose_element(a, w, eps=1e-10)
        check = verify_decomposition(a, result.pairs, interior_mask=w.interior_mask)
        assert check.residual_interior_norm <= 1e-8
        assert result.solver.tail_bound <= 1e-10
        assert abs(check.residual_norm - op_norm(commutator_residual(a, result.pairs))) <= 1e-12


def test_decompose_symbolic_with_supplied_psi():
    ws = standard_isometry_witness(2)
    a = unit(2)
    psi = multiply_scalar(unit(2), 2.0)
    result = decompose_element(a, ws, psi=psi)
    # sum [b_i*, b_i 2] = 2 - phi(2) = 1 + q, so the residual is exactly -q
    residual = commutator_residual(a, result.pairs)
    assert equals(residual, multiply_scalar(vacuum_projection(2), -1.0), 1e-12)
    assert result.solver.method == "supplied"


def test_decompose_symbolic_requires_psi():
    ws = standard_isometry_witness(2)
    with pytest.raises(TypeError):
        decompose_element(unit(2), ws)


def test_trace_obstruction_floor(toeplitz_witness_L5):
    # sums of commutators are trace-free, so the residual can never dip
    # below |tr(a)| / dim
    rng = np.random.default_rng(35)
    w = toeplitz_witness_L5
    dim = w.elements[0].dim
    for _ in range(5):
        a = random_operator(rng, dim)
        result = decompose_element(a, w, eps=1e-10)
        report = verify_decomposition(a, result.pairs, w.interior_mask)
        assert report.residual_norm >= abs(a.trace()) / dim - 1e-9


# ---------------------------------------------------------------------------
# decompose_positive
# ---------------------------------------------------------------------------


def test_positive_zero():
    w = standard_isometry_witness(2, depth=2)
    result = decompose_positive(zero(7), w)
    assert verify_decomposition(zero(7), result.pairs, w.interior_mask).residual_norm == 0.0
    for pair in result.pairs:
        assert pair.self_adjoint_form
        assert op_norm(pair.x) <= 1e-14


def test_positive_identity_truncated_standard():
    w = standard_isometry_witness(2, depth=3)
    a = identity(15, w.elements[0].basis_labels)
    result = decompose_positive(a, w, eps=1e-10)
    assert verify_decomposition(a, result.pairs, w.interior_mask).residual_interior_norm <= 1e-8
    for pair in result.pairs:
        contribution = pair.x @ pair.y - pair.y @ pair.x
        assert op_norm(contribution - contribution.adjoint()) <= 1e-12
        assert np.allclose(pair.y.adjoint().entries, pair.x.entries, atol=0)


def test_positive_random_gram():
    rng = np.random.default_rng(36)
    w = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 3)
    dim = w.elements[0].dim
    assert dim == 15
    g = random_operator(rng, dim, w.elements[0].basis_labels)
    a = g.adjoint() @ g
    result = decompose_positive(a, w, eps=1e-10)
    assert positivity_check(result.psi_a).min_eig >= -1e-10
    for pair in result.pairs:
        contribution = pair.x @ pair.y - pair.y @ pair.x
        assert op_norm(contribution - contribution.adjoint()) <= 1e-12


def test_positive_rejects_nonpositive():
    w = standard_isometry_witness(2, depth=2)
    with pytest.raises(NotPositive):
        decompose_positive(Operator(-np.eye(7)), w)


# ---------------------------------------------------------------------------
# verify_decomposition
# ---------------------------------------------------------------------------


def test_verify_reverse_identity_symbolic():
    # with c = 1 and the standard witness, sum [b_i*, b_i c] = c - phi(c);
    # feeding a = c - phi(c) to the verifier must give an exactly zero residual
    ws = standard_isometry_witness(2)
    c = unit(2)
    pairs = [
        CommutatorPair(adjoint(b), multiply(b, c)) for b in ws.elements
    ]
    a = c - apply_phi(c, ws)
    report = verify_decomposition(a, pairs)
    assert report.residual_norm <= 1e-15
    assert report.trace_defect is None


def test_verify_empty_pairs():
    report = verify_decomposition(zero(4), [])
    assert report.residual_norm == 0.0
    assert report.trace_defect == 0.0


def test_verify_matches_engine(toeplitz_witness_L5):
    rng = np.random.default_rng(37)
    w = toeplitz_witness_L5
    a = random_hermitian(rng, w.elements[0].dim, w.elements[0].basis_labels)
    result = decompose_element(a, w, eps=1e-10)
    report = verify_decomposition(a, result.pairs, interior_mask=w.interior_mask)
    residual = commutator_residual(a, result.pairs).entries
    keep = w.interior_mask
    assert abs(report.residual_norm - op_norm(residual)) <= 1e-12
    assert abs(report.residual_interior_norm - op_norm(residual[np.ix_(keep, keep)])) <= 1e-12
    assert report.trace_defect <= 1e-9 * a.dim


def test_interior_norm_slices_the_mask_and_rejects_non_projections(toeplitz_witness_L5):
    rng = np.random.default_rng(39)
    w = toeplitz_witness_L5
    a = random_hermitian(rng, w.elements[0].dim, w.elements[0].basis_labels)
    result = decompose_element(a, w, eps=1e-10)
    p = np.diag(w.interior_mask.astype(float))
    dense = op_norm(p @ commutator_residual(a, result.pairs).entries @ p)
    report = verify_decomposition(a, result.pairs, interior_mask=w.interior_mask)
    assert abs(report.residual_interior_norm - dense) <= 1e-12 * max(1.0, dense)
    with pytest.raises(ValueError):
        verify_decomposition(a, result.pairs, interior_mask=w.interior_mask.astype(float))
    with pytest.raises(DimensionMismatch):
        verify_decomposition(a, result.pairs, interior_mask=w.interior_mask[1:])


# ---------------------------------------------------------------------------
# the algebraic heart: reverse identity for random symbolic elements
# ---------------------------------------------------------------------------


def test_reverse_identity_random_polynomials():
    rng = np.random.default_rng(38)
    ws = standard_isometry_witness(2)
    for _ in range(20):
        c = random_poly(rng)
        total = zero_poly(2)
        for b in ws.elements:
            total = total + commutator(adjoint(b), multiply(b, c))
        assert equals(total, c - apply_phi(c, ws), 1e-12)


# ---------------------------------------------------------------------------
# one residual computation: the engine returns pairs, the verifier checks them
# ---------------------------------------------------------------------------


def test_the_engine_takes_no_norm_of_a_residual(monkeypatch, toeplitz_witness_L5):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine took an operator norm")

    monkeypatch.setattr("traceless.decompose.op_norm", refuse)
    w = toeplitz_witness_L5
    rng = np.random.default_rng(70)
    labels = w.elements[0].basis_labels
    a = random_operator(rng, w.elements[0].dim, labels)
    for solver in ("neumann", "direct"):
        assert len(decompose_element(a, w, eps=1e-10, solver=solver).pairs) == w.n
        g = random_operator(rng, w.elements[0].dim).entries
        p = Operator(g @ g.conj().T / len(labels), labels)
        assert len(decompose_positive(p, w, eps=1e-10, solver=solver).pairs) == w.n


def test_symbolic_engine_and_verifier_agree_bitwise():
    rng = np.random.default_rng(71)
    ws = standard_isometry_witness(2)
    for _ in range(5):
        a, psi = random_poly(rng), random_poly(rng)
        result = decompose_element(a, ws, psi=psi)
        residual = commutator_residual(a, result.pairs)
        assert equals(residual, a - (psi - apply_phi(psi, ws)), 1e-12)
        report = verify_decomposition(a, result.pairs)
        assert report.residual_norm == report.residual_interior_norm
        assert report.residual_norm == pytest.approx(symbolic_norm(residual).value, abs=1e-12)
        assert report.trace_defect is None


def test_verify_refuses_symbolic_pairs_for_a_matrix():
    matrix = identity(7, fock_truncation(2, 2).labels)
    poly = parse_star_poly("s1", 2)
    with pytest.raises(TypeError, match="StarPolynomial in a decomposition of Operator elements"):
        verify_decomposition(matrix, [CommutatorPair(poly, poly.adjoint())])


def test_verify_refuses_matrix_pairs_for_a_symbolic_element():
    matrix = identity(7, fock_truncation(2, 2).labels)
    poly = parse_star_poly("s1", 2)
    with pytest.raises(TypeError, match="Operator in a decomposition of StarPolynomial elements"):
        verify_decomposition(poly, [CommutatorPair(matrix, matrix)])


# ---------------------------------------------------------------------------
# argument guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: apply_phi(identity(7), standard_isometry_witness(2)),
                     TypeError, "symbolic witness needs a symbolic argument",
                     id="phi-matrix-argument-symbolic-witness"),
        pytest.param(lambda: apply_phi(unit(2), standard_isometry_witness(2, depth=2)),
                     TypeError, "matrix witness needs an Operator argument",
                     id="phi-symbolic-argument-matrix-witness"),
        pytest.param(lambda: solve_psi_direct(identity(7), standard_isometry_witness(2)),
                     TypeError, "direct solve needs a matrix witness", id="direct-symbolic"),
        pytest.param(lambda: solve_psi_direct(identity(3),
                                              check_witness([identity(3), identity(3)])),
                     NotContractive, "eta2 = 2.0 >= 1", id="direct-not-contractive"),
        pytest.param(lambda: solve_psi_direct(identity(3), standard_isometry_witness(2, depth=2)),
                     DimensionMismatch, "dim 3 vs witness dim 7", id="direct-dimension"),
        pytest.param(lambda: decompose_element(identity(7), standard_isometry_witness(2, depth=2),
                                               solver="cg"),
                     ValueError, "unknown solver 'cg'", id="unknown-solver"),
        pytest.param(lambda: decompose_positive(unit(2), standard_isometry_witness(2)),
                     TypeError, "positive decomposition needs a matrix witness",
                     id="positive-symbolic"),
        pytest.param(lambda: verify_decomposition(
                         identity(7), [CommutatorPair(identity(3), identity(3))]),
                     DimensionMismatch, "pair dimension differs from the target element",
                     id="verify-pair-dimension"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
