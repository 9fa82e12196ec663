import cmath
import math

import numpy as np
import pytest

from traceless import (
    Operator,
    adjoint,
    equals,
    fock_truncation,
    gen,
    interior_projection,
    multiply,
    unit,
    vacuum_projection,
    word_isometry,
)
from traceless.cuntz import multiply_scalar, zero_poly
from traceless.errors import (
    DimensionMismatch,
    EmptyFamily,
    GeneratorMismatch,
    SymbolicSqrtUnsupported,
    TraceObstruction,
)
from traceless.witness import (
    WitnessFamily,
    build_witness,
    candidate_stats,
    check_witness,
    check_witness_symbolic,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import brute_isometries, brute_poly_matrix, random_operator


def _word_projection(word):
    s = word_isometry(2, word)
    return multiply(multiply(s, vacuum_projection(2)), adjoint(s))


# ---------------------------------------------------------------------------
# check_witness (matrix backend)
# ---------------------------------------------------------------------------


def test_check_truncated_standard_witness():
    depth = 3
    brute = brute_isometries(2, depth)
    labels = fock_truncation(2, depth).labels
    family = [Operator(m / math.sqrt(2.0), labels) for m in brute]
    checked = check_witness(family, degree=1)
    assert checked.report.eta2 == pytest.approx(0.5, abs=1e-12)
    assert checked.report.eta1 == pytest.approx(1.0, abs=1e-12)
    assert checked.report.eta1_interior <= 1e-12
    assert not checked.report.valid


def test_check_scalar_family_is_invalid():
    half = Operator(np.array([[1.0 / math.sqrt(2.0)]]))
    checked = check_witness([half, half])
    assert checked.report.eta1 <= 1e-12
    assert checked.report.eta2 == pytest.approx(1.0, abs=1e-12)
    assert not checked.report.valid


def test_check_witness_errors():
    with pytest.raises(EmptyFamily):
        check_witness([])
    with pytest.raises(EmptyFamily):
        check_witness([Operator(np.eye(2))])
    with pytest.raises(DimensionMismatch):
        check_witness([Operator(np.eye(2)), Operator(np.eye(3))])


def test_built_toeplitz_witness_evaluated_at_L4():
    witness = build_witness(toeplitz_candidate_family(2))
    realized = evaluate_witness(witness, 4)
    assert realized.report.eta2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert realized.report.eta1_interior <= 1e-12
    # brute-force oracle: sum b b* from independently evaluated polynomials
    total = np.zeros((31, 31), dtype=complex)
    for b in witness.elements:
        mat = brute_poly_matrix(b, 4)
        total += mat @ mat.conj().T
    assert np.linalg.norm(total, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# check_witness (symbolic backend) and the check_witness_symbolic shim
# ---------------------------------------------------------------------------


def test_symbolic_standard_witness_check():
    family = [multiply_scalar(gen(2, i), 1.0 / math.sqrt(2.0)) for i in (1, 2)]
    checked = check_witness(family)
    assert checked.report.eta1 <= 1e-15
    assert checked.report.eta2 == pytest.approx(0.5, abs=1e-12)
    assert checked.report.valid
    assert checked.degree == 1


def test_symbolic_scalar_family_invalid():
    half = multiply_scalar(unit(2), 1.0 / math.sqrt(2.0))
    checked = check_witness([half, half])
    assert checked.report.eta1 <= 1e-12
    assert checked.report.eta2 == pytest.approx(1.0, abs=1e-12)
    assert not checked.report.valid


def test_symbolic_toeplitz_witness_check():
    witness = build_witness(toeplitz_candidate_family(2))
    checked = check_witness(witness.elements)
    assert checked.report.eta1 <= 1e-12
    assert checked.report.eta2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert checked.report.valid
    assert checked.report == witness.report


def _s1_power_family():
    # sum b b* = s1^5 s1^5*, a projection of norm 1 that no word of length
    # <= 4 sees, while sum b* b = 1
    b = multiply_scalar(word_isometry(2, (1,) * 5), 1.0 / math.sqrt(2.0))
    return [b, b]


def test_symbolic_eta2_is_an_upper_bound_not_a_truncation():
    for checked in (
        check_witness(_s1_power_family()),
        check_witness_symbolic(_s1_power_family()),
        check_witness_symbolic(_s1_power_family(), depth=4),
    ):
        assert checked.report.eta1 <= 1e-12
        assert checked.report.eta2 >= 1.0 - 1e-12
        assert not checked.report.valid


def test_check_witness_symbolic_refuses_a_matrix_family():
    family = [Operator(m / math.sqrt(2.0)) for m in brute_isometries(2, 2)]
    with pytest.raises(TypeError):
        check_witness_symbolic(family)


# ---------------------------------------------------------------------------
# build_witness: the constructive route
# ---------------------------------------------------------------------------


def test_matrix_candidates_hit_trace_obstruction():
    rng = np.random.default_rng(21)
    candidates = [random_operator(rng, 8) for _ in range(4)]
    with pytest.raises(TraceObstruction) as err:
        build_witness(candidates)
    assert err.value.t0 >= 1.0 - 1e-9
    # oracle: the normalized trace of 1 - sum(a*a - aa*) is exactly 1, so the
    # norm cannot be smaller; recompute it with raw numpy
    total = np.eye(8, dtype=complex)
    for a in candidates:
        m = a.entries
        total -= m.conj().T @ m - m @ m.conj().T
    assert abs(np.trace(total)) / 8 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(total, 2) >= 1.0 - 1e-9


def test_toeplitz_candidate_stats():
    for J in (2, 3, 4, 5):
        stats = candidate_stats(toeplitz_candidate_family(J))
        assert stats.norms_exact
        assert stats.t0 == pytest.approx(1.0 / J, abs=1e-10)
        assert stats.k == pytest.approx(3.0, abs=1e-10)


def test_toeplitz_telescoping_identity():
    # symbolic: 1 - sum(a_i* a_i - a_i a_i*) = -(1/J) sum_j q_j
    for J in (2, 3):
        family = toeplitz_candidate_family(J)
        diff = unit(2)
        for a in family:
            diff = diff - (multiply(adjoint(a), a) - multiply(a, adjoint(a)))
        expected = zero_poly(2)
        for j in range(1, J + 1):
            expected = expected - multiply_scalar(_word_projection((1,) * j), 1.0 / J)
        assert equals(diff, expected, 1e-12)


def test_toeplitz_brute_force_at_L_J_plus_2():
    # matrix picture at L = J + 2: away from the boundary the defect of
    # 1 - sum(a*a - aa*) is exactly -(1/J) sum q_j, of norm 1/J
    for J in (2, 3):
        depth = J + 2
        family = toeplitz_candidate_family(J)
        mats = [brute_poly_matrix(a, depth) for a in family]
        dim = mats[0].shape[0]
        total = np.eye(dim, dtype=complex)
        for m in mats:
            total -= m.conj().T @ m - m @ m.conj().T
        trunc = fock_truncation(2, depth)
        mask = np.diag(interior_projection(trunc, depth - 1).astype(float))
        compressed = mask @ total @ mask
        assert np.linalg.norm(compressed, 2) == pytest.approx(1.0 / J, abs=1e-12)
        expected = brute_poly_matrix(
            sum(
                (multiply_scalar(_word_projection((1,) * j), -1.0 / J) for j in range(1, J + 1)),
                zero_poly(2),
            ),
            depth,
        )
        assert np.allclose(compressed, mask @ expected @ mask, atol=1e-12)


def test_built_witness_closed_form_extra_element():
    witness = build_witness(toeplitz_candidate_family(2))
    assert witness.n == 5
    b5 = multiply_scalar(witness.elements[-1], math.sqrt(3.0))
    closed = unit(2) - _word_projection((1,)) - (1 - 1 / math.sqrt(2.0)) * _word_projection((1, 1))
    assert equals(b5, closed, 1e-12)


def test_built_witness_satisfies_bound():
    for J in (2, 3, 4):
        stats = candidate_stats(toeplitz_candidate_family(J))
        witness = build_witness(toeplitz_candidate_family(J))
        bound = (stats.k - 1 + stats.t0) / stats.k
        assert witness.report.eta1 <= 1e-9
        assert witness.report.eta2 <= bound + 1e-9
        assert witness.report.valid


def test_build_witness_scaling_invariance():
    base = toeplitz_candidate_family(2)
    phases = [cmath.exp(0.31j * (k + 1)) for k in range(len(base))]
    scaled = [multiply_scalar(a, u) for a, u in zip(base, phases)]
    w1 = build_witness(base)
    w2 = build_witness(scaled)
    assert w1.report.eta1 == pytest.approx(w2.report.eta1, abs=1e-12)
    assert w1.report.eta2 == pytest.approx(w2.report.eta2, abs=1e-12)


def test_unitary_candidate_rounded_below_one_is_an_obstruction():
    # for a unitary u, 1 - (u*u - uu*) is 1 up to rounding, and this QR factor
    # rounds t0 one ulp below 1; the trace still forbids a matrix witness
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert candidate_stats([Operator(q)]).t0 < 1.0
    with pytest.raises(TraceObstruction):
        build_witness([Operator(q)], tol=0.0)


def test_build_witness_symbolic_sqrt_unsupported():
    # k - sum a*a is not a combination of word projections here
    family = [gen(2, 1), multiply_scalar(gen(2, 1) + adjoint(gen(2, 2)), 0.1)]
    with pytest.raises((SymbolicSqrtUnsupported, TraceObstruction)):
        build_witness(family)


# ---------------------------------------------------------------------------
# standard_isometry_witness
# ---------------------------------------------------------------------------


def test_standard_witness_reports():
    w2 = standard_isometry_witness(2)
    assert w2.report.eta1 == 0.0
    # computed from float coefficients 1/sqrt(2): 0.5 to within one rounding
    assert w2.report.eta2 == check_witness(w2.elements).report.eta2
    assert abs(w2.report.eta2 - 0.5) <= 1e-15
    assert w2.report.valid
    w3 = standard_isometry_witness(3)
    assert w3.report.eta2 == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_standard_witness_report_is_computed_from_its_elements(n):
    w = standard_isometry_witness(n)
    assert w.report == check_witness(w.elements).report


def test_a_witness_family_takes_no_report():
    w = standard_isometry_witness(2)
    with pytest.raises(TypeError):
        WitnessFamily(w.elements, report=w.report)
    assert WitnessFamily(w.elements, degree=7) == w


def test_standard_witness_depth_one():
    w = standard_isometry_witness(2, depth=1)
    assert w.elements[0].dim == 3
    assert w.report.eta2 == pytest.approx(0.5, abs=1e-12)
    assert w.report.eta1 == pytest.approx(1.0, abs=1e-12)
    # brute force in the 3-dimensional truncation
    brute = [m / math.sqrt(2.0) for m in brute_isometries(2, 1)]
    total = sum(m @ m.conj().T for m in brute)
    assert np.linalg.norm(total, 2) == pytest.approx(0.5, abs=1e-12)


def test_standard_witness_needs_two():
    with pytest.raises(EmptyFamily):
        standard_isometry_witness(1)


# ---------------------------------------------------------------------------
# argument guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: check_witness([gen(2, 1), gen(3, 1)]),
                     GeneratorMismatch, "3 generators vs 2", id="generator-counts-differ"),
        pytest.param(lambda: toeplitz_candidate_family(0),
                     ValueError, "J must be >= 1", id="toeplitz-j-zero"),
        pytest.param(lambda: evaluate_witness(standard_isometry_witness(2, depth=2), 3),
                     TypeError, "can only evaluate a symbolic witness", id="evaluate-matrix"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
