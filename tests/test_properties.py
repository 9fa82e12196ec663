"""Property tests of the algebraic identities the library rests on.

Products are checked with Gaussian-integer coefficients, for which every
product and sum of the normal form, of ``evaluate`` and of a matrix product
is exact, so equalities there are exact rather than within a tolerance.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceless import (
    Operator,
    StarPolynomial,
    evaluate,
    fock_truncation,
    parse_star_poly,
    poly_to_string,
)
from traceless.cuntz import PRUNE_TOL, commutator, equals, interior_for_degree, symbolic_norm
from traceless.decompose import apply_phi
from traceless.linalg import op_norm
from traceless.witness import (
    build_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import coefficient_norm

# parts up to 1e300, so that the modulus is a float too: StarPolynomial
# prunes terms by modulus and refuses a coefficient whose modulus overflows
FINITE = st.floats(-1e300, 1e300)
BOUNDED = st.builds(complex, *[st.floats(-1e3, 1e3)] * 2)
GAUSSIAN = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def polys(draw, n, coefficients, max_length=2, max_terms=4):
    words = st.lists(st.integers(1, n), max_size=max_length).map(tuple)
    terms = draw(st.lists(st.tuples(st.tuples(words, words), coefficients), max_size=max_terms))
    return StarPolynomial(n, terms)


def _same(p, q) -> bool:
    return p.terms == q.terms


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: polys(n, st.builds(complex, FINITE, FINITE), 3, 6)))
# a zero real part next to a negative imaginary one once printed as "-0.0"
@example(StarPolynomial(2, {((1,), ()): -1j, ((), (2,)): complex(-0.0, 2.0)}))
def test_parse_of_the_printed_normal_form_is_the_polynomial(p):
    again = parse_star_poly(poly_to_string(p), p.n)
    # the printer rounds a coefficient within PRUNE_TOL of a real number or
    # of modulus one, and parsing prunes one of modulus PRUNE_TOL or less;
    # anything else comes back exactly, and a parsed polynomial prints in a
    # form that parses back to itself
    assert equals(again, p, 2 * PRUNE_TOL)
    assert _same(parse_star_poly(poly_to_string(again), p.n), again)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[polys(n, GAUSSIAN)] * 3)))
def test_product_is_associative_and_reversed_by_the_adjoint(pqr):
    p, q, r = pqr
    assert _same((p @ q) @ r, p @ (q @ r))
    assert _same((p @ q).adjoint(), q.adjoint() @ p.adjoint())


@st.composite
def _factors_and_depth(draw):
    n = draw(st.integers(1, 3))
    max_length = 2 if n < 3 else 1
    p = draw(polys(n, GAUSSIAN, max_length))
    q = draw(polys(n, GAUSSIAN, max_length))
    return p, q, p.degree + q.degree + draw(st.integers(0, 1))


@settings(max_examples=100, deadline=None)
@given(_factors_and_depth())
def test_evaluate_is_multiplicative_on_the_interior_columns(case):
    p, q, depth = case
    trunc = fock_truncation(p.n, depth)
    keep = interior_for_degree(trunc.labels, p.degree + q.degree)
    product = evaluate(p @ q, trunc).entries
    composed = evaluate(p, trunc).entries @ evaluate(q, trunc).entries
    assert keep.any()
    assert np.array_equal(product[:, keep], composed[:, keep])


@st.composite
def _diagonal_polys(draw):
    """A random combination of word projections s_w s_w*."""
    n = draw(st.integers(1, 3))
    words = st.lists(st.integers(1, n), max_size=2).map(tuple)
    terms = draw(st.lists(st.tuples(words, BOUNDED), max_size=5))
    return StarPolynomial(n, [((w, w), c) for w, c in terms])


# sum b_i b_i* of b_1 = b_2 = s1^5 / sqrt(2): the projection s1^5 s1^5*,
# which no Fock truncation of depth < 5 sees
S1_POWER_PROJECTION = StarPolynomial(2, {((1,) * 5, (1,) * 5): 1.0})


@settings(max_examples=100, deadline=None)
@given(_diagonal_polys(), st.integers(0, 2))
@example(S1_POWER_PROJECTION, 0)
def test_symbolic_norm_of_a_diagonal_element_is_its_norm_on_a_deep_enough_truncation(p, extra):
    estimate = symbolic_norm(p)
    matrix_norm = op_norm(evaluate(p, fock_truncation(p.n, p.degree + extra)))
    assert estimate.exact
    assert abs(estimate.value - matrix_norm) <= 1e-12 * max(1.0, matrix_norm)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_diagonal_polys(), st.integers(1, 3).flatmap(lambda n: polys(n, BOUNDED))))
@example(S1_POWER_PROJECTION)
def test_symbolic_norm_bounds_every_evaluation_from_above(p):
    """``evaluate`` gives the compression P_L p P_L onto words of length <= L,
    whose norm is at most ||p||; the symbolic norm is ||p|| or an upper bound."""
    bound = symbolic_norm(p).value
    for depth in range(p.degree + 3):
        matrix_norm = op_norm(evaluate(p, fock_truncation(p.n, depth)))
        # the slack covers the rounding of a norm that the bound meets exactly
        assert matrix_norm <= bound + 1e-12 * max(1.0, bound)


@functools.cache
def _symbolic_witness(name):
    if name.startswith("standard"):
        return standard_isometry_witness(int(name[-1]))
    return build_witness(toeplitz_candidate_family(int(name[-1])))


SYMBOLIC_WITNESSES = ["standard-2", "standard-3", "toeplitz-2", "toeplitz-3"]


def _commutator_sum(witness, c):
    terms = [commutator(b.adjoint(), b @ c) for b in witness.elements]
    return functools.reduce(lambda x, y: x + y, terms)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYMBOLIC_WITNESSES), st.data())
def test_commutator_sum_is_c_minus_phi_c_symbolically(name, data):
    witness = _symbolic_witness(name)
    c = data.draw(polys(witness.elements[0].n, BOUNDED))
    lhs = _commutator_sum(witness, c)
    rhs = c - apply_phi(c, witness)
    assert equals(lhs, rhs, 1e-12 * max(1.0, coefficient_norm(c)))


@functools.cache
def _evaluated_witness(name, depth):
    if name.startswith("standard"):
        return standard_isometry_witness(int(name[-1]), depth=depth)
    return evaluate_witness(_symbolic_witness(name), depth)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("standard-2", 4), ("standard-3", 3), ("toeplitz-2", 4), ("toeplitz-2", 5)]),
    st.integers(0, 2**32 - 1),
)
def test_commutator_sum_is_c_minus_phi_c_on_the_interior_rows(case, seed):
    """sum_i [b_i*, b_i c] - (c - phi(c)) = (sum_i b_i* b_i - 1) c, whose rows in
    the interior vanish for every matrix c: the defect is Hermitian and zero
    on the interior columns."""
    witness = _evaluated_witness(*case)
    rng = np.random.default_rng(seed)
    d = witness.elements[0].dim
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs = sum(
        b.adjoint().entries @ (b.entries @ c) - (b.entries @ c) @ b.adjoint().entries
        for b in witness.elements
    )
    rhs = c - apply_phi(Operator(c), witness).entries
    keep = witness.interior_mask
    assert keep.any() and not keep.all()
    assert np.max(np.abs((lhs - rhs)[keep])) <= 1e-12 * np.max(np.abs(c))
