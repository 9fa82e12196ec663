"""Property tests of the algebraic identities the library rests on.

Products are checked with Gaussian-integer coefficients, for which every
product and sum of the normal form, of ``evaluate`` and of a matrix product
is exact, so equalities there are exact rather than within a tolerance.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceless import (
    Operator,
    StarPolynomial,
    evaluate,
    fock_truncation,
    gen,
    parse_star_poly,
    poly_to_string,
    unit,
)
from traceless.cuntz import (
    PRUNE_TOL,
    commutator,
    equals,
    interior_for_degree,
    star_sums,
    symbolic_norm,
)
from traceless.decompose import CommutatorPair, apply_phi, verify_decomposition
from traceless.errors import DimensionMismatch
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


# whitespace between tokens, and between juxtaposed factors, where it is needed
SPACE = st.sampled_from(["", " ", "  ", "\t"])
GAP = st.sampled_from([" ", "  ", "\t", " \n "])


def _scalar_text(draw, c: complex, real_text: bool) -> str:
    """A Gaussian integer with a non-negative real part, as the parser reads it."""
    re, im = int(c.real), int(c.imag)
    if real_text and im == 0 and draw(st.booleans()):
        return draw(st.sampled_from([str(re), f"{re}.0", f"{re}e0"]))
    s = [draw(SPACE) for _ in range(5)]
    return f"({s[0]}{re}{s[1]}{'-' if im < 0 else '+'}{s[2]}{abs(im)}{s[3]}i{s[4]})"


def _signed_scalar(draw, real_text: bool):
    """(text, value, sign) of a Gaussian scalar: the text reads as sign * value,
    since a written scalar has no sign of its own."""
    c = draw(GAUSSIAN)
    sign = -1 if c.real < 0 else 1
    return _scalar_text(draw, sign * c, real_text), c, sign


def _factor(draw, n: int, depth: int, scalar: bool):
    """(text, value, sign) of one factor of a product."""
    kinds = ["gen", "gen", "one"] + ["scalar"] * scalar + ["group"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "gen":
        i = draw(st.integers(1, n))
        if draw(st.booleans()):
            return f"s{i}{draw(SPACE)}*", gen(n, i).adjoint(), 1
        return f"s{i}", gen(n, i), 1
    if kind == "one":
        return "1", unit(n), 1
    if kind == "scalar":
        text, c, sign = _signed_scalar(draw, real_text=False)
        return text, c * unit(n), sign
    text, value = _expression(draw, n, depth - 1)
    return f"({draw(SPACE)}{text}{draw(SPACE)})", value, 1


def _term(draw, n: int, depth: int):
    """(text, value, sign): a bare scalar, or an optional leading scalar
    multiple of juxtaposed factors, the first of which is not a scalar."""
    if draw(st.integers(0, 5)) == 0:
        text, c, sign = _signed_scalar(draw, real_text=True)
        return text, c * unit(n), sign
    count = draw(st.integers(1, 3))
    factors = [_factor(draw, n, depth, scalar=k > 0) for k in range(count)]
    text = "".join(f + draw(GAP) for f, _, _ in factors[:-1]) + factors[-1][0]
    value, sign = unit(n), 1
    for _, factor_value, factor_sign in factors:
        value, sign = value @ factor_value, sign * factor_sign
    if draw(st.booleans()):
        scalar_text, c, scalar_sign = _signed_scalar(draw, real_text=True)
        text = f"{scalar_text}{draw(SPACE)}*{draw(SPACE)}{text}"
        value, sign = c * value, sign * scalar_sign
    return text, value, sign


def _expression(draw, n: int, depth: int):
    """(text, value): signed terms, the first sign optional when it is '+'."""
    text, value = "", 0 * unit(n)
    for k in range(draw(st.integers(1, 3))):
        body, term_value, sign = _term(draw, n, depth)
        term_sign = draw(st.sampled_from([1, -1]))
        value = value + term_sign * term_value
        written = "-" if term_sign * sign < 0 else "+"
        if k == 0 and written == "+" and draw(st.booleans()):
            written = ""
        text += f"{draw(SPACE) if k else ''}{written}{draw(SPACE)}{body}"
    return text, value


@st.composite
def _expressions(draw):
    n = draw(st.integers(1, 3))
    text, value = _expression(draw, n, depth=2)
    return n, text, value


@settings(max_examples=300, deadline=None)
@given(_expressions())
@example((2, "1*s1 - 1 * (s2 s1*)", StarPolynomial(2, {((1,), ()): 1, ((2,), (1,)): -1})))
@example((2, "s1 * s2 + s1 ( 0 + 2 i )", StarPolynomial(2, {((1,), ()): 2j})))
def test_parse_of_a_rendered_expression_is_its_value(case):
    n, text, value = case
    # Gaussian-integer scalars keep every product and sum exact
    assert _same(parse_star_poly(text, n), value), text


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


# Weighted partial maps (at most one nonzero per row) and dense matrices, for
# the structured star sums, operator norms and verification.  A "partial"
# map's columns come from a drawn pool of indices, so a small pool repeats
# them; a "distinct" one is a weighted partial permutation; a drawn share of
# either's weights is zero.  Sums of products are compared relative to
# sum ||x||_F ||y||_F, which bounds every entry of the products.
STRUCTURED_TOL = 1e-12


@st.composite
def _matrices(draw, dim):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    kind = draw(st.sampled_from(["partial", "distinct", "dense"]))
    if kind == "dense":
        parts = rng.standard_normal((2, dim, dim))
        return Operator(scale * (parts[0] + 1j * parts[1]))
    vals = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    vals[rng.random(dim) < draw(st.floats(0.0, 1.0))] = 0.0
    if kind == "distinct":
        cols = rng.permutation(dim)
    else:
        pool = draw(st.integers(1, dim))
        cols = rng.integers(0, pool, size=dim)
    entries = np.zeros((dim, dim), dtype=complex)
    entries[np.arange(dim), cols] = vals
    return Operator(entries)


_families = st.integers(1, 40).flatmap(lambda d: st.lists(_matrices(d), min_size=1, max_size=4))


def _frobenius(m) -> float:
    return float(np.linalg.norm(m.entries))


def _assert_close(value, reference, scale):
    error = np.max(np.abs(np.asarray(value) - reference), initial=0.0)
    assert error <= STRUCTURED_TOL * max(1.0, scale)


@settings(max_examples=150, deadline=None)
@given(_families)
def test_star_sums_match_the_dense_products(family):
    sum_star, sum_range = star_sums(family)
    scale = sum(_frobenius(b) ** 2 for b in family)
    _assert_close(sum_star.entries, sum(b.adjoint().entries @ b.entries for b in family), scale)
    _assert_close(sum_range.entries, sum(b.entries @ b.adjoint().entries for b in family), scale)


@settings(max_examples=150, deadline=None)
@given(_families, st.integers(0, 2**32 - 1))
def test_op_norm_matches_the_svd_norm(family, seed):
    sum_star, sum_range = star_sums(family)
    keep = np.random.default_rng(seed).random(sum_star.dim) < 0.5
    defect = sum_star.entries - np.eye(sum_star.dim)
    for m in (*(b.entries for b in family), sum_star.entries, sum_range.entries, defect[:, keep]):
        reference = np.linalg.norm(m, 2) if m.size else 0.0
        _assert_close(op_norm(m), reference, reference)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda d: st.tuples(_matrices(d), _matrices(d))))
def test_operator_product_matches_the_dense_product(operands):
    """Partial maps with distinct or repeated columns and zero weights, and
    dense operands, on either side: a gather, a scatter or the dense product."""
    x, y = operands
    labels = tuple(str(k) for k in range(x.dim))
    for left, right in ((x, y), (y, x)):
        product = Operator(left.entries, labels) @ right
        reference = left.entries @ right.entries
        _assert_close(product.entries, reference, _frobenius(left) * _frobenius(right))
        assert product.basis_labels == labels
        assert (left @ Operator(right.entries, labels)).basis_labels is None
    with pytest.raises(DimensionMismatch):
        x @ Operator(np.zeros((x.dim + 1, x.dim + 1)))


def _with_partners(family):
    partners = st.lists(_matrices(family[0].dim), min_size=len(family), max_size=len(family))
    return st.tuples(st.just(family), partners, partners)


@settings(max_examples=150, deadline=None)
@given(_families.flatmap(_with_partners))
def test_verified_commutator_sum_matches_the_dense_products(families):
    """Each family element b gives pairs (b, c) and (e, b) with other drawn
    matrices c and e, so that x, y, both or neither is a partial map."""
    pairs = [
        CommutatorPair(x, y)
        for b, c, e in zip(*families)
        for x, y in ((b, c), (e, b))
    ]
    reference = sum(p.x.entries @ p.y.entries - p.y.entries @ p.x.entries for p in pairs)
    report = verify_decomposition(Operator(reference), pairs)
    scale = sum(_frobenius(p.x) * _frobenius(p.y) for p in pairs)
    assert report.residual_norm <= STRUCTURED_TOL * max(1.0, scale)
