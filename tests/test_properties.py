"""Property tests of the algebraic identities the library rests on.

Products are checked with Gaussian-integer coefficients, for which every
product and sum of the normal form, of ``evaluate`` and of a matrix product
is exact, so equalities there are exact rather than within a tolerance.
"""

import functools
import math

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
    add,
    adjoint,
    commutator,
    diagonal_sqrt,
    equals,
    interior_for_degree,
    multiply,
    multiply_scalar,
    star_sums,
    symbolic_norm,
)
from traceless.decompose import (
    CommutatorPair,
    apply_phi,
    decompose_element,
    decompose_positive,
    verify_decomposition,
)
from traceless.errors import DimensionMismatch
from traceless.linalg import op_norm
from traceless.witness import (
    build_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import (
    coefficient_norm,
    grade_unitary,
    random_hermitian,
    random_operator,
    rotated_witness,
)

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
    """(text, value, sign): a bare scalar, or an optional leading scalar, with
    or without '*', times juxtaposed factors, the first of which is not a
    scalar."""
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
        times = f"{draw(SPACE)}*{draw(SPACE)}" if draw(st.booleans()) else draw(GAP)
        text = f"{scalar_text}{times}{text}"
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
@example((2, "2 s1 - (1+2i) s2 s1*", StarPolynomial(2, {((1,), ()): 2, ((2,), (1,)): -1 - 2j})))
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


def _signed_terms(p) -> list:
    """p's terms in order, each coefficient as its two parts and their signs."""
    return [
        (key, c.real, math.copysign(1.0, c.real), c.imag, math.copysign(1.0, c.imag))
        for key, c in p._terms.items()
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[polys(n, GAUSSIAN, 3, 5)] * 3)), GAUSSIAN)
# the adjoint of 2 is 2-0j and -1 * 2i is -0-2j: the constructor makes both zeros +0.0
@example((StarPolynomial(2, {((1,), ()): 2}),) * 2 + (StarPolynomial(2, {((2,), ()): 2j}),), -1)
def test_arithmetic_results_are_the_normal_forms_the_constructor_gives(pqr, scalar):
    """Results of the module's arithmetic skip the constructor's word check;
    they must still equal, bit for bit and in order, what it would give."""
    p, q, r = pqr
    # a combination of word projections with a nonnegative profile
    positive = StarPolynomial(r.n, [((mu, mu), abs(c)) for (mu, _), c in r.terms.items()])
    results = [
        multiply(p, q),
        add(p, q),
        multiply_scalar(p, scalar),
        multiply_scalar(r, scalar),
        adjoint(p),
        adjoint(r),
        diagonal_sqrt(positive),
    ]
    for result in results:
        assert _signed_terms(result) == _signed_terms(StarPolynomial(result.n, result.terms))


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


# The dense path: b'_i = u b_i u* for a random unitary u, block diagonal by
# word length, is a dense witness with the same interior, eta2 and
# nilpotency, and psi'(u a u*) = u psi(a) u*.  Every value below is compared
# within 64 d eps max(1, ||a||), 16 times the largest error seen in 78 seeded runs.
DENSE_CASES = st.one_of(
    st.tuples(st.sampled_from(["standard-2", "toeplitz-2"]), st.integers(1, 5)),
    st.tuples(st.just("standard-3"), st.integers(1, 3)),
)


def _conjugated(u, x) -> np.ndarray:
    return u @ x.entries @ u.conj().T


def _assert_rotates(u, result, rotated, tol):
    """``rotated`` is ``result`` conjugated by u: the same iteration count, and
    psi and each pair's elements within ``tol`` in Frobenius norm."""
    assert rotated.solver.iterations == result.solver.iterations
    assert np.linalg.norm(_conjugated(u, result.psi_a) - rotated.psi_a.entries) <= tol
    for pair, again in zip(result.pairs, rotated.pairs, strict=True):
        assert np.linalg.norm(_conjugated(u, pair.x) - again.x.entries) <= tol
        assert np.linalg.norm(_conjugated(u, pair.y) - again.y.entries) <= tol


@settings(max_examples=30, deadline=None)
@given(DENSE_CASES, st.integers(0, 2**32 - 1))
def test_a_rotated_witness_runs_the_dense_path_to_the_rotated_results(case, seed):
    witness = _evaluated_witness(*case)
    rng = np.random.default_rng(seed)
    labels = witness.elements[0].basis_labels
    d = len(labels)
    u = grade_unitary(rng, labels)
    rotated = rotated_witness(witness, u)
    assert any(b.partial_map is None for b in rotated.elements)

    eps = np.finfo(float).eps
    tol = 64 * d * eps
    report, again = witness.report, rotated.report
    assert abs(again.eta1 - report.eta1) <= tol and abs(again.eta2 - report.eta2) <= tol
    assert again.valid == report.valid
    assert (again.eta1_interior is None) == (report.eta1_interior is None)
    if report.eta1_interior is not None:
        assert abs(again.eta1_interior - report.eta1_interior) <= tol
        assert np.array_equal(rotated.interior_mask, witness.interior_mask)

    a = random_hermitian(rng, d, labels)
    a_rotated = Operator(_conjugated(u, a), labels)
    tol = 64 * d * eps * max(1.0, op_norm(a))
    result, result_rotated = decompose_element(a, witness), decompose_element(a_rotated, rotated)
    _assert_rotates(u, result, result_rotated, tol)
    check = verify_decomposition(a, result.pairs, witness.interior_mask)
    check_rotated = verify_decomposition(a_rotated, result_rotated.pairs, rotated.interior_mask)
    assert abs(check_rotated.residual_norm - check.residual_norm) <= tol
    assert abs(check_rotated.residual_interior_norm - check.residual_interior_norm) <= tol
    assert max(check.trace_defect, check_rotated.trace_defect) <= tol

    # a positive g g*: psi(a) is dense and positive, and its square root moves
    # by at most ||delta psi|| / (2 sqrt(least eigenvalue of psi))
    g = random_operator(rng, d, labels)
    p = g @ g.adjoint()
    tol = 64 * d * eps * max(1.0, op_norm(p))
    positive = decompose_positive(p, witness)
    least = np.linalg.eigvalsh(positive.psi_a.entries)[0]
    positive_rotated = decompose_positive(Operator(_conjugated(u, p), labels), rotated)
    _assert_rotates(u, positive, positive_rotated, tol * max(1.0, 1.0 / math.sqrt(max(least, eps))))


# Matrices with at most one nonzero per row, and dense matrices, for the
# structured star sums, operator norms and verification.  A "partial"
# matrix's columns come from a drawn pool of indices, so a small pool repeats
# them and the matrix is not a partial map; a "distinct" one is a weighted
# partial permutation; a drawn share of either's weights is zero.  Sums of
# products are compared relative to sum ||x||_F ||y||_F, which bounds every
# entry of the products.
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(_matrices))
def test_partial_map_is_the_weighted_partial_permutation_form(m):
    nonzero = m.entries != 0
    permutation = nonzero.sum(axis=1).max() <= 1 and nonzero.sum(axis=0).max() <= 1
    assert (m.partial_map is not None) == permutation
    if permutation:
        rows, cols, vals = m.partial_map
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(m.entries[rows, cols], vals)
        rest = m.entries.copy()
        rest[rows, cols] = 0
        assert not np.any(rest)


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
