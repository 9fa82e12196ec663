import numpy as np
import pytest

from traceless import (
    StarPolynomial,
    adjoint,
    commutator,
    equals,
    evaluate,
    evaluate_expression,
    fock_truncation,
    gen,
    multiply,
    parse_star_poly,
    poly_to_string,
    truncated_isometries,
    unit,
    vacuum_projection,
    word_isometry,
)
from traceless.cuntz import diagonal_sqrt, star_sums, symbolic_norm, word_from_string
from traceless.errors import (
    GeneratorMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotPositive,
    StarSyntaxError,
    SymbolicSqrtUnsupported,
)

from helpers import brute_isometries, brute_poly_matrix, random_poly


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_isometry_relation():
    p = parse_star_poly("s1* s1", 2)
    assert equals(p, unit(2), 1e-15)


def test_parse_orthogonal_ranges():
    assert parse_star_poly("s1* s2", 2).is_zero


def test_parse_scaled_sum():
    p = parse_star_poly("0.5*(s1 s1* + s2 s2*)", 2)
    assert p.coefficient((1,), (1,)) == pytest.approx(0.5)
    assert p.coefficient((2,), (2,)) == pytest.approx(0.5)
    assert len(p.terms) == 2


def test_parse_complex_scalar_and_unit():
    p = parse_star_poly("(1.5-2i)*s1 s2* + 1", 2)
    assert p.coefficient((1,), (2,)) == pytest.approx(1.5 - 2j)
    assert p.coefficient((), ()) == pytest.approx(1.0)


def test_parse_reports_position():
    with pytest.raises(StarSyntaxError) as err:
        parse_star_poly("s1 + )", 2)
    assert err.value.position == 5


def test_parse_rejects_large_generator_index():
    with pytest.raises(IndexOutOfRange):
        parse_star_poly("s3", 2)


S1 = StarPolynomial(2, {((1,), ()): 1.0})


# one row per behaviour of the parser: an exception and its exact message,
# or the normal form the text parses to
@pytest.mark.parametrize(
    "text, expected",
    [
        ("s1 & s2", (StarSyntaxError, "unexpected character '&' (at position 3)")),
        ("s1)", (StarSyntaxError, "trailing input ')' (at position 2)")),
        ("(s1", (StarSyntaxError, "expected ')', found '' (at position 3)")),
        ("2*3", (StarSyntaxError, "number '3' is not a factor (at position 2)")),
        ("s1 + ", (StarSyntaxError, "expected a factor, found '' (at position 5)")),
        ("2 s1", (StarSyntaxError, "trailing input 's1' (at position 2)")),
        ("2 ( 1+2i)", (StarSyntaxError, "trailing input '(' (at position 2)")),
        ("s1 i", (StarSyntaxError, "trailing input 'i' (at position 3)")),
        ("s3", (IndexOutOfRange, "generator index 3 outside 1..2 (at position 0)")),
        ("s1   ", S1),
        ("( 1 + 2 i )*s1", (1 + 2j) * S1),
        ("s1 (1+2i)", (1 + 2j) * S1),
        ("1 s1", S1),
        ("s1 1", S1),
        ("s1 * s2", StarPolynomial(2)),
        # a '1' before '*' at the start of a term is the scalar 1
        ("1*s1", S1),
        ("1 * s1 - 1*(s2 s1*)", S1 - StarPolynomial(2, {((2,), (1,)): 1.0})),
        ("(1*)", (StarSyntaxError, "expected a factor, found ')' (at position 3)")),
        ("s1 1*s2", (StarSyntaxError, "trailing input '*' (at position 4)")),
    ],
)
def test_parser_table(text, expected):
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as err:
            parse_star_poly(text, 2)
        assert str(err.value) == message
    else:
        assert parse_star_poly(text, 2).terms == expected.terms


def test_print_parse_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p = random_poly(rng)
        text = poly_to_string(p)
        again = parse_star_poly(text, p.n)
        assert equals(p, again, 1e-12)
        assert poly_to_string(again) == text


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_multiply_single_rewrite():
    left = parse_star_poly("s1 s2*", 2)
    right = parse_star_poly("s2 s1*", 2)
    assert equals(multiply(left, right), parse_star_poly("s1 s1*", 2), 1e-15)


def test_multiply_unit_law():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_poly(rng)
        assert equals(multiply(p, unit(2)), p, 1e-14)
        assert equals(multiply(unit(2), p), p, 1e-14)


def test_multiply_orthogonal_ranges():
    assert multiply(adjoint(gen(2, 1)), gen(2, 2)).is_zero


def test_isometry_relations_exact():
    for i in (1, 2):
        for j in (1, 2):
            product = multiply(adjoint(gen(2, i)), gen(2, j))
            if i == j:
                assert product.terms == unit(2).terms
            else:
                assert product.terms == {}


def test_adjoint_swaps_words():
    p = parse_star_poly("s1 s2*", 2)
    assert equals(adjoint(p), parse_star_poly("s2 s1*", 2), 1e-15)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_poly(rng)
        assert commutator(p, p).is_zero


def test_commutator_isometry():
    expected = parse_star_poly("1 - s1 s1*", 2)
    assert equals(commutator(adjoint(gen(2, 1)), gen(2, 1)), expected, 1e-15)


def test_equals_distinct_normal_forms():
    p = unit(2)
    q = parse_star_poly("s1 s1* + s2 s2*", 2)
    assert not equals(p, q, 1e-9)


def test_equals_below_tolerance():
    p = random_poly(np.random.default_rng(13))
    q = p + 1e-16 * gen(2, 1)
    assert equals(p, q, 1e-12)


def test_coefficient_whose_modulus_overflows_is_refused():
    with pytest.raises(ValueError, match="no finite modulus"):
        StarPolynomial(2, {((1,), ()): complex(1.5e308, 1.5e308)})
    # a sum of two finite coefficients can overflow too
    with pytest.raises(ValueError, match="no finite modulus"):
        StarPolynomial(2, [(((1,), ()), 1e308), (((1,), ()), 1e308)])


def test_nan_coefficient_is_refused_not_pruned():
    for coef in (complex("nan"), complex(1.0, float("nan"))):
        with pytest.raises(ValueError, match="no finite modulus"):
            StarPolynomial(2, {((1,), ()): coef})


def test_infinite_coefficient_is_refused():
    for coef in (complex("inf"), complex(0.0, -float("inf"))):
        with pytest.raises(ValueError, match="no finite modulus"):
            StarPolynomial(2, {((1,), ()): coef})
    with pytest.raises(ValueError):
        1e308 * StarPolynomial(2, {((1,), ()): 1e10})


def test_generator_mismatch():
    with pytest.raises(GeneratorMismatch):
        multiply(gen(2, 1), gen(3, 1))


def test_associativity():
    rng = np.random.default_rng(14)
    for _ in range(30):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert equals(multiply(multiply(p, q), r), multiply(p, multiply(q, r)), 1e-12)


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(15)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        assert equals(adjoint(multiply(p, q)), multiply(adjoint(q), adjoint(p)), 1e-12)


# ---------------------------------------------------------------------------
# truncated Fock representation
# ---------------------------------------------------------------------------


def test_truncated_isometries_small():
    vs = truncated_isometries(2, 2)
    assert vs[0].dim == 7
    vstar_v = vs[0].adjoint() @ vs[0]
    assert np.allclose(vstar_v.entries, np.diag([1, 1, 1, 0, 0, 0, 0]), atol=1e-15)


def test_truncated_isometries_match_brute_force():
    for n, depth in ((2, 2), (2, 3), (3, 2)):
        brute = brute_isometries(n, depth)
        vs = truncated_isometries(n, depth)
        for lib, oracle in zip(vs, brute):
            assert np.array_equal(lib.entries, oracle)


def test_disjoint_ranges():
    vs = truncated_isometries(2, 3)
    cross = vs[0].adjoint() @ vs[1]
    assert np.max(np.abs(cross.entries)) == 0.0


def test_vacuum_projection_matrix():
    vs = truncated_isometries(2, 2)
    vac = np.eye(7) - (vs[0] @ vs[0].adjoint()).entries - (vs[1] @ vs[1].adjoint()).entries
    expected = np.zeros((7, 7))
    expected[0, 0] = 1.0
    assert np.allclose(vac, expected, atol=1e-15)


def test_evaluate_unit():
    trunc = fock_truncation(2, 2)
    assert np.array_equal(evaluate(unit(2), trunc).entries, np.eye(7))


def test_evaluate_vacuum_projection():
    trunc = fock_truncation(2, 3)
    mat = evaluate(vacuum_projection(2), trunc)
    assert np.linalg.matrix_rank(mat.entries) == 1
    assert mat.entries[0, 0] == 1.0


def test_evaluate_carries_labels():
    trunc = fock_truncation(2, 2)
    assert evaluate(unit(2), trunc).basis_labels == ("", "1", "2", "11", "12", "21", "22")


def test_expression_composition_sees_boundary():
    # the normal form of s1* s1 is 1, but composing truncated matrices kills
    # the boundary words
    trunc = fock_truncation(2, 2)
    composed = evaluate_expression("s1* s1", trunc)
    assert np.allclose(composed.entries, np.diag([1, 1, 1, 0, 0, 0, 0]), atol=1e-15)
    normal = evaluate(parse_star_poly("s1* s1", 2), trunc)
    assert np.array_equal(normal.entries, np.eye(7))


def test_evaluate_matches_brute_force():
    rng = np.random.default_rng(16)
    trunc = fock_truncation(2, 3)
    for _ in range(10):
        p = random_poly(rng, max_degree=2)
        assert np.allclose(
            evaluate(p, trunc).entries, brute_poly_matrix(p, 3), atol=1e-12
        )


def test_representation_multiplicative_on_interior():
    rng = np.random.default_rng(17)
    depth = 4
    trunc = fock_truncation(2, depth)
    for _ in range(10):
        p = random_poly(rng, max_degree=2, max_terms=4)
        q = random_poly(rng, max_degree=2, max_terms=4)
        cut = depth - p.degree - q.degree
        if cut < 0:
            continue
        mask = np.diag(
            [1.0 if len(w) <= cut else 0.0 for w in trunc.words]
        )
        lhs = mask @ evaluate(multiply(p, q), trunc).entries @ mask
        rhs = mask @ (evaluate(p, trunc).entries @ evaluate(q, trunc).entries) @ mask
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# diagonal norms and square roots
# ---------------------------------------------------------------------------


def test_symbolic_norm_diagonal_exact():
    # 1 - (1/2) q_1 has eigenvalue profile {1, 1/2, 1, ...}: norm 1; the
    # pure projection combination q_1 + 3 q_2 peaks at 3
    q1 = multiply(multiply(gen(2, 1), vacuum_projection(2)), adjoint(gen(2, 1)))
    s11 = word_isometry(2, (1, 1))
    q2 = multiply(multiply(s11, vacuum_projection(2)), adjoint(s11))
    est = symbolic_norm(q1 + 3.0 * q2)
    assert est.exact
    assert est.value == pytest.approx(3.0, abs=1e-12)
    est2 = symbolic_norm(unit(2) - 0.5 * q1)
    assert est2.exact
    assert est2.value == pytest.approx(1.0, abs=1e-12)


def test_symbolic_norm_bound_for_nondiagonal():
    est = symbolic_norm(gen(2, 1) + gen(2, 2))
    assert not est.exact
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_diagonal_sqrt_matches_matrix_sqrt():
    q1 = multiply(multiply(gen(2, 1), vacuum_projection(2)), adjoint(gen(2, 1)))
    x = unit(2) - 0.75 * q1
    root = diagonal_sqrt(x)
    assert equals(multiply(root, root), x, 1e-12)
    # cross-check against the dense eigenvalue square root
    trunc = fock_truncation(2, 3)
    dense = evaluate(x, trunc).entries
    w, u = np.linalg.eigh(dense)
    dense_root = (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T
    assert np.allclose(evaluate(root, trunc).entries, dense_root, atol=1e-12)


def test_diagonal_sqrt_rejects_nondiagonal():
    with pytest.raises(SymbolicSqrtUnsupported):
        diagonal_sqrt(gen(2, 1))


def test_diagonal_sqrt_rejects_negative():
    q1 = multiply(multiply(gen(2, 1), vacuum_projection(2)), adjoint(gen(2, 1)))
    with pytest.raises(NotPositive):
        diagonal_sqrt(unit(2) - 2.0 * q1)


def test_pruning_and_invariants():
    p = StarPolynomial(2, {((1,), ()): 1e-15})
    assert p.is_zero
    with pytest.raises(IndexOutOfRange):
        StarPolynomial(2, {((3,), ()): 1.0})


def test_matmul_is_the_product():
    rng = np.random.default_rng(75)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        assert equals(p @ q, multiply(p, q), 0.0)
        assert equals(p @ q, p * q, 0.0)


def test_star_sums_agree_across_backends():
    trunc = fock_truncation(2, 4)
    family = [parse_star_poly(text, 2) for text in ("0.5*s1 + s2 s1*", "s2* - 0.25*s1 s2")]
    symbolic = star_sums(family)
    matrices = star_sums([evaluate(b, trunc) for b in family])
    # degree-2 products agree with the symbolic ones on words of length <= 2
    inner = np.ix_(range(7), range(7))
    for sym, mat in zip(symbolic, matrices):
        assert np.allclose(evaluate(sym, trunc).entries[inner], mat.entries[inner], atol=1e-12)


# ---------------------------------------------------------------------------
# argument guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: word_from_string("ab"),
                     ValueError, "word string must be generator digits, got 'ab'",
                     id="word-not-digits"),
        pytest.param(lambda: StarPolynomial(0),
                     ValueError, "need at least one generator", id="no-generators"),
        pytest.param(lambda: fock_truncation(2, -1),
                     ValueError, "need n >= 1 and depth >= 0", id="negative-depth"),
        pytest.param(lambda: evaluate(gen(3, 1), fock_truncation(2, 1)),
                     GeneratorMismatch, "3 generators vs truncation over 2",
                     id="evaluate-other-n"),
        pytest.param(lambda: diagonal_sqrt(1j * unit(2)),
                     NotHermitian, "eigenvalue 1j at word '' is not real",
                     id="sqrt-not-hermitian"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
