"""The transfer map, pair construction, witness checks and verification
against the dense oracle.

``apply_phi`` and ``star_sums`` scatter onto the nonzero-row block of a
witness element with at most one nonzero per row.  The pairs, a repeated
column's ``b b*`` and ``verify_decomposition`` go through the one product
kernel of ``linalg``, which gathers or scatters a partial-map factor.  Any
other element takes the dense product.  Every path must agree with the raw
dense products: ``sum b a b*`` of helpers, ``sum b* b``, ``sum b b*``,
``np.linalg.norm(., 2)`` and ``x y - y x``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceless import (
    Operator,
    StarPolynomial,
    apply_phi,
    decompose_element,
    decompose_positive,
    evaluate,
    fock_truncation,
    parse_star_poly,
    psd_sqrt,
    verify_decomposition,
)
from traceless.cuntz import star_sums
from traceless.decompose import CommutatorPair
from traceless.witness import (
    build_witness,
    check_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import brute_phi, random_operator

DEPTH = 4
RTOL = 1e-12


def _rel_err(x: np.ndarray, oracle: np.ndarray) -> float:
    return float(np.linalg.norm(x - oracle) / max(np.linalg.norm(oracle), 1e-300))


def _evaluated(expressions, depth=DEPTH):
    trunc = fock_truncation(2, depth)
    return [evaluate(parse_star_poly(e, 2), trunc) for e in expressions]


def _witness(name):
    if name == "standard":
        return standard_isometry_witness(2, depth=DEPTH)
    if name == "toeplitz":
        return evaluate_witness(build_witness(toeplitz_candidate_family(2)), DEPTH)
    if name == "multi-slot":
        # row 1w of s1 + s1 s2* holds two nonzeros; s2 / sqrt(2) is a shift
        return check_witness(_evaluated(["0.5*(s1 + s1 s2*)", f"{1 / math.sqrt(2)}*s2"]))
    if name == "shared-columns":
        # s1 s2* and s2 s2* both read word 2w, so b b* couples rows 1w and 2w
        return check_witness(_evaluated(["0.5*(s1 s2* + s2 s2*)", f"{1 / math.sqrt(2)}*s1"]))
    rng = np.random.default_rng(70)
    return check_witness([0.3 * random_operator(rng, 31) for _ in range(3)])


def _assert_matches_oracle(witness, a: Operator, c: Operator):
    family = [b.entries for b in witness.elements]
    assert _rel_err(apply_phi(a, witness).entries, brute_phi(a.entries, family)) <= RTOL
    result = decompose_element(a, witness, psi=c)
    for pair, b in zip(result.pairs, family):
        assert np.array_equal(pair.x.entries, b.conj().T)
        assert _rel_err(pair.y.entries, b @ c.entries) <= RTOL


@pytest.mark.parametrize(
    "name, partial",
    [
        ("standard", [True, True]),
        ("toeplitz", [True] * 5),
        ("multi-slot", [False, True]),
        ("dense-random", [False] * 3),
    ],
)
def test_phi_and_pairs_match_dense_oracle(name, partial):
    witness = _witness(name)
    assert [b.partial_map is not None for b in witness.elements] == partial
    rng = np.random.default_rng(71)
    dim = witness.elements[0].dim
    _assert_matches_oracle(witness, random_operator(rng, dim), random_operator(rng, dim))


def test_positive_pairs_match_dense_oracle():
    witness = _witness("toeplitz")
    rng = np.random.default_rng(72)
    g = random_operator(rng, witness.elements[0].dim)
    result = decompose_positive(g.adjoint() @ g, witness)
    root = psd_sqrt(result.psi_a, tol=1e-9).entries
    for pair, b in zip(result.pairs, witness.elements):
        assert _rel_err(pair.y.entries, b.entries @ root) <= RTOL
        assert np.array_equal(pair.x.entries, pair.y.entries.conj().T)


def test_partial_map_form():
    shift = _evaluated(["s1"])[0]
    rows, cols, vals = shift.partial_map
    assert np.all(np.diff(rows) > 0)
    rebuilt = np.zeros((shift.dim, shift.dim), dtype=complex)
    rebuilt[rows, cols] = vals
    assert np.array_equal(rebuilt, shift.entries)
    assert not vals.flags.writeable
    assert shift.partial_map is shift.partial_map
    assert _evaluated(["s1 + s1 s2*"])[0].partial_map is None
    empty = Operator(np.zeros((3, 3))).partial_map
    assert [len(part) for part in empty] == [0, 0, 0]


_words = st.lists(st.integers(1, 2), max_size=2).map(tuple)
_coefs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_normal_forms = st.dictionaries(st.tuples(_words, _words), _coefs, min_size=1, max_size=3).map(
    lambda terms: StarPolynomial(2, terms)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_normal_forms, min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_phi_and_pairs_match_dense_oracle_on_random_normal_forms(polys, seed):
    trunc = fock_truncation(2, 3)
    elements = [evaluate(p, trunc) for p in polys]
    for b in elements:
        nonzero = np.count_nonzero(b.entries, axis=1)
        assert (b.partial_map is None) == bool(np.any(nonzero > 1))
    rng = np.random.default_rng(seed)
    dim = trunc.dimension
    _assert_matches_oracle(
        check_witness(elements), random_operator(rng, dim), random_operator(rng, dim)
    )


FAMILIES = ["standard", "toeplitz", "multi-slot", "dense-random", "shared-columns"]


@pytest.mark.parametrize("name", FAMILIES)
def test_witness_report_matches_dense_oracle(name):
    witness = _witness(name)
    family = [b.entries for b in witness.elements]
    sum_star = sum(b.conj().T @ b for b in family)
    sum_range = sum(b @ b.conj().T for b in family)
    structured = star_sums(witness.elements)
    assert _rel_err(structured[0].entries, sum_star) <= RTOL
    assert _rel_err(structured[1].entries, sum_range) <= RTOL
    defect = sum_star - np.eye(len(family[0]))
    report = witness.report
    assert report.eta1 == pytest.approx(np.linalg.norm(defect, 2), rel=RTOL, abs=RTOL)
    assert report.eta2 == pytest.approx(np.linalg.norm(sum_range, 2), rel=RTOL)
    if witness.interior_mask is not None:
        interior = np.linalg.norm(defect[:, witness.interior_mask], 2)
        assert report.eta1_interior == pytest.approx(interior, rel=RTOL, abs=RTOL)


def test_shared_columns_give_an_off_diagonal_sum_b_b_star():
    witness = _witness("shared-columns")
    shared = witness.elements[0]
    _, cols, _ = shared.partial_map
    assert len(set(cols.tolist())) < len(cols)
    sum_range = star_sums(witness.elements)[1].entries
    assert np.any(sum_range - np.diag(np.diag(sum_range)))
    assert witness.report.eta2 == pytest.approx(np.linalg.norm(sum_range, 2), rel=RTOL)


@pytest.mark.parametrize("name, dense_products", [("multi-slot", 4), ("standard", 0)])
def test_a_family_with_a_dense_element_takes_the_dense_star_sums(monkeypatch, name, dense_products):
    elements = _witness(name).elements
    calls = []
    product = Operator.__matmul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Operator, "__matmul__", counted)
    sum_star, sum_range = star_sums(elements)
    assert len(calls) == dense_products
    family = [b.entries for b in elements]
    assert _rel_err(sum_star.entries, sum(b.conj().T @ b for b in family)) <= RTOL
    assert _rel_err(sum_range.entries, sum(b @ b.conj().T for b in family)) <= RTOL


@pytest.mark.parametrize("name", FAMILIES)
def test_verified_residual_matches_dense_oracle(name):
    """Pairs (b*, b c) from the engine, (b e, b*) with the partial map on the
    right, and (b, b*), which is partial on both sides for a partial-map b."""
    witness = _witness(name)
    rng = np.random.default_rng(73)
    dim = witness.elements[0].dim
    c, e = random_operator(rng, dim), random_operator(rng, dim)
    pairs = list(decompose_element(c, witness, psi=c).pairs)
    pairs += [CommutatorPair(p.y, p.x) for p in decompose_element(e, witness, psi=e).pairs]
    pairs += [CommutatorPair(b, b.adjoint()) for b in witness.elements]
    a = random_operator(rng, dim)
    commutators = sum(p.x.entries @ p.y.entries - p.y.entries @ p.x.entries for p in pairs)
    residual = a.entries - commutators
    keep = np.arange(dim) % 2 == 0
    report = verify_decomposition(a, pairs, keep)
    assert report.residual_norm == pytest.approx(np.linalg.norm(residual, 2), rel=RTOL)
    interior = np.linalg.norm(residual[np.ix_(keep, keep)], 2)
    assert report.residual_interior_norm == pytest.approx(interior, rel=RTOL)
    assert report.trace_defect <= 1e-12 * np.linalg.norm(commutators)
