"""The interior mask: made in one place, read through one validated reader,
and rejected by every consumer unless it is a diagonal 0/1 projection."""

import json

import numpy as np
import pytest

from traceless import (
    Operator,
    decompose_element,
    fock_truncation,
    interior_projection,
    verify_decomposition,
)
from traceless.cuntz import fock_truncation_from_labels, interior_for_degree, interior_indices
from traceless.errors import DimensionMismatch
from traceless.serialization import dumps
from traceless.tracedist import (
    CommutatorSpanFamily,
    commutator_distance,
    commutator_span_family,
)
from traceless.witness import check_witness, standard_isometry_witness

from helpers import random_hermitian, random_operator


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_mask_rebuilt_from_json_labels_equals_interior_projection(n, depth):
    trunc = fock_truncation(n, depth)
    labels = json.loads(dumps(list(trunc.labels)))
    # a depth-0 basis names no generator, so only the words are determined
    assert fock_truncation_from_labels(labels).words == trunc.words
    for degree in range(depth + 2):
        rebuilt = interior_for_degree(labels, degree)
        if degree > depth:
            assert rebuilt is None
            continue
        expected = interior_projection(trunc, depth - degree)
        assert np.array_equal(rebuilt.entries, expected.entries)
        assert rebuilt.basis_labels == expected.basis_labels


@pytest.mark.parametrize(
    "labels",
    [
        ("", "2", "1"),  # not lexicographic within a length
        ("", "1", "2", "11"),  # depth 2 cut short
        ("", "1", "22"),  # skips a length
        ("a", "b", "c"),  # not words
        ("", "1", "2", "11", "12", "21", "2" * 40),  # size would overflow a truncation
    ],
)
def test_labels_that_are_not_a_fock_basis_are_rejected(labels):
    with pytest.raises(ValueError):
        fock_truncation_from_labels(labels)
    with pytest.raises(ValueError):
        interior_for_degree(labels, 1)


def test_interior_indices_reads_the_kept_basis_vectors():
    mask = interior_projection(fock_truncation(2, 3), 1)
    assert interior_indices(mask, 15).tolist() == [0, 1, 2]
    with pytest.raises(DimensionMismatch):
        interior_indices(mask, 7)


def _bad_masks(p: np.ndarray):
    return {
        "half": 0.5 * p,
        "superdiagonal": p + np.diag(np.ones(p.shape[0] - 1), 1),
    }


@pytest.fixture(scope="module")
def standard_case():
    witness = standard_isometry_witness(2, depth=3)
    rng = np.random.default_rng(72)
    a = random_hermitian(rng, 15, witness.elements[0].basis_labels)
    return witness, a, decompose_element(a, witness)


@pytest.mark.parametrize("bad", ["half", "superdiagonal"])
@pytest.mark.parametrize(
    "consumer", ["check_witness", "verify_decomposition", "commutator_distance"]
)
def test_consumers_reject_masks_that_are_not_projections(standard_case, consumer, bad):
    witness, a, result = standard_case
    mask = Operator(_bad_masks(witness.interior_mask.entries)[bad])
    with pytest.raises(ValueError, match="diagonal 0/1 projection"):
        if consumer == "check_witness":
            check_witness(witness.elements, interior_mask=mask)
        elif consumer == "verify_decomposition":
            verify_decomposition(a, result.pairs, interior_mask=mask)
        else:
            family = commutator_span_family(witness.elements)
            commutator_distance(family, polish_steps=2, interior_mask=mask)


def test_consumers_reject_a_mask_of_another_size(standard_case):
    witness, a, result = standard_case
    mask = interior_projection(fock_truncation(2, 2), 1)
    with pytest.raises(DimensionMismatch):
        check_witness(witness.elements, interior_mask=mask)
    with pytest.raises(DimensionMismatch):
        verify_decomposition(a, result.pairs, interior_mask=mask)
    with pytest.raises(DimensionMismatch):
        commutator_distance(commutator_span_family(witness.elements), interior_mask=mask)


def test_eta1_interior_is_the_defect_on_the_kept_columns():
    rng = np.random.default_rng(74)
    trunc = fock_truncation(2, 3)
    family = [random_operator(rng, 15) for _ in range(2)]
    mask = interior_projection(trunc, 2)
    defect = sum(b.adjoint().entries @ b.entries for b in family) - np.eye(15)
    dense = np.linalg.norm(defect @ mask.entries, 2)
    eta1_interior = check_witness(family, interior_mask=mask).report.eta1_interior
    assert eta1_interior == pytest.approx(dense, rel=1e-12)


def test_compressed_distance_matches_the_sliced_problem():
    rng = np.random.default_rng(73)
    trunc = fock_truncation(2, 3)
    family = commutator_span_family([random_operator(rng, 15, trunc.labels) for _ in range(3)])
    keep = [k for k, w in enumerate(trunc.words) if len(w) <= 2]
    sliced = tuple(Operator(c.entries[np.ix_(keep, keep)]) for c in family.span_elements)
    mask = interior_projection(trunc, 2)
    masked = commutator_distance(family, polish_steps=30, interior_mask=mask)
    direct = commutator_distance(CommutatorSpanFamily((), sliced, len(keep)), polish_steps=30)
    assert masked == direct
