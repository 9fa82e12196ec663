"""The interior: a read-only bool vector over the basis, made in one place,
derived once per witness from its degree, and refused by every consumer
unless it is a bool vector of the operators' dimension."""

import json

import numpy as np
import pytest

from traceless import (
    Operator,
    WitnessFamily,
    decompose_element,
    evaluate_witness,
    fock_truncation,
    interior_projection,
    verify_decomposition,
)
from traceless.cuntz import fock_truncation_from_labels, interior_for_degree, interior_indices
from traceless.errors import DimensionMismatch
from traceless.serialization import dumps, witness_from_json, witness_to_json
from traceless.tracedist import (
    CommutatorSpanFamily,
    commutator_distance,
    commutator_span_family,
)
from traceless.witness import (
    build_witness,
    check_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

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
        assert np.array_equal(rebuilt, interior_projection(trunc, depth - degree))


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
    assert np.flatnonzero(interior_indices(mask, 15)).tolist() == [0, 1, 2]
    with pytest.raises(DimensionMismatch):
        interior_indices(mask, 7)
    with pytest.raises(ValueError):
        interior_indices(mask.astype(float), 15)


def test_every_interior_is_a_read_only_bool_vector_of_length_d():
    trunc = fock_truncation(2, 3)
    standard = standard_isometry_witness(2, depth=3)
    toeplitz = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 3)
    masks = {
        "interior_projection": interior_projection(trunc, 2),
        "interior_for_degree": interior_for_degree(trunc.labels, 1),
        "standard witness": standard.interior_mask,
        "evaluated witness": toeplitz.interior_mask,
        "loaded witness": witness_from_json(witness_to_json(standard)).interior_mask,
    }
    for name, mask in masks.items():
        assert mask.dtype == bool and mask.shape == (15,), name
        assert not mask.flags.writeable, name
        with pytest.raises(ValueError):
            mask[-1] = True
    assert masks["standard witness"].tolist() == [len(w) <= 2 for w in trunc.words]
    kept = [len(w) <= 3 - toeplitz.degree for w in trunc.words]
    assert masks["evaluated witness"].tolist() == kept
    assert standard_isometry_witness(2).interior_mask is None
    with pytest.raises(TypeError):
        WitnessFamily(standard.elements, standard.report, interior_mask=standard.interior_mask)


@pytest.fixture(scope="module")
def standard_case():
    witness = standard_isometry_witness(2, depth=3)
    rng = np.random.default_rng(72)
    a = random_hermitian(rng, 15, witness.elements[0].basis_labels)
    return witness, a, decompose_element(a, witness)


def _reject(consumer, witness, a, result, mask):
    if consumer == "verify_decomposition":
        verify_decomposition(a, result.pairs, interior_mask=mask)
    else:
        family = commutator_span_family(witness.elements)
        commutator_distance(family, polish_steps=2, interior_mask=mask)


@pytest.mark.parametrize("bad", ["half", "float"])
@pytest.mark.parametrize("consumer", ["verify_decomposition", "commutator_distance"])
def test_consumers_reject_masks_that_are_not_projections(standard_case, consumer, bad):
    witness, a, result = standard_case
    p = witness.interior_mask.astype(float)
    mask = {"half": 0.5 * p, "float": p}[bad]
    with pytest.raises(ValueError, match="bool vector"):
        _reject(consumer, witness, a, result, mask)


def test_consumers_reject_a_mask_of_another_size(standard_case):
    witness, a, result = standard_case
    for consumer in ("verify_decomposition", "commutator_distance"):
        for mask in (interior_projection(fock_truncation(2, 2), 1), np.ones((15, 15), bool)):
            with pytest.raises(DimensionMismatch):
                _reject(consumer, witness, a, result, mask)


def test_interior_residual_norm_is_the_norm_of_the_kept_block(standard_case):
    witness, _, _ = standard_case
    a = random_operator(np.random.default_rng(75), 15, witness.elements[0].basis_labels)
    p = np.diag(witness.interior_mask.astype(float))
    # with no pairs the residual is a itself, nonzero on every row and column
    report = verify_decomposition(a, (), interior_mask=witness.interior_mask)
    assert report.residual_interior_norm == pytest.approx(
        np.linalg.norm(p @ a.entries @ p, 2), rel=1e-12
    )


def test_eta1_interior_is_the_defect_on_the_kept_columns():
    rng = np.random.default_rng(74)
    trunc = fock_truncation(2, 3)
    family = [random_operator(rng, 15, trunc.labels) for _ in range(2)]
    p = np.diag(interior_for_degree(trunc.labels, 1).astype(float))
    defect = sum(b.adjoint().entries @ b.entries for b in family) - np.eye(15)
    dense = np.linalg.norm(defect @ p, 2)
    eta1_interior = check_witness(family, degree=1).report.eta1_interior
    assert eta1_interior == pytest.approx(dense, rel=1e-12)
    assert check_witness(family).report.eta1_interior is None


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
