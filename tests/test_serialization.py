import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceless import (
    Operator,
    equals,
    evaluate_witness,
    fock_truncation,
    op_norm,
    parse_star_poly,
    unit,
)
from traceless.decompose import decompose_element, solve_psi_direct, verify_decomposition
from traceless import serialization
from traceless.errors import TracelessError
from traceless.serialization import (
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    element_from_json,
    family_from_json,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    render_envelope,
    witness_from_json,
    witness_to_json,
)
from traceless.witness import (
    build_witness,
    check_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

from helpers import random_hermitian, random_operator, random_poly


def test_matrix_round_trip():
    rng = np.random.default_rng(50)
    op = random_operator(rng, 5)
    again = matrix_from_json(json.loads(dumps(matrix_to_json(op))))
    assert np.array_equal(op.entries, again.entries)


def test_matrix_labels_round_trip():
    trunc = fock_truncation(2, 2)
    op = Operator(np.eye(7), trunc.labels)
    again = matrix_from_json(matrix_to_json(op))
    assert again.basis_labels == trunc.labels


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2})
    with pytest.raises(ValueError, match="row 1 is not a list"):
        matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], 6]})
    with pytest.raises(ValueError, match="row 0 is not a list"):
        matrix_from_json({"dim": 2, "entries": [5, 6]})


def test_poly_coefficient_error_names_the_term():
    # the kinds of value refused are covered through the CLI in test_cli
    for part, value in (("re", "0.5"), ("im", True)):
        term = {"mu": "12", "nu": "2", "re": 0.5, "im": 0.0, part: value}
        with pytest.raises(ValueError, match="mu='12', nu='2'"):
            poly_from_json({"n": 2, "terms": [term]})


def test_poly_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(10):
        p = random_poly(rng)
        again = poly_from_json(json.loads(dumps(poly_to_json(p))))
        assert equals(p, again, 1e-15)


def test_poly_json_shape():
    p = poly_from_json(
        {"n": 2, "terms": [{"mu": "12", "nu": "", "re": 0.5, "im": 0.0}]}
    )
    assert p.coefficient((1, 2), ()) == 0.5


def test_element_dispatch():
    assert element_from_json({"n": 2, "terms": []}).is_zero
    mat = element_from_json({"dim": 1, "entries": [[[2.0, 0.0]]]})
    assert mat.entries[0, 0] == 2.0


def test_witness_round_trip_symbolic():
    witness = build_witness(toeplitz_candidate_family(2))
    data = json.loads(dumps(witness_to_json(witness)))
    again = witness_from_json(data)
    assert again.backend == "symbolic"
    assert again.n == witness.n
    assert again.degree == witness.degree
    assert again.report == witness.report
    for a, b in zip(witness.elements, again.elements):
        assert equals(a, b, 1e-15)


def test_witness_round_trip_matrix_rebuilds_mask():
    witness = standard_isometry_witness(2, depth=3)
    again = witness_from_json(json.loads(dumps(witness_to_json(witness))))
    assert again.interior_mask is not None
    assert np.array_equal(again.interior_mask, witness.interior_mask)


def test_witness_from_json_builds_its_family_by_one_check_witness(monkeypatch):
    calls = []
    check = serialization.check_witness

    def counted(elements, tol, degree):
        calls.append((len(elements), tol, degree))
        return check(elements, tol, degree)

    monkeypatch.setattr(serialization, "check_witness", counted)
    data = json.loads(dumps(witness_to_json(standard_isometry_witness(2, depth=3))))
    loaded = witness_from_json(data, tol=1e-6)
    assert calls == [(2, 1e-6, 1)]
    assert loaded.report == standard_isometry_witness(2, depth=3).report


def test_a_forged_eta2_in_a_witness_file_is_not_read():
    # claimed eta2 = 0.05 against 2/3 would stop the Neumann series after a
    # few terms with a tail bound that the partial sum does not meet
    witness = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 4)
    data = json.loads(dumps(witness_to_json(witness)))
    data["report"]["eta2"] = 0.05
    loaded = witness_from_json(data)
    assert loaded.report.eta2 == check_witness(loaded.elements).report.eta2
    a = random_hermitian(np.random.default_rng(54), 31, witness.elements[0].basis_labels)
    result = decompose_element(a, loaded, eps=1e-10)
    direct = solve_psi_direct(a, loaded)
    assert op_norm(result.psi_a - direct) <= result.solver.tail_bound + 1e-12


def test_bad_degree_is_refused_without_labels_too():
    data = json.loads(dumps(witness_to_json(standard_isometry_witness(2, depth=2))))
    for element in data["elements"]:
        del element["labels"]
    assert witness_from_json(data).interior_mask is None
    data["degree"] = "1"
    with pytest.raises(ValueError, match="degree"):
        witness_from_json(data)


def test_decomposition_report_round_trip():
    rng = np.random.default_rng(52)
    witness = evaluate_witness(build_witness(toeplitz_candidate_family(2)), 4)
    a = random_hermitian(rng, 31, witness.elements[0].basis_labels)
    result = decompose_element(a, witness, eps=1e-10)
    report = verify_decomposition(a, result.pairs, witness.interior_mask)
    data = json.loads(dumps(decomposition_to_json(result, report, a=a)))
    a2, pairs, raw = decomposition_from_json(data)
    assert op_norm(a2 - a) == 0.0
    assert len(pairs) == witness.n
    assert raw["solver"]["method"] == "neumann"
    for pair, original in zip(pairs, result.pairs):
        assert np.array_equal(pair.x.entries, original.x.entries)
        assert np.array_equal(pair.y.entries, original.y.entries)


def test_dumps_deterministic():
    witness = standard_isometry_witness(2, depth=2)
    blob1 = dumps(witness_to_json(witness))
    blob2 = dumps(witness_to_json(standard_isometry_witness(2, depth=2)))
    assert blob1 == blob2


def test_floats_survive_round_trip():
    # shortest round-trip float formatting: parsing the JSON recovers the
    # exact binary values
    witness = build_witness(toeplitz_candidate_family(3))
    data = json.loads(dumps(witness_to_json(witness)))
    again = witness_from_json(data)
    assert again.report.eta1 == witness.report.eta1
    assert again.report.eta2 == witness.report.eta2
    for a, b in zip(witness.elements, again.elements):
        assert equals(a, b, 0.0)


def test_decomposition_backend_follows_the_elements():
    a = parse_star_poly("s1 s2*", 2)
    symbolic = decompose_element(a, standard_isometry_witness(2), psi=a)
    report = verify_decomposition(a, symbolic.pairs)
    assert decomposition_to_json(symbolic, report, a=a)["backend"] == "symbolic"
    witness = standard_isometry_witness(2, depth=2)
    m = random_hermitian(np.random.default_rng(53), 7)
    matrix = decompose_element(m, witness)
    report = verify_decomposition(m, matrix.pairs)
    assert decomposition_to_json(matrix, report, m)["backend"] == "matrix"


# floats json writes in shortest round-trip form, with the edge cases of
# that form: a signed zero, the smallest subnormal, a huge value, 17 digits
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3]
)
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def grids(draw, min_dim=0):
    """matrix_to_json entries of a random complex matrix, d <= 4."""
    d = draw(st.integers(min_dim, 4))
    parts = draw(st.lists(FLOATS, min_size=2 * d * d, max_size=2 * d * d))
    z = np.array(parts, dtype=float).view(complex).reshape(d, d)
    return matrix_to_json(Operator(z))["entries"]


@st.composite
def fallback_grids(draw):
    """A grid with one defect that the row fast path must refuse."""
    grid = draw(grids(min_dim=1))
    r = draw(st.integers(0, len(grid) - 1))
    c = draw(st.integers(0, len(grid) - 1))
    defect = draw(st.sampled_from(["int", "bool", "triple", "ragged", "empty"]))
    if defect == "int":
        grid[r][c][draw(st.integers(0, 1))] = draw(st.integers(-(2**70), 2**70))
    elif defect == "bool":
        grid[r][c][draw(st.integers(0, 1))] = draw(st.booleans())
    elif defect == "triple":
        grid[r][c].append(draw(FLOATS))
    elif defect == "ragged":
        del grid[r][c]
    else:
        grid[r] = []
    return grid


SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
JSON_VALUES = st.recursive(
    SCALARS | grids() | fallback_grids(),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_dumps_is_byte_identical_to_json(value):
    assert dumps(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, JSON_VALUES, st.lists(st.booleans(), max_size=3))
def test_render_envelope_renders_the_artifact_once_to_the_same_bytes(artifact, other, nesting):
    envelope = artifact
    for in_list in nesting:
        envelope = [other, envelope] if in_list else {"config": other, "result": envelope}
    artifact_chunks, chunks = render_envelope(envelope, artifact)
    assert "".join(chunks) == dumps(envelope)
    assert "".join(artifact_chunks) == dumps(artifact)


@settings(max_examples=50, deadline=None)
@given(grids(min_dim=1), st.sampled_from(NON_FINITE), st.data())
def test_dumps_refuses_non_finite_floats(grid, bad, data):
    r = data.draw(st.integers(0, len(grid) - 1))
    c = data.draw(st.integers(0, len(grid) - 1))
    grid[r][c][data.draw(st.integers(0, 1))] = bad
    for value in (grid, {"entries": grid}, bad, [bad], {"eta2": bad}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps(value)


def test_matrix_to_json_entries_are_the_cell_floats():
    z = np.array(
        [[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(5e-324, -1e308), complex(1 / 3, -0.0)]]
    )
    entries = matrix_to_json(Operator(z))["entries"]
    expected = [[[float(v.real), float(v.imag)] for v in row] for row in z]
    assert entries == expected
    flat = [x for row in entries for cell in row for x in cell]
    assert all(type(x) is float for x in flat)
    assert [math.copysign(1.0, x) for x in flat] == [-1, 1, 1, -1, 1, -1, 1, -1]
    assert dumps(entries) == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: dumps({1: 2}), TypeError, "keys must be str, not int",
                     id="dumps-int-key"),
        pytest.param(lambda: dumps({"a": object()}),
                     TypeError, "Object of type object is not JSON serializable",
                     id="dumps-object"),
        pytest.param(lambda: poly_to_json(unit(10)),
                     ValueError, "polynomial JSON writes one digit per letter; needs n <= 9",
                     id="poly-n-10"),
        pytest.param(lambda: poly_from_json({"terms": []}),
                     ValueError, "polynomial JSON needs an 'n' field", id="poly-no-n"),
        pytest.param(lambda: witness_from_json({"backend": "tensor", "elements": []}),
                     ValueError, "unknown witness backend 'tensor'", id="witness-backend"),
        pytest.param(lambda: decomposition_from_json({"backend": "tensor", "pairs": []}),
                     ValueError, "unknown report backend 'tensor'", id="report-backend"),
        pytest.param(lambda: witness_from_json({"backend": "matrix", "elements": []}),
                     ValueError, "witness JSON has no elements", id="witness-no-elements"),
        pytest.param(lambda: poly_from_json({"n": 2, "terms": [{"mu": "1", "nu": ""}]}),
                     ValueError, "polynomial term 0 has no 're'", id="poly-term-no-re"),
        pytest.param(lambda: decomposition_from_json({"backend": "matrix", "pairs": [{"y": {}}]}),
                     ValueError, "report pair 0 has no 'x'", id="report-pair-no-x"),
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def _valid_documents():
    """(reader, JSON document) pairs, each document one that the reader accepts."""
    matrix_witness = standard_isometry_witness(2, depth=2)
    a = random_hermitian(np.random.default_rng(7), 7, matrix_witness.elements[0].basis_labels)
    result = decompose_element(a, matrix_witness, eps=1e-10)
    report = verify_decomposition(a, result.pairs, matrix_witness.interior_mask)
    documents = [
        (witness_from_json, witness_to_json(matrix_witness)),
        (witness_from_json, witness_to_json(standard_isometry_witness(2))),
        (decomposition_from_json, decomposition_to_json(result, report, a=a)),
        (poly_from_json, poly_to_json(parse_star_poly("0.5*s1 s2* - (0+1i)*s2 + 1", 2))),
        (family_from_json, {"generators": [matrix_to_json(a), matrix_to_json(a @ a)]}),
    ]
    return [(reader, json.loads(dumps(document))) for reader, document in documents]


DOCUMENTS = _valid_documents()
JUNK = st.sampled_from(
    [None, True, 0, -1, 3, 10**400, 1.5e308, math.nan, math.inf, "", "3", "x", [], [0.5, 0.5],
     [[1.0, 0.0]], {}, {"n": 2}, {"entries": []}]
)


def _paths(value, path=()):
    """Every path to a value inside ``value``, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _paths(item, path + (key,))


@st.composite
def _damaged_documents(draw):
    """A valid document with one key or list item deleted, or one value
    replaced with junk."""
    reader, document = draw(st.sampled_from(DOCUMENTS))
    document = json.loads(json.dumps(document))
    *path, last = draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JUNK)
    return reader, document


@settings(max_examples=400, deadline=None)
@given(_damaged_documents())
# a junk entry of 1.5e308 overflows the star sums of a witness element or a
# span family's generator, which each reader refuses by name, with no warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_damaged_document_is_read_or_refused_with_a_value_or_domain_error(case):
    reader, document = case
    try:
        reader(document)
    except (ValueError, TracelessError):
        pass
