"""JSON wire formats shared by the library, the CLI, and the test suite.

Matrices: {"dim": d, "entries": [[[re, im], ...], ...]} row-major, with an
optional "labels" list of word strings ("" is the vacuum).

Polynomials: {"n": 2, "terms": [{"mu": "12", "nu": "", "re": 0.5, "im": 0.0},
...]} with words written one generator digit per letter, as Fock labels are
(which limits the wire format and ``cuntz.fock_truncation``, not the symbolic
library, to n <= 9).

Witnesses: {"backend": "matrix"|"symbolic", "n": count, "elements": [...],
"report": {"eta1": ..., "eta2": ..., "valid": ...}} plus the optional keys
"degree", from which the interior of a Fock-labelled matrix witness is
derived again on load, and "eta1_interior".  A file's "report" is a claim:
loading always recomputes the report from the elements.  Candidates:
{"backend": ..., "elements": [...]}.  Each element must match "backend",
and so must each element of a decomposition report.

All writers emit keys in a fixed order and floats in shortest round-trip
form, so identical objects serialize byte-identically.  ``dumps`` writes
exactly the bytes of ``json.dumps(obj, indent=2, allow_nan=False) + "\n"``.
It is hand-rolled because the standard library runs its C encoder only
without ``indent``: with it, every float of a matrix goes through
pure-Python generators, which made encoding the largest cost of a CLI run.
Here a matrix row of ``[re, im]`` float cells becomes one string, built by
``str.join`` over the cells' ``float.__repr__``, which is what ``json``
uses for floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .cuntz import StarPolynomial, word_from_string, word_to_string
from .linalg import Operator
from .witness import WitnessFamily, WitnessReport, backend_of
from .decompose import CommutatorPair, DecompositionResult, VerificationReport
from .tracedist import CommutatorSpanFamily, DistanceEstimate, commutator_span_family

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "poly_to_json",
    "poly_from_json",
    "element_to_json",
    "element_from_json",
    "report_to_json",
    "witness_to_json",
    "witness_from_json",
    "elements_from_json",
    "family_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "verification_to_json",
    "estimate_to_json",
    "dumps",
    "render_envelope",
]


def dumps(obj) -> str:
    """Deterministic serialization: insertion order, 2-space indent.

    Byte-identical to ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``
    for str-keyed dicts, lists, tuples, str, int, float, bool and None:
    ``ValueError`` for NaN or infinity, ``TypeError`` for any other type
    or a dict key that is not a str.  Chunks go to one list, joined once, so
    no intermediate string is larger than one matrix row.
    """
    chunks: list[str] = []
    _encode(obj, 0, chunks)
    chunks.append("\n")
    return "".join(chunks)


def render_envelope(envelope, artifact) -> tuple[list[str], list[str]]:
    """The chunks of ``dumps(artifact)`` and of ``dumps(envelope)``, unwritten.

    The artifact is rendered once: wherever the envelope holds the artifact
    object itself (by identity), its chunks are spliced in with each line's
    indent shifted to that depth.  Nothing is joined, so for a large artifact
    the peak memory is that of one ``dumps``.
    """
    artifact_chunks: list[str] = []
    _encode(artifact, 0, artifact_chunks)
    chunks: list[str] = []
    _encode(envelope, 0, chunks, (artifact, artifact_chunks))
    artifact_chunks.append("\n")
    chunks.append("\n")
    return artifact_chunks, chunks


def _scalar(value) -> str | None:
    """The JSON text of a non-container value, or None for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return None


def _float_pair_row(row, level: int) -> str | None:
    """A list or tuple of [re, im] cells of finite floats rendered as one
    string at indent ``level``, or None when ``row`` is anything else."""
    if set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return None
    flat = list(chain.from_iterable(row))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    cell_indent = "\n" + "  " * (level + 1)
    value_indent = cell_indent + "  "
    reprs = map(float.__repr__, flat)
    cells = (cell_indent + "]," + cell_indent + "[" + value_indent).join(
        map(("," + value_indent).join, zip(reprs, reprs))
    )
    return (
        "[" + cell_indent + "[" + value_indent + cells
        + cell_indent + "]\n" + "  " * level + "]"
    )


def _encode(value, level: int, out: list[str], rendered=None) -> None:
    """Append the text of ``value`` at indent ``level``; ``rendered`` is None or
    an (object, its chunks at level 0) pair to splice in, not render again."""
    if rendered is not None and value is rendered[0]:
        indent = "\n" + "  " * level
        out.extend(chunk.replace("\n", indent) for chunk in rendered[1])
        return
    text = _scalar(value)
    if text is not None:
        out.append(text)
        return
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        row = _float_pair_row(value, level)
        if row is not None:
            out.append(row)
            return
        indent = "\n" + "  " * (level + 1)
        out.append("[" + indent)
        for i, item in enumerate(value):
            if i:
                out.append("," + indent)
            _encode(item, level + 1, out, rendered)
        out.append("\n" + "  " * level + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        indent = "\n" + "  " * (level + 1)
        out.append("{" + indent)
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            if i:
                out.append("," + indent)
            out.append(encode_basestring_ascii(key) + ": ")
            _encode(item, level + 1, out, rendered)
        out.append("\n" + "  " * level + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def matrix_to_json(op: Operator) -> dict:
    e = op.entries
    out = {
        "dim": op.dim,
        "entries": np.stack((e.real, e.imag), axis=-1).tolist(),
    }
    if op.basis_labels is not None:
        out["labels"] = list(op.basis_labels)
    return out


def _is_number(value) -> bool:
    """A decoded JSON number that converts to a float: a float, or an int (so
    not a bool) no larger in magnitude than the largest float."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _cell(cell, r: int, c: int) -> complex:
    try:
        re, im = cell
    except (TypeError, ValueError):
        re = im = None
    # a float pair, as every writer emits, skips the int range test
    if (type(re) is float or _is_number(re)) and (type(im) is float or _is_number(im)):
        return complex(re, im)
    raise ValueError(f"matrix entry at row {r}, column {c} is not an [re, im] pair")


def matrix_from_json(data: dict) -> Operator:
    """Read a matrix; raises ValueError for a row that is not a list, ragged
    rows, a cell that is not a finite [re, im] pair of numbers, a "dim" that
    is not an integer or "labels" that is not a list of strings."""
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("matrix JSON needs an 'entries' field")
    rows = data["entries"]
    if not isinstance(rows, list):
        raise ValueError("matrix 'entries' is not a list of rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {r} is not a list")
        if len(row) != len(rows[0]):
            raise ValueError(f"matrix row {r} has {len(row)} entries, row 0 has {len(rows[0])}")
    entries = np.array(
        [[_cell(cell, r, c) for c, cell in enumerate(row)] for r, row in enumerate(rows)],
        dtype=complex,
    )
    bad = np.argwhere(~np.isfinite(entries))
    if len(bad):
        raise ValueError(f"matrix entry at row {bad[0][0]}, column {bad[0][1]} is not finite")
    dim = data.get("dim")
    if dim is not None and type(dim) is not int:
        raise ValueError(f"matrix 'dim' is not an integer: {dim!r}")
    if dim is not None and dim != entries.shape[0]:
        raise ValueError(f"declared dim {dim} but {entries.shape[0]} rows")
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(w, str) for w in labels)
    ):
        raise ValueError("matrix 'labels' is not a list of strings")
    return Operator(entries, tuple(labels) if labels is not None else None)


def poly_to_json(p: StarPolynomial) -> dict:
    if p.n > 9:
        raise ValueError("polynomial JSON writes one digit per letter; needs n <= 9")
    return {
        "n": p.n,
        "terms": [
            {
                "mu": word_to_string(mu),
                "nu": word_to_string(nu),
                "re": float(coef.real),
                "im": float(coef.imag),
            }
            for (mu, nu), coef in p.sorted_terms()
        ],
    }


def poly_from_json(data: dict) -> StarPolynomial:
    """Read a polynomial; raises ValueError for an "n" that is not an integer,
    "terms" that is not a list, a term that is not an object or has no "re",
    a word "mu" or "nu" that is not a string, or a coefficient part "re" or
    "im" that is not a finite JSON number."""
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("polynomial JSON needs an 'n' field")
    if type(data["n"]) is not int:
        raise ValueError(f"polynomial 'n' is not an integer: {data['n']!r}")
    terms_data = data.get("terms", [])
    if not isinstance(terms_data, list):
        raise ValueError("polynomial 'terms' is not a list")
    terms = {}
    for i, term in enumerate(terms_data):
        if not isinstance(term, dict):
            raise ValueError(f"polynomial term {i} is not an object")
        for field in ("mu", "nu"):
            if not isinstance(term.get(field), str):
                raise ValueError(f"polynomial term {i} has a {field!r} that is not a string")
        if "re" not in term:
            raise ValueError(f"polynomial term {i} has no 're'")
        key = (word_from_string(term["mu"]), word_from_string(term["nu"]))
        re, im = term["re"], term.get("im", 0.0)
        coef = complex(re, im) if _is_number(re) and _is_number(im) else complex(math.nan)
        # its modulus too, which StarPolynomial takes to prune terms
        if not math.isfinite(math.hypot(coef.real, coef.imag)):
            raise ValueError(
                f"coefficient at mu={term['mu']!r}, nu={term['nu']!r} is not a finite number"
            )
        terms[key] = terms.get(key, 0j) + coef
    return StarPolynomial(data["n"], terms)


def element_to_json(element) -> dict:
    if isinstance(element, StarPolynomial):
        return poly_to_json(element)
    return matrix_to_json(element)


def element_from_json(data: dict):
    if not isinstance(data, dict):
        raise ValueError("element JSON is not an object")
    if "terms" in data or ("n" in data and "entries" not in data):
        return poly_from_json(data)
    return matrix_from_json(data)


def report_to_json(report: WitnessReport) -> dict:
    """eta1, eta2, valid and, if it was computed, eta1_interior."""
    return {key: v for key, v in asdict(report).items() if v is not None}


def witness_to_json(witness: WitnessFamily) -> dict:
    out = {
        "backend": witness.backend,
        "n": witness.n,
        "elements": [element_to_json(b) for b in witness.elements],
        "report": report_to_json(witness.report),
    }
    if witness.degree is not None:
        out["degree"] = witness.degree
    return out


def _element_of(backend: str, data, what: str):
    """``element_from_json`` of ``data``, refused unless of the ``backend`` kind."""
    element = element_from_json(data)
    if backend_of(element) != backend:
        raise ValueError(f"{what} is not a {backend} element")
    return element


def elements_from_json(data: dict) -> tuple:
    """The "elements" of a witness or candidates file, each of the "backend" kind."""
    backend = data.get("backend")
    if backend not in ("matrix", "symbolic"):
        raise ValueError(f"unknown witness backend {backend!r}")
    elements_data = data.get("elements", [])
    if not isinstance(elements_data, list):
        raise ValueError("witness 'elements' is not a list")
    elements = []
    for i, element_data in enumerate(elements_data):
        if not isinstance(element_data, dict):
            raise ValueError(f"element {i} is not an object")
        elements.append(_element_of(backend, element_data, f"element {i}"))
    return tuple(elements)


def _claimed_eta2(data: dict) -> float | None:
    """The eta2 a witness file's "report" claims, None if it claims none;
    ValueError for a "report" that is not an object or an "eta1" or "eta2"
    present but not a number."""
    report_data = data.get("report", {})
    if not isinstance(report_data, dict):
        raise ValueError("witness 'report' is not an object")
    eta1, eta2 = (report_data.get(key, 0.0) for key in ("eta1", "eta2"))
    if not (_is_number(eta1) and _is_number(eta2)):
        raise ValueError("witness report 'eta1' and 'eta2' must be numbers")
    return float(eta2) if "eta2" in report_data else None


def witness_from_json(data: dict, tol: float = 1e-10) -> WitnessFamily:
    """The family of a witness file's elements, with the report they give;
    the file's "report" is only validated (``_claimed_eta2``), never read."""
    elements = elements_from_json(data)
    if not elements:
        raise ValueError("witness JSON has no elements")
    _claimed_eta2(data)
    return WitnessFamily(elements, degree=data.get("degree"), tol=tol)


def family_from_json(data: dict, dim: int | None = None) -> CommutatorSpanFamily:
    generators_data = data.get("generators", [])
    if not isinstance(generators_data, list):
        raise ValueError("span 'generators' is not a list")
    generators = [matrix_from_json(g) for g in generators_data]
    return commutator_span_family(generators, dim=dim)


def decomposition_to_json(result: DecompositionResult, report: VerificationReport, a=None) -> dict:
    """Decomposition report with the residual fields of ``report``
    (``verify_decomposition`` of the result); embeds the decomposed element
    so that verification can run from the report alone."""
    out = {
        "backend": backend_of(result.psi_a),
        "n": len(result.pairs),
        "pairs": [
            {
                "x": element_to_json(pair.x),
                "y": element_to_json(pair.y),
                "self_adjoint": pair.self_adjoint_form,
            }
            for pair in result.pairs
        ],
        **verification_to_json(report),
        "solver": asdict(result.solver),
    }
    if a is not None:
        out["a"] = element_to_json(a)
    return out


def decomposition_from_json(data: dict) -> tuple[object | None, list[CommutatorPair], dict]:
    """Return (a, pairs, raw) from a decomposition report; raises ValueError for
    a pair without "x" or "y", or a pair element or "a" not of the "backend" kind."""
    backend = data.get("backend")
    if backend not in ("matrix", "symbolic"):
        raise ValueError(f"unknown report backend {backend!r}")
    pairs_data = data.get("pairs", [])
    if not isinstance(pairs_data, list):
        raise ValueError("report 'pairs' is not a list")
    pairs = []
    for i, p in enumerate(pairs_data):
        if not isinstance(p, dict):
            raise ValueError(f"report pair {i} is not an object")
        for key in ("x", "y"):
            if key not in p:
                raise ValueError(f"report pair {i} has no {key!r}")
        x, y = (_element_of(backend, p[key], f"report pair {i} {key!r}") for key in ("x", "y"))
        pairs.append(CommutatorPair(x, y, bool(p.get("self_adjoint", False))))
    a = _element_of(backend, data["a"], "report 'a'") if "a" in data else None
    return a, pairs, data


def verification_to_json(report: VerificationReport) -> dict:
    return {
        "residual_norm": report.residual_norm,
        "residual_interior_norm": report.residual_interior_norm,
        "trace_defect": report.trace_defect,
    }


def estimate_to_json(estimate: DistanceEstimate) -> dict:
    return {
        "coefficients": [float(t) for t in estimate.coefficients],
        "frobenius_residual": estimate.frobenius_residual,
        "opnorm_residual": estimate.opnorm_residual,
        "lower_bound": estimate.lower_bound,
    }
