"""Command-line front end.

Subcommands: eval, witness-gen, witness-check, witness-build, decompose,
verify, dist.  Every run prints a JSON envelope (tool, version, command,
effective config, result or error) to standard output; ``--out`` writes the
raw artifact (witness, decomposition report, ...) to a file so commands can
be chained.

Exit codes: 0 success, 2 an invalid witness (its report still emitted) or a
domain error, 1 an I/O, JSON or expression error.  Every error leaves
``main`` by one arm: a ``TracelessError`` with its code and ``exit_status``,
an ``OSError`` or ``ValueError`` as "input-error" with 1, among them a norm or
matrix that is not finite, which ``linalg`` refuses by name.  A flag value that
argparse refuses, a non-finite ``--tol`` or ``--eps`` and a ``--eps`` that is
not positive among them, exits 2 with its usage message on stderr and
nothing on stdout; so does a witness command given no family, or two
(``witness-gen --standard/--toeplitz/--toeplitz-candidates``,
``witness-build --candidates/--toeplitz``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import cuntz
from .decompose import decompose_element, decompose_positive, verify_decomposition
from .errors import StaleReport, TracelessError, TraceObstruction
from .linalg import Operator
from .serialization import (
    _claimed_eta2,
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    element_from_json,
    elements_from_json,
    estimate_to_json,
    family_from_json,
    matrix_to_json,
    poly_to_json,
    render_envelope,
    report_to_json,
    verification_to_json,
    witness_from_json,
    witness_to_json,
)
from .tracedist import commutator_distance
from .witness import (
    backend_of,
    build_witness,
    check_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

# largest disagreement between a witness file's eta2 and the recomputed one
_STALE_ETA2_TOL = 1e-12


def _load_json(path: str) -> dict:
    """A JSON file whose top level is an object, as every input file is."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is not a JSON object")
    return data


def _finite_float(text: str) -> float:
    """A float option's value; argparse refuses NaN and infinities, as it
    refuses text that is not a number, with a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """A finite float option's value that must also be positive; argparse
    refuses zero and negatives with a usage error (exit 2)."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"invalid positive float value: {text!r}")
    return value


def _cmd_eval(args):
    poly = cuntz.parse_star_poly(args.expr, args.n)
    result = {
        "normal_form": cuntz.poly_to_string(poly),
        "polynomial": poly_to_json(poly),
    }
    artifact = result["polynomial"]
    if args.depth is not None:
        trunc = cuntz.fock_truncation(args.n, args.depth)
        if args.compose:
            mat = cuntz.evaluate_expression(args.expr, trunc)
        else:
            mat = cuntz.evaluate(poly, trunc)
        result["matrix"] = matrix_to_json(mat)
        artifact = result["matrix"]
    return 0, result, artifact


def _cmd_witness_gen(args):
    if args.toeplitz_candidates is not None:
        family = toeplitz_candidate_family(args.toeplitz_candidates)
        artifact = {
            "backend": "symbolic",
            "elements": [poly_to_json(a) for a in family],
        }
        return 0, {"candidates": artifact}, artifact
    if args.toeplitz is not None:
        witness = build_witness(toeplitz_candidate_family(args.toeplitz), tol=args.tol)
    else:
        witness = check_witness(standard_isometry_witness(args.standard).elements, tol=args.tol)
    if args.depth is not None:
        witness = evaluate_witness(witness, args.depth, tol=args.tol)
    artifact = witness_to_json(witness)
    return 0, {"witness": artifact}, artifact


def _cmd_witness_check(args):
    witness = witness_from_json(_load_json(args.witness), tol=args.tol)
    result = {"backend": witness.backend, "n": witness.n, "report": report_to_json(witness.report)}
    return (0 if witness.report.valid else 2), result, result


def _cmd_witness_build(args):
    if args.toeplitz is not None:
        candidates = toeplitz_candidate_family(args.toeplitz)
    else:
        candidates = elements_from_json(_load_json(args.candidates))
    witness = build_witness(candidates, tol=args.tol)
    artifact = witness_to_json(witness)
    return (0 if witness.report.valid else 2), {"witness": artifact}, artifact


def _interior(a, degree):
    """The one interior of ``decompose`` and ``verify``: that of a report's "a"
    labels and "interior_degree", None for a symbolic "a"."""
    return cuntz.interior_for_degree(a.basis_labels, degree) if isinstance(a, Operator) else None


def _cmd_decompose(args):
    a = element_from_json(_load_json(args.a))
    data = _load_json(args.witness)
    witness = witness_from_json(data)
    # the Neumann iteration count and tail bound rest on eta2, so a claim that
    # disagrees with the elements is refused; "not <=" so that NaN is stale too
    claimed = _claimed_eta2(data)
    if claimed is not None and not abs(witness.report.eta2 - claimed) <= _STALE_ETA2_TOL:
        raise StaleReport(
            f"witness file has eta2 = {claimed!r}, its elements give {witness.report.eta2!r}"
        )
    if witness.backend == "symbolic":
        if args.depth is None:
            raise ValueError("a symbolic witness needs --depth to act on matrices")
        witness = evaluate_witness(witness, args.depth)
    if not isinstance(a, Operator):
        raise ValueError("decompose expects the element as a matrix JSON file")
    # a is read in the witness's basis; another dimension is left to the engine
    labels = witness.elements[0].basis_labels
    if labels is not None and a.basis_labels != labels and a.dim == len(labels):
        if a.basis_labels is not None:
            raise ValueError("element labels differ from the witness elements' labels")
        a = Operator(a.entries, labels)
    if args.positive:
        result = decompose_positive(a, witness, eps=args.eps, solver=args.solver)
    else:
        result = decompose_element(a, witness, eps=args.eps, solver=args.solver)
    # a carries the witness's labels whenever the witness has any, so its
    # interior is the witness's; only an unlabelled witness leaves a's own
    mask = witness.interior_mask
    if mask is None:
        mask = _interior(a, witness.degree)
    report = verify_decomposition(a, result.pairs, mask)
    artifact = decomposition_to_json(result, report, a)
    if witness.degree is not None:
        artifact["interior_degree"] = witness.degree
    return 0, {"decomposition": artifact}, artifact


def _cmd_verify(args):
    data = _load_json(args.report)
    a, pairs, raw = decomposition_from_json(data)
    if args.a is not None:
        a = element_from_json(_load_json(args.a))
        if backend_of(a) != raw["backend"]:
            raise ValueError(f"--a is not a {raw['backend']} element")
    if a is None:
        raise ValueError("report does not embed the element; pass --a")
    report = verify_decomposition(a, pairs, _interior(a, raw.get("interior_degree")))
    result = verification_to_json(report)
    return 0, result, result


def _cmd_dist(args):
    family = family_from_json(_load_json(args.family), dim=args.dim)
    mask = None
    if args.interior_length is not None:
        labels = family.generators[0].basis_labels if family.generators else None
        if labels is None:
            raise ValueError("--interior-length needs labeled (Fock) generators")
        trunc = cuntz.fock_truncation_from_labels(labels)
        mask = cuntz.interior_projection(trunc, args.interior_length)
    estimate = commutator_distance(family, polish_steps=args.polish, interior_mask=mask)
    result = estimate_to_json(estimate)
    return 0, result, result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceless",
        description="Commutator decompositions in algebras without tracial states.",
    )
    parser.add_argument("--version", action="version", version=f"traceless {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="parse an expression; optionally evaluate on Fock space")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=int, required=True, help="number of generators")
    p.add_argument("--depth", type=int, default=None, help="Fock truncation depth")
    p.add_argument(
        "--compose",
        action="store_true",
        help="evaluate the raw expression by matrix composition instead of its normal form",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("witness-gen", help="generate a witness family")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--standard", type=int, help="isometry witness on n generators")
    family.add_argument("--toeplitz", type=int, help="witness built from the J-family")
    family.add_argument("--toeplitz-candidates", type=int, help="emit the raw J-family candidates")
    p.add_argument("--depth", type=int, default=None, help="realize on a Fock truncation")
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness_gen)

    p = sub.add_parser("witness-check", help="recompute and validate a witness report")
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.set_defaults(func=_cmd_witness_check)

    p = sub.add_parser("witness-build", help="construct a witness from candidates")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--candidates", help="candidates JSON file")
    source.add_argument("--toeplitz", type=int, help="use the built-in J-family")
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness_build)

    p = sub.add_parser("decompose", help="write an element as a sum of commutators")
    p.add_argument("--a", required=True, help="element JSON file (matrix)")
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.add_argument("--eps", type=_positive_float, default=1e-10)
    p.add_argument("--solver", choices=("neumann", "direct"), default="neumann")
    p.add_argument("--depth", type=int, default=None, help="evaluate a symbolic witness first")
    p.add_argument("--positive", action="store_true", help="use self-adjoint commutator pairs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="recompute the residuals of a decomposition report")
    p.add_argument("--report", required=True, help="decomposition JSON file")
    p.add_argument("--a", default=None, help="element JSON file if not embedded")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dist", help="distance from 1 to a commutator span")
    p.add_argument("--family", required=True, help='family JSON file {"generators": [...]}')
    p.add_argument(
        "--dim", type=int, default=None, help="dimension for an empty family; else the generators'"
    )
    p.add_argument(
        "--polish", type=int, default=200, help="at most this many operator-norm polish steps"
    )
    p.add_argument(
        "--interior-length", type=int, default=None, help="compress to words of length <= K"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dist)

    return parser


def _config_of(args) -> dict:
    skip = {"func", "command"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    envelope = {
        "tool": "traceless",
        "version": __version__,
        "command": args.command,
        "config": _config_of(args),
    }
    try:
        code, result, artifact = args.func(args)
        # the result embeds the artifact, so its one render serves both;
        # --out is opened once both are rendered, so a failure writes nothing
        artifact_chunks, chunks = render_envelope({**envelope, "result": result}, artifact)
        out = getattr(args, "out", None)
        if out is not None:
            with open(out, "w", encoding="utf-8") as handle:
                handle.writelines(artifact_chunks)
        del artifact_chunks  # its text is not held while stdout is written
    except (TracelessError, OSError, ValueError) as exc:
        domain = isinstance(exc, TracelessError)  # else an input-error, JSON syntax too
        error = {"code": exc.code if domain else "input-error", "message": str(exc)}
        if isinstance(exc, TraceObstruction):
            error["t0"] = exc.t0
        envelope["error"] = error
        sys.stdout.write(dumps(envelope))
        return exc.exit_status if domain else 1
    sys.stdout.writelines(chunks)
    return code


if __name__ == "__main__":
    sys.exit(main())
