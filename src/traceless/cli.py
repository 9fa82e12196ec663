"""Command-line front end.

Subcommands: eval, witness-gen, witness-check, witness-build, decompose,
verify, dist.  Every run prints a JSON envelope (tool, version, command,
effective config, result or error) to standard output; ``--out`` writes the
raw artifact (witness, decomposition report, ...) to a file so commands can
be chained.

Exit codes: 0 success, 2 validation failures (invalid witness, trace
obstruction, and other domain errors, with the diagnostic report still
emitted), 1 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import cuntz
from .decompose import decompose_element, decompose_positive, verify_decomposition
from .errors import IndexOutOfRange, StaleReport, StarSyntaxError, TracelessError, TraceObstruction
from .linalg import Operator
from .serialization import (
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    element_from_json,
    elements_from_json,
    estimate_to_json,
    family_from_json,
    matrix_to_json,
    poly_to_json,
    verification_to_json,
    witness_from_json,
    witness_to_json,
)
from .tracedist import commutator_distance
from .witness import (
    build_witness,
    check_witness,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)

_PARSE_ERRORS = (StarSyntaxError, IndexOutOfRange)

# largest disagreement between a witness file's eta2 and the recomputed one
_STALE_ETA2_TOL = 1e-12


def _load_json(path: str) -> dict:
    """A JSON file whose top level is an object, as every input file is."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is not a JSON object")
    return data


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
        if args.depth is not None:
            witness = evaluate_witness(witness, args.depth, tol=args.tol)
    elif args.standard is not None:
        witness = standard_isometry_witness(args.standard, depth=args.depth)
    else:
        raise ValueError("choose one of --standard, --toeplitz, --toeplitz-candidates")
    artifact = witness_to_json(witness)
    return 0, {"witness": artifact}, artifact


def _cmd_witness_check(args):
    witness = witness_from_json(_load_json(args.witness))
    checked = check_witness(witness.elements, tol=args.tol, degree=witness.degree)
    report = witness_to_json(checked)["report"]
    result = {"backend": checked.backend, "n": checked.n, "report": report}
    return (0 if checked.report.valid else 2), result, result


def _cmd_witness_build(args):
    if args.toeplitz is not None:
        candidates = toeplitz_candidate_family(args.toeplitz)
    else:
        candidates = elements_from_json(_load_json(args.candidates))
    witness = build_witness(candidates, tol=args.tol)
    artifact = witness_to_json(witness)
    return (0 if witness.report.valid else 2), {"witness": artifact}, artifact


def _rechecked(witness):
    """A matrix witness with its report recomputed from its elements.

    The Neumann iteration count and tail bound rest on eta2, so a file whose
    eta2 disagrees with its own elements is refused, not trusted.
    """
    checked = check_witness(witness.elements, degree=witness.degree)
    # "not <=" so that a NaN eta2 is stale too
    if not abs(checked.report.eta2 - witness.report.eta2) <= _STALE_ETA2_TOL:
        raise StaleReport(
            f"witness file has eta2 = {witness.report.eta2!r}, "
            f"its elements give {checked.report.eta2!r}"
        )
    return checked


def _cmd_decompose(args):
    a = element_from_json(_load_json(args.a))
    witness = witness_from_json(_load_json(args.witness))
    if witness.backend == "symbolic":
        if args.depth is None:
            raise ValueError("a symbolic witness needs --depth to act on matrices")
        witness = evaluate_witness(witness, args.depth)
    else:
        witness = _rechecked(witness)
    if not isinstance(a, Operator):
        raise ValueError("decompose expects the element as a matrix JSON file")
    if args.positive:
        result = decompose_positive(a, witness, eps=args.eps, solver=args.solver)
    else:
        result = decompose_element(a, witness, eps=args.eps, solver=args.solver)
    artifact = decomposition_to_json(result, a=a)
    if witness.degree is not None:
        artifact["interior_degree"] = witness.degree
    return 0, {"decomposition": artifact}, artifact


def _cmd_verify(args):
    data = _load_json(args.report)
    a, pairs, raw = decomposition_from_json(data)
    if args.a is not None:
        a = element_from_json(_load_json(args.a))
    if a is None:
        raise ValueError("report does not embed the element; pass --a")
    mask = None
    if isinstance(a, Operator):
        mask = cuntz.interior_for_degree(a.basis_labels, raw.get("interior_degree"))
    report = verify_decomposition(a, pairs, interior_mask=mask)
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
    p.add_argument("--standard", type=int, default=None, help="isometry witness on n generators")
    p.add_argument("--toeplitz", type=int, default=None, help="witness built from the J-family")
    p.add_argument(
        "--toeplitz-candidates", type=int, default=None, help="emit the raw J-family candidates"
    )
    p.add_argument("--depth", type=int, default=None, help="realize on a Fock truncation")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness_gen)

    p = sub.add_parser("witness-check", help="recompute and validate a witness report")
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_witness_check)

    p = sub.add_parser("witness-build", help="construct a witness from candidates")
    p.add_argument("--candidates", default=None, help="candidates JSON file")
    p.add_argument("--toeplitz", type=int, default=None, help="use the built-in J-family")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness_build)

    p = sub.add_parser("decompose", help="write an element as a sum of commutators")
    p.add_argument("--a", required=True, help="element JSON file (matrix)")
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.add_argument("--eps", type=float, default=1e-10)
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
    p.add_argument("--dim", type=int, default=None, help="dimension for an empty family")
    p.add_argument("--polish", type=int, default=200, help="operator-norm polish steps")
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
    except _PARSE_ERRORS as exc:
        envelope["error"] = {"code": exc.code, "message": str(exc)}
        sys.stdout.write(dumps(envelope))
        return 1
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        envelope["error"] = {"code": "input-error", "message": str(exc)}
        sys.stdout.write(dumps(envelope))
        return 1
    except TracelessError as exc:
        error = {"code": exc.code, "message": str(exc)}
        if isinstance(exc, TraceObstruction):
            error["t0"] = exc.t0
        envelope["error"] = error
        sys.stdout.write(dumps(envelope))
        return 2
    envelope["result"] = result
    out = getattr(args, "out", None)
    if out is not None and artifact is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(dumps(artifact))
    sys.stdout.write(dumps(envelope))
    return code


if __name__ == "__main__":
    sys.exit(main())
