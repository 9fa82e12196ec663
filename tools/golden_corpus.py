"""Run a fixed list of CLI invocations and keep everything they write.

    python3 tools/golden_corpus.py OUT_DIR

Each run is a subprocess ``python -m traceless.cli ...`` with the package
taken from the ``src/`` next to this script. It runs with OUT_DIR as its
working directory and relative file names, so the ``config`` echoed in a
stdout does not depend on where OUT_DIR is. The tool writes:

- ``OUT_DIR/<name>.stdout``: the run's standard output;
- ``OUT_DIR/exit-codes.txt``: one ``<name> <exit code>`` line per run;
- every ``--out`` artifact, under the name the run gives it;
- the derived input files (candidate and span families assembled from
  artifacts, and tampered or malformed copies of them), written with the
  standard ``json`` module;
- ``OUT_DIR/manifest.json``: the manifest described below.

Two checkouts produce the same CLI bytes when ``diff -r`` of their output
directories is empty. A checkout older than this script can run a copy of
it placed in its own ``tools/``.

The manifest holds every run's exit code and, for each stdout and
artifact, what must stay the same across checkouts and BLAS builds:

- error envelopes and symbolic results hold no float that BLAS computed,
  so they are kept as a sha256 of their bytes;
- every other file (a matrix run's) is kept as a sha256 of its parsed JSON
  with each float replaced by 0.0 and each ``"entries"`` matrix by its
  shape, plus its numbers: every float outside a matrix, and for each
  matrix its Frobenius norm and a fixed weighted sum of its values.

``compare`` checks two manifests, the numbers at 1e-12 relative plus 1e-12
absolute per value (for a matrix, the bound on its norm and weighted sum
that this per-value tolerance implies). ``tests/golden_manifest.json`` is
the manifest of the committed outputs, and ``tests/test_golden.py`` runs the
corpus in process against it. A change that alters outputs on purpose
copies the new ``OUT_DIR/manifest.json`` over it, so that the manifest's
diff shows what changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# per-value tolerance of the numbers of a matrix run
REL_TOL = 1e-12
ABS_TOL = 1e-12

A_EXPR = "s1 s2* + s2 s1* + 0.5*s1 + 0.5*s1* + 0.25"
POSITIVE_EXPR = "2 + s1 + s1*"


class Corpus:
    """Runs CLI commands in ``out_dir`` and records their exit codes and outputs.

    With ``in_process``, each run calls ``traceless.cli.main`` in this
    process, from ``out_dir``, in place of a subprocess.
    """

    def __init__(self, out_dir: Path, in_process: bool = False):
        self.out_dir = out_dir
        self.in_process = in_process
        self.codes: list[str] = []
        self.artifacts: dict[str, str | None] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, name: str, *argv: str) -> None:
        if self.in_process:
            code, stdout = self._run_in_process(argv)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "traceless.cli", *argv],
                cwd=self.out_dir,
                env=self.env,
                capture_output=True,
                text=True,
            )
            code, stdout = proc.returncode, proc.stdout
            if proc.stderr:
                # stderr holds absolute paths, so it is reported, not kept
                print(f"{name}: exit {code}, wrote to stderr", file=sys.stderr)
        (self.out_dir / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        self.codes.append(f"{name} {code}")
        self.artifacts[name] = argv[argv.index("--out") + 1] if "--out" in argv else None

    def _run_in_process(self, argv) -> tuple[int, str]:
        from traceless import cli

        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.out_dir)
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue()

    def load(self, name: str):
        return json.loads((self.out_dir / name).read_text(encoding="utf-8"))

    def write(self, name: str, data) -> None:
        """Write a derived input file with the standard json module."""
        (self.out_dir / name).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    def finish(self) -> None:
        (self.out_dir / "exit-codes.txt").write_text("\n".join(self.codes) + "\n")

    def manifest(self) -> dict:
        runs = {}
        for line in self.codes:
            name, code = line.rsplit(" ", 1)
            stdout = (self.out_dir / f"{name}.stdout").read_text(encoding="utf-8")
            try:
                envelope = json.loads(stdout)
            except json.JSONDecodeError:  # a crash: empty or partial output
                envelope = {"error": None}
            paths = [f"{name}.stdout"]
            # the CLI writes the artifact of every run that reports no error
            if self.artifacts[name] is not None and "error" not in envelope:
                paths.append(self.artifacts[name])
            exact = "error" in envelope or not _holds_matrix_values(envelope)
            files = {
                path: _describe((self.out_dir / path).read_text(encoding="utf-8"), exact)
                for path in paths
            }
            runs[name] = {"exit": int(code), "files": files}
        return {"runs": runs}


def _holds_matrix_values(envelope: dict) -> bool:
    """A result holds floats computed through BLAS: every result of the
    matrix-only commands, and any result with a matrix in it."""
    if envelope["command"] in ("decompose", "verify", "dist"):
        return True

    def walk(value):
        if isinstance(value, dict):
            if "entries" in value or value.get("backend") == "matrix":
                return True
            return any(walk(item) for item in value.values())
        if isinstance(value, list):
            return any(walk(item) for item in value)
        return False

    return walk(envelope["result"])


def _describe(text: str, exact: bool) -> dict:
    if exact:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    numbers: list = []
    skeleton = json.dumps(_skeleton(json.loads(text), numbers))
    return {"skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(), "numbers": numbers}


def _weights(count: int) -> np.ndarray:
    """Fixed weights in [1, 2), not periodic, so a moved value changes the sum."""
    return 1.0 + np.modf(np.arange(count) * ((math.sqrt(5.0) - 1.0) / 2.0))[0]


def _skeleton(value, numbers: list):
    """``value`` with each float replaced by 0.0 and each "entries" matrix by
    its shape; appends to ``numbers``, in document order, each float outside
    a matrix, and for each matrix {"frobenius", "weighted", "count"}."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key == "entries":
                values = np.asarray(item, dtype=float)
                flat = values.ravel()
                with np.errstate(over="ignore"):  # a sum past the float range is inf
                    numbers.append({
                        "frobenius": float(np.linalg.norm(flat)),
                        "weighted": float(_weights(flat.size) @ flat),
                        "count": int(flat.size),
                    })
                out[key] = list(values.shape)
            else:
                out[key] = _skeleton(item, numbers)
        return out
    if isinstance(value, list):
        return [_skeleton(item, numbers) for item in value]
    if isinstance(value, float):
        numbers.append(value)
        return 0.0
    return value


def _close_matrix(new: dict, old: dict) -> bool:
    """The bounds on the norm and the weighted sum that per-value changes of
    at most REL_TOL |x| + ABS_TOL imply; an infinite sum must stay equal."""
    count = old["count"]
    norm_slack = REL_TOL * old["frobenius"] + ABS_TOL * math.sqrt(count)
    # every weight is below 2, and sum |x| <= sqrt(count) ||x||
    sum_slack = 2.0 * (REL_TOL * math.sqrt(count) * old["frobenius"] + ABS_TOL * count)
    return new["count"] == count and all(
        new[key] == old[key] or abs(new[key] - old[key]) <= slack
        for key, slack in (("frobenius", norm_slack), ("weighted", sum_slack))
    )


def compare(new: dict, old: dict) -> list[str]:
    """Where manifest ``new`` differs from ``old``, one line each."""
    problems = []
    if list(new["runs"]) != list(old["runs"]):
        problems.append(f"runs differ: {sorted(set(new['runs']) ^ set(old['runs']))}")
    for name, run in old["runs"].items():
        other = new["runs"].get(name)
        if other is None:
            continue
        if other["exit"] != run["exit"]:
            problems.append(f"{name}: exit {other['exit']}, was {run['exit']}")
        if list(other["files"]) != list(run["files"]):
            problems.append(f"{name}: files {list(other['files'])}, were {list(run['files'])}")
            continue
        for path, kept in run["files"].items():
            got = other["files"][path]
            if got.keys() != kept.keys():
                problems.append(f"{path}: kept as {sorted(got)}, was {sorted(kept)}")
            elif "sha256" in kept:
                if got["sha256"] != kept["sha256"]:
                    problems.append(f"{path}: bytes differ")
            elif got["skeleton_sha256"] != kept["skeleton_sha256"]:
                problems.append(f"{path}: JSON apart from its floats differs")
            elif len(got["numbers"]) != len(kept["numbers"]):
                problems.append(f"{path}: {len(got['numbers'])} numbers, were {len(kept['numbers'])}")
            else:
                for k, (a, b) in enumerate(zip(got["numbers"], kept["numbers"])):
                    if isinstance(b, dict):
                        same = isinstance(a, dict) and _close_matrix(a, b)
                    else:
                        same = abs(a - b) <= REL_TOL * abs(b) + ABS_TOL
                    if not same:
                        problems.append(f"{path}: number {k} is {a!r}, was {b!r}")
    return problems


def build(corpus: Corpus) -> None:
    run, load, write = corpus.run, corpus.load, corpus.write

    # eval, and the elements the decompositions below act on
    run("eval-normal-form", "eval", "--expr", "s1* s1 + 0.5*s2 s1*", "--n", "2")
    run("eval-depth", "eval", "--expr", "0.5*(s1 s1* + s2 s2*)", "--n", "2", "--depth", "3",
        "--out", "eval-d3.json")
    run("eval-compose", "eval", "--expr", "s1* s1", "--n", "2", "--depth", "2", "--compose",
        "--out", "eval-compose.json")
    run("eval-syntax-error", "eval", "--expr", "s1 +", "--n", "2")
    run("eval-index-error", "eval", "--expr", "s3", "--n", "2")
    run("eval-negative-imaginary", "eval", "--expr", "(0-2i)*s1", "--n", "2")
    run("a-poly", "eval", "--expr", A_EXPR, "--n", "2", "--out", "a-poly.json")
    for depth in (3, 4, 5, 6):
        run(f"a-d{depth}", "eval", "--expr", A_EXPR, "--n", "2", "--depth", str(depth),
            "--out", f"a-d{depth}.json")
    run("a-positive-d4", "eval", "--expr", POSITIVE_EXPR, "--n", "2", "--depth", "4",
        "--out", "a-positive-d4.json")
    run("a-non-hermitian-d4", "eval", "--expr", "s1 s2* + 0.5*s2", "--n", "2", "--depth", "4",
        "--out", "a-non-hermitian-d4.json")
    run("a-n3-d2", "eval", "--expr", "s1 s2* + s3 + s3*", "--n", "3", "--depth", "2",
        "--out", "a-n3-d2.json")

    # witnesses
    run("gen-standard", "witness-gen", "--standard", "2", "--out", "w-standard.json")
    for depth in (3, 4, 5, 6):
        run(f"gen-standard-d{depth}", "witness-gen", "--standard", "2", "--depth", str(depth),
            "--out", f"w-standard-d{depth}.json")
    run("gen-standard3-d2", "witness-gen", "--standard", "3", "--depth", "2",
        "--out", "w-standard3-d2.json")
    run("gen-toeplitz", "witness-gen", "--toeplitz", "2", "--out", "w-toeplitz.json")
    run("gen-toeplitz-d4", "witness-gen", "--toeplitz", "2", "--depth", "4",
        "--out", "w-toeplitz-d4.json")
    run("gen-candidates", "witness-gen", "--toeplitz-candidates", "2", "--out", "cands-j2.json")
    run("gen-no-family", "witness-gen")
    run("check-standard", "witness-check", "w-standard.json")
    run("check-standard-d3", "witness-check", "w-standard-d3.json")
    run("check-toeplitz", "witness-check", "w-toeplitz.json")
    run("check-toeplitz-d4", "witness-check", "w-toeplitz-d4.json")
    run("check-missing-file", "witness-check", "missing.json")
    run("build-candidates", "witness-build", "--candidates", "cands-j2.json",
        "--out", "w-built-j2.json")
    run("build-toeplitz-3", "witness-build", "--toeplitz", "3", "--out", "w-built-j3.json")
    write("cands-matrix.json",
          {"backend": "matrix", "elements": [load("eval-d3.json"), load("a-d3.json")]})
    run("build-matrix-candidates", "witness-build", "--candidates", "cands-matrix.json")
    run("build-no-source", "witness-build")

    # decompositions, each verified from its report alone
    reports = {
        "neumann": ("a-d4.json", "w-standard-d4.json"),
        "direct": ("a-d5.json", "w-standard-d5.json", "--solver", "direct"),
        "eps": ("a-d4.json", "w-standard-d4.json", "--eps", "1e-4"),
        "positive": ("a-positive-d4.json", "w-standard-d4.json", "--positive"),
        "positive-direct": ("a-positive-d4.json", "w-standard-d4.json", "--positive",
                            "--solver", "direct"),
        "toeplitz": ("a-d4.json", "w-toeplitz.json", "--depth", "4"),
        "toeplitz-positive": ("a-positive-d4.json", "w-toeplitz.json", "--depth", "4",
                              "--positive"),
        "n3": ("a-n3-d2.json", "w-standard3-d2.json"),
        "non-hermitian": ("a-non-hermitian-d4.json", "w-standard-d4.json"),
        "d6": ("a-d6.json", "w-standard-d6.json"),
    }
    for name, (a, w, *flags) in reports.items():
        run(f"decompose-{name}", "decompose", "--a", a, "--witness", w, *flags,
            "--out", f"d-{name}.json")
    for name in reports:
        run(f"verify-{name}", "verify", "--report", f"d-{name}.json", "--out", f"v-{name}.json")

    # the element is read in the witness's basis: refused when both carry
    # different labels, given the witness's labels when it has none
    reversed_labels = load("a-d3.json")
    reversed_labels["labels"].reverse()
    write("a-d3-labels-reversed.json", reversed_labels)
    run("decompose-a-labels-reversed", "decompose", "--a", "a-d3-labels-reversed.json",
        "--witness", "w-standard-d3.json")
    unlabelled_a = load("a-d3.json")
    del unlabelled_a["labels"]
    write("a-d3-unlabelled.json", unlabelled_a)
    unlabelled_w = load("w-standard-d3.json")
    for element in unlabelled_w["elements"]:
        del element["labels"]
    write("w-standard-d3-unlabelled.json", unlabelled_w)
    labelling = {
        "a-unlabelled": ("a-d3-unlabelled.json", "w-standard-d3.json"),
        "witness-unlabelled": ("a-d3.json", "w-standard-d3-unlabelled.json"),
    }
    for name, (a, w) in labelling.items():
        run(f"decompose-{name}", "decompose", "--a", a, "--witness", w,
            "--out", f"d-{name}.json")
        run(f"verify-{name}", "verify", "--report", f"d-{name}.json", "--out", f"v-{name}.json")
    no_report = load("w-standard-d3.json")
    del no_report["report"]
    write("w-no-report.json", no_report)
    run("decompose-no-report", "decompose", "--a", "a-d3.json", "--witness", "w-no-report.json")

    # domain and input errors
    run("decompose-direct-too-large", "decompose", "--a", "a-d6.json",
        "--witness", "w-standard-d6.json", "--solver", "direct")
    run("decompose-symbolic-without-depth", "decompose", "--a", "a-d4.json",
        "--witness", "w-standard.json")
    stale = load("w-standard-d3.json")
    stale["report"]["eta2"] = 0.05
    write("w-stale.json", stale)
    run("decompose-stale-report", "decompose", "--a", "a-d3.json", "--witness", "w-stale.json")
    run("check-stale-report", "witness-check", "w-stale.json")
    stale_symbolic = load("w-toeplitz.json")
    stale_symbolic["report"]["eta2"] = 0.05
    write("w-toeplitz-stale.json", stale_symbolic)
    run("decompose-stale-symbolic", "decompose", "--a", "a-d4.json",
        "--witness", "w-toeplitz-stale.json", "--depth", "4")
    stale["report"]["eta2"] = float("nan")
    write("w-stale-nan.json", stale)
    run("decompose-stale-nan", "decompose", "--a", "a-d3.json", "--witness", "w-stale-nan.json")
    a_nan = load("a-d3.json")
    a_nan["entries"][2][5][1] = float("nan")
    write("a-nan.json", a_nan)
    run("decompose-nan-cell", "decompose", "--a", "a-nan.json", "--witness", "w-standard-d3.json")
    ragged = load("a-d3.json")
    del ragged["entries"][4][-1]
    write("a-ragged.json", ragged)
    run("decompose-ragged-row", "decompose", "--a", "a-ragged.json",
        "--witness", "w-standard-d3.json")
    mu_int = load("w-standard.json")
    mu_int["elements"][0]["terms"][0]["mu"] = 5
    write("w-mu-int.json", mu_int)
    run("check-mu-not-a-string", "witness-check", "w-mu-int.json")

    # JSON values of the wrong type, each an input-error
    def tampered(source, target, path, value):
        data = load(source)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        write(target, data)

    tampered("w-standard.json", "w-report-int.json", ["report"], 5)
    run("check-report-not-an-object", "witness-check", "w-report-int.json")
    tampered("w-standard-d3.json", "w-eta2-null.json", ["report", "eta2"], None)
    run("decompose-eta2-null", "decompose", "--a", "a-d3.json", "--witness", "w-eta2-null.json")
    tampered("w-standard.json", "w-n-list.json", ["elements", 0, "n"], [2])
    run("check-n-not-a-number", "witness-check", "w-n-list.json")
    tampered("w-standard.json", "w-huge-coefficient.json", ["elements", 0, "terms", 0],
             {"mu": "1", "nu": "", "re": 1.5e308, "im": 1.5e308})
    run("check-coefficient-modulus-overflows", "witness-check", "w-huge-coefficient.json")
    unlabelled = load("w-standard-d3.json")
    for element in unlabelled["elements"]:
        del element["labels"]
    unlabelled["degree"] = "1"
    write("w-unlabelled-bad-degree.json", unlabelled)
    run("check-unlabelled-bad-degree", "witness-check", "w-unlabelled-bad-degree.json")
    write("list.json", [load("w-standard.json")])
    run("check-file-a-list", "witness-check", "list.json")
    run("verify-file-a-list", "verify", "--report", "list.json")
    tampered("d-neumann.json", "d-pairs-int.json", ["pairs"], 5)
    run("verify-pairs-not-a-list", "verify", "--report", "d-pairs-int.json")
    tampered("d-neumann.json", "d-pair-int.json", ["pairs", 0], 5)
    run("verify-pair-not-an-object", "verify", "--report", "d-pair-int.json")
    tampered("d-neumann.json", "d-pair-x-int.json", ["pairs", 0, "x"], 5)
    run("verify-pair-element-not-an-object", "verify", "--report", "d-pair-x-int.json")
    tampered("d-neumann.json", "d-pair-x-poly.json", ["pairs", 0, "x"], load("a-poly.json"))
    run("verify-mixed-pair", "verify", "--report", "d-pair-x-poly.json")
    run("verify-symbolic-a", "verify", "--report", "d-neumann.json", "--a", "a-poly.json")
    tampered("a-d3.json", "a-dim-list.json", ["dim"], [15])
    run("decompose-dim-not-a-number", "decompose", "--a", "a-dim-list.json",
        "--witness", "w-standard-d3.json")
    tampered("a-d3.json", "a-labels-int.json", ["labels"], 5)
    run("decompose-labels-not-a-list", "decompose", "--a", "a-labels-int.json",
        "--witness", "w-standard-d3.json")
    tampered("a-d3.json", "a-label-int.json", ["labels", 1], 1)
    run("decompose-label-not-a-string", "decompose", "--a", "a-label-int.json",
        "--witness", "w-standard-d3.json")
    write("family-generators-int.json", {"generators": 5})
    run("dist-generators-not-a-list", "dist", "--family", "family-generators-int.json")

    # distance from 1 to a commutator span
    write("family.json", {"generators": [load("eval-d3.json"), load("a-d3.json")]})
    run("dist", "dist", "--family", "family.json", "--out", "dist.json")
    run("dist-interior", "dist", "--family", "family.json", "--interior-length", "2")

    # non-finite float options are usage errors, a family's elements share one
    # basis, --dim must agree with the generators, and a rank-deficient Gram
    # matrix still gives a distance
    run("decompose-eps-nan", "decompose", "--a", "a-d3.json", "--witness", "w-standard-d3.json",
        "--eps", "nan")
    run("check-tol-inf", "witness-check", "w-standard.json", "--tol", "inf")
    labels_differ = load("w-standard-d3.json")
    labels_differ["elements"][1]["labels"].reverse()
    write("w-labels-differ.json", labels_differ)
    run("check-labels-differ", "witness-check", "w-labels-differ.json")
    write("family-labels-differ.json",
          {"generators": [load("eval-d3.json"), load("a-d3-labels-reversed.json")]})
    run("dist-labels-differ", "dist", "--family", "family-labels-differ.json")
    run("dist-dim-mismatch", "dist", "--family", "family.json", "--dim", "3")
    rng = np.random.default_rng(5)
    generators = []
    for _ in range(4):
        entries = 600.0 * np.stack(
            (rng.standard_normal((2, 2)), rng.standard_normal((2, 2))), axis=-1
        )
        generators.append({"dim": 2, "entries": entries.tolist()})
    write("family-rank-deficient.json", {"generators": generators})
    run("dist-rank-deficient", "dist", "--family", "family-rank-deficient.json")

    # a --eps that is not positive is a usage error, before any file is read
    for name, eps in (("decompose-eps-zero", "--eps=0"), ("decompose-eps-negative", "--eps=-1")):
        run(name, "decompose", "--a", "a-d4.json", "--witness", "w-toeplitz.json",
            "--depth", "4", eps)

    # composed products of partial maps with negative and complex scalars: a
    # signed zero or a last bit that a gather changed shows as a byte change
    composed = {
        "negative": "-(s1 + s2)(s1* - s2*)",
        "complex": "(0-2i)*s1 s2* - s2*",
        "mixed": "(1.5-0.5i)*(s1 s1 + s2)(s2* s1* - 0.25*s1*) - (0+1i)*s2 s2*",
    }
    for name, expr in composed.items():
        run(f"eval-compose-{name}", "eval", "--expr", expr, "--n", "2", "--depth", "3",
            "--compose", "--out", f"eval-compose-{name}.json")

    # an --out file that cannot be opened is an input-error
    run("eval-out-missing-dir", "eval", "--expr", "s1", "--n", "2", "--out", "missing-dir/x.json")

    # the positivity tolerance is relative to the norm: an exactly positive
    # element of norm about 1e8 is decomposed
    run("a-positive-1e8-d5", "eval", "--expr", "100000000*(s1 + s2 s1)(s1* + s1* s2*)",
        "--n", "2", "--depth", "5", "--out", "a-positive-1e8-d5.json")
    run("decompose-positive-1e8", "decompose", "--a", "a-positive-1e8-d5.json",
        "--witness", "w-standard-d5.json", "--positive", "--out", "d-positive-1e8.json")

    # a '1' before '*' at the start of a term is the scalar 1
    run("eval-unit-scalar", "eval", "--expr", "1*s1 - 1*(s2 s1*)", "--n", "2")

    # input errors of the commands' own checks
    run("decompose-symbolic-a", "decompose", "--a", "a-poly.json",
        "--witness", "w-standard-d4.json")
    no_a = load("d-neumann.json")
    del no_a["a"]
    write("d-no-a.json", no_a)
    run("verify-no-a", "verify", "--report", "d-no-a.json")
    run("dist-interior-unlabelled", "dist", "--family", "family-rank-deficient.json",
        "--interior-length", "1")
    tampered("w-standard.json", "w-mu-3.json", ["elements", 0, "terms", 0, "mu"], "3")
    run("check-generator-out-of-range", "witness-check", "w-mu-3.json")

    # a leading scalar multiplies its term, with or without '*'
    run("eval-leading-scalar", "eval", "--expr", "2 s1 - (1+2i) s2 s1*", "--n", "2")

    # a missing key is an input-error that names it
    no_re = load("w-standard.json")
    del no_re["elements"][0]["terms"][0]["re"]
    write("w-term-no-re.json", no_re)
    run("check-term-missing-re", "witness-check", "w-term-no-re.json")
    no_x = load("d-neumann.json")
    del no_x["pairs"][0]["x"]
    write("d-pair-no-x.json", no_x)
    run("verify-pair-missing-x", "verify", "--report", "d-pair-no-x.json")

    # the star sums of a 1.5e308 entry overflow, so eta1 is infinite: an
    # input-error that names the norm
    tampered("w-standard-d3.json", "w-overflow.json", ["elements", 0, "entries", 1, 0],
             [1.5e308, 0.0])
    run("check-overflow", "witness-check", "w-overflow.json")

    # a span generator whose star sums overflow is refused by its index before
    # any LAPACK call, and an empty family needs a --dim of at least 1
    def real_matrix(rows):
        return {"dim": len(rows), "entries": [[[float(x), 0.0] for x in row] for row in rows]}

    overflowing = {
        "diagonal": np.diag([1.5e308, 1.0, 1.0]),
        "dense": [[1e200, -1e200, 0], [1e200, 1e200, 0], [0, 0, 1]],
    }
    for name, rows in overflowing.items():
        write(f"family-overflow-{name}.json", {"generators": [real_matrix(rows)]})
        run(f"dist-overflow-{name}", "dist", "--family", f"family-overflow-{name}.json")
    write("family-empty.json", {"generators": []})
    run("dist-dim-zero", "dist", "--family", "family-empty.json", "--dim", "0")

    # ||a||_F = 1.5e308 is finite though its square is not: the Neumann solve
    # on the depth-2 standard witness stops at K = 3 with tail 0.0
    a_overflow = np.zeros((7, 7))
    a_overflow[0, 0] = 1.5e308
    write("a-overflow-d2.json", real_matrix(a_overflow))
    run("decompose-overflow", "decompose", "--a", "a-overflow-d2.json",
        "--witness", "w-standard.json", "--depth", "2")

    # Fock labels take one digit per letter, so a truncation over 10
    # generators is refused by that rule
    run("gen-standard10-d2", "witness-gen", "--standard", "10", "--depth", "2")

    # candidates whose star sums overflow are refused by name, before inf - inf
    write("cands-overflow.json", {"backend": "matrix", "elements": [
        real_matrix(np.diag([1e200, 1.0, 1.0])), real_matrix(np.eye(3))]})
    run("build-overflow", "witness-build", "--candidates", "cands-overflow.json")

    # entries near 1e100 give a Gram matrix past the float range, formed again
    # from span elements scaled by powers of two: the bracket of g / 1e100
    large = np.zeros((3, 3))
    large[1, 0], large[2, 1] = 1e100, 2e100
    write("family-large-entries.json", {"generators": [real_matrix(large)]})
    run("dist-large-entries", "dist", "--family", "family-large-entries.json")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(args[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(out_dir)
    build(corpus)
    corpus.finish()
    manifest = json.dumps(corpus.manifest(), indent=1) + "\n"
    (out_dir / "manifest.json").write_text(manifest, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
