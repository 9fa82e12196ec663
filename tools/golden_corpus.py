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
  standard ``json`` module.

Two checkouts produce the same CLI bytes when ``diff -r`` of their output
directories is empty. A checkout older than this script can run a copy of
it placed in its own ``tools/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

A_EXPR = "s1 s2* + s2 s1* + 0.5*s1 + 0.5*s1* + 0.25"
POSITIVE_EXPR = "2 + s1 + s1*"


class Corpus:
    """Runs CLI commands in ``out_dir`` and records their exit codes."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.codes: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, name: str, *argv: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "traceless.cli", *argv],
            cwd=self.out_dir,
            env=self.env,
            capture_output=True,
            text=True,
        )
        (self.out_dir / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")
        self.codes.append(f"{name} {proc.returncode}")
        if proc.stderr:
            # stderr holds absolute paths, so it is reported, not kept
            print(f"{name}: exit {proc.returncode}, wrote to stderr", file=sys.stderr)

    def load(self, name: str):
        return json.loads((self.out_dir / name).read_text(encoding="utf-8"))

    def write(self, name: str, data) -> None:
        """Write a derived input file with the standard json module."""
        (self.out_dir / name).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    def finish(self) -> None:
        (self.out_dir / "exit-codes.txt").write_text("\n".join(self.codes) + "\n")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
