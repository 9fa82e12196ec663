"""The four benchmark workloads.

Each is closed loop with one client: the next op starts only after the
previous one has finished and been checked.  A workload draws all of its
inputs from ``numpy.random.default_rng(seed)``, times only ``run`` and checks
every result with a gate from ``oracle`` outside the timed region.  Why each
workload exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import CLI_SUBCOMMANDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

EPS = 1e-10


def child_env(**extra) -> dict:
    """Environment for a child Python that imports the library from this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Workload:
    name = ""
    # a traced run also times the op with single-threaded BLAS
    blas1_reference = False

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Everything before the first timed op: witness realization, oracle state."""

    def next_input(self):
        raise NotImplementedError

    def run(self, inp):
        """The timed op."""
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def traced_op(self, inp, tracer, op_id):
        """Run the op once untraced and once traced.

        Returns (output, untraced s, traced s, wall s of the op the spans cover)."""
        out, untraced, traced = untraced_and_traced(lambda: self.run(inp), tracer, op_id)
        return out, untraced, traced, traced

    def peak_rss_kb(self) -> int:
        """Peak resident set size of the process that does the op."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def external_metrics(self) -> dict[str, float]:
        """Per-layer values measured outside the spans during a traced run."""
        return {}

    def close(self):
        """Release what set-up created."""


def untraced_and_traced(call, tracer, op_id):
    """(result, untraced s, traced s) of two calls, one of them with spans for ``op_id``.

    The order alternates with ``op_id`` so that neither side always runs first."""
    times = {}
    for traced in (False, True) if op_id % 2 == 0 else (True, False):
        with tracer.active(op_id) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            out = call()
            times[traced] = time.perf_counter() - start
    return out, times[False], times[True]


def _random_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class SolveStandard(Workload):
    name = "solve-standard"
    DEPTH = 8
    blas1_reference = True

    def setup(self):
        self.witness = self.lib.witness.standard_isometry_witness(2, depth=self.DEPTH)
        self.labels = self.witness.elements[0].basis_labels
        self.s_star = oracle.sum_star([b.entries for b in self.witness.elements])

    def next_input(self):
        g = _random_complex(self.rng, len(self.labels))
        a = (g + g.conj().T) / 2
        # unit norm fixes the a-priori Neumann iteration count across seeds
        return self.lib.Operator(a / oracle.norm2(a), self.labels)

    def run(self, a):
        result = self.lib.decompose.decompose_element(a, self.witness, eps=EPS)
        self.lib.decompose.verify_decomposition(
            a, result.pairs, interior_mask=self.witness.interior_mask
        )
        return result

    def check(self, a, result):
        pairs = [(p.x.entries, p.y.entries) for p in result.pairs]
        return oracle.standard_gate(
            a.entries, pairs, result.psi_a.entries, self.s_star, result.solver.tail_bound
        )


class SolveToeplitzPositive(Workload):
    name = "solve-toeplitz-positive"
    J = 2
    DEPTH = 7

    def setup(self):
        w = self.lib.witness
        symbolic = w.build_witness(w.toeplitz_candidate_family(self.J))
        self.witness = w.evaluate_witness(symbolic, self.DEPTH)
        self.labels = self.witness.elements[0].basis_labels
        self.s_star = oracle.sum_star([b.entries for b in self.witness.elements])

    def next_input(self):
        d = len(self.labels)
        g = _random_complex(self.rng, d)
        return self.lib.Operator(g @ g.conj().T / d, self.labels)

    def run(self, a):
        result = self.lib.decompose.decompose_positive(a, self.witness, eps=EPS)
        self.lib.decompose.verify_decomposition(
            a, result.pairs, interior_mask=self.witness.interior_mask
        )
        return result

    def check(self, a, result):
        # The interior residual is not gated: with self-adjoint pairs it is
        # about 0.3 at d = 255 by construction (README.md).
        pairs = [(p.x.entries, p.y.entries) for p in result.pairs]
        return oracle.positive_gate(
            a.entries, pairs, result.psi_a.entries, self.s_star, result.solver.tail_bound
        )


class Obstruction(Workload):
    name = "obstruction"
    J = 64
    GENERATORS = 4
    DEPTH = 6
    INTERIOR_LENGTH = 5
    POLISH = 200

    def setup(self):
        cuntz = self.lib.cuntz
        trunc = cuntz.fock_truncation(2, self.DEPTH)
        self.dim = trunc.dimension
        self.candidates = [
            cuntz.evaluate(a, trunc) for a in self.lib.witness.toeplitz_candidate_family(2)
        ]
        self.mask = cuntz.interior_projection(trunc, self.INTERIOR_LENGTH)
        self.keep = np.array([k for k, w in enumerate(trunc.words) if len(w) <= self.INTERIOR_LENGTH])

    def next_input(self):
        return [
            self.lib.Operator(_random_complex(self.rng, self.dim)) for _ in range(self.GENERATORS)
        ]

    def run(self, generators):
        w, td = self.lib.witness, self.lib.tracedist
        family = w.toeplitz_candidate_family(self.J)
        stats = w.candidate_stats(family)
        built = w.build_witness(family)
        checked = w.check_witness_symbolic(built.elements, depth=self.DEPTH)
        full = td.commutator_distance(td.commutator_span_family(generators), polish_steps=self.POLISH)
        interior = td.commutator_distance(
            td.commutator_span_family(self.candidates),
            polish_steps=self.POLISH,
            interior_mask=self.mask,
        )
        return stats, built, checked, full, interior

    def check(self, generators, out):
        stats, built, checked, full, interior = out
        full_span = [oracle.self_commutator(g.entries) for g in generators]
        inner = np.ix_(self.keep, self.keep)
        interior_span = [oracle.self_commutator(a.entries)[inner] for a in self.candidates]
        return oracle.obstruction_gate(
            self.J,
            stats.t0,
            stats.k,
            (built.report.eta2, checked.report.eta2),
            (built.report.valid, checked.report.valid),
            (full_span, full.coefficients, full.opnorm_residual),
            (interior_span, interior.coefficients, interior.opnorm_residual),
        )


class CliSession(Workload):
    name = "cli-session"
    N = 2
    DEPTH = 6
    STARTUP_REPEATS = 3
    child_rss_kb = 0

    def setup(self):
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.env = child_env()
        self.walls: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
        self.artifact_bytes: list[int] = []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def next_input(self):
        """A random polynomial in s1, s2: 3-5 terms of 1-3 factors, some adjoint,
        as (coefficient, [(generator, adjoint), ...]) pairs."""
        terms = []
        for t in range(int(self.rng.integers(3, 6))):
            re = round(float(self.rng.uniform(0.1, 2.0)), 2)
            im = round(float(self.rng.uniform(-2.0, 2.0)), 2)
            sign = 1 if t == 0 else int(self.rng.choice((-1, 1)))
            # the first term has no adjoints, so the normal form cannot vanish
            factors = [
                (int(self.rng.integers(1, 3)), bool(t and self.rng.integers(0, 2)))
                for _ in range(int(self.rng.integers(1, 4)))
            ]
            terms.append((sign * complex(re, im), factors))
        return terms

    @staticmethod
    def expression(terms) -> str:
        parts = []
        for coef, factors in terms:
            # the grammar takes a sign before a term and a non-negative real part
            sign = 1 if coef.real > 0 else -1
            c = sign * coef
            word = " ".join(f"s{i}*" if adj else f"s{i}" for i, adj in factors)
            parts.append(f"{'+' if sign > 0 else '-'} ({c.real}{c.imag:+}i)*{word}")
        return " ".join(parts)

    def commands(self, terms, where: Path) -> list[tuple[str, list[str], int]]:
        """(subcommand, argv, expected exit code) of one session."""
        a, w, d = (str(where / f) for f in ("a.json", "w.json", "d.json"))
        depth, n = str(self.DEPTH), str(self.N)
        return [
            ("eval", ["eval", "--expr", self.expression(terms), "--n", n, "--depth", depth,
                      "--out", a], 0),
            ("witness-gen", ["witness-gen", "--standard", n, "--depth", depth, "--out", w], 0),
            # the truncated witness is invalid at the boundary by design
            ("witness-check", ["witness-check", w], 2),
            ("decompose", ["decompose", "--a", a, "--witness", w, "--eps", str(EPS), "--out", d],
             0),
            ("verify", ["verify", "--report", d], 0),
        ]

    def run(self, terms):
        walls, failures = {}, []
        for sub, argv, expected in self.commands(terms, self.dir):
            with open(self.dir / f"{sub}.out", "wb") as stdout:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "traceless.cli", *argv],
                    stdout=stdout, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
                )
                # wait4 gives this child's own peak RSS, which RUSAGE_CHILDREN
                # would mix with every other child this process has waited for
                _, status, usage = os.wait4(proc.pid, 0)
                walls[sub] = time.perf_counter() - start
                code = proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            if code != expected:
                failures.append(f"{sub} exited {code}, expected {expected}")
        return walls, failures

    def result_of(self, sub: str) -> dict:
        """The ``result`` block a subcommand printed in the last session."""
        with open(self.dir / f"{sub}.out", encoding="utf-8") as handle:
            return json.load(handle)["result"]

    def check(self, terms, out):
        _walls, failures = out
        if failures:
            return "; ".join(failures)
        with open(self.dir / "a.json", encoding="utf-8") as handle:
            a = json.load(handle)
        reason = oracle.eval_gate(oracle.matrix_from_json(a), a["labels"], terms, self.N)
        if reason:
            return reason
        with open(self.dir / "d.json", encoding="utf-8") as handle:
            decomposition = json.load(handle)
        return oracle.cli_gate(
            self.result_of("witness-check"), decomposition, self.result_of("verify"), EPS
        )

    def replay(self, terms, where: Path):
        """The same session in this process, through traceless.cli.main."""
        main = self.lib.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            for _sub, argv, _expected in self.commands(terms, where):
                main(argv)

    def traced_op(self, inp, tracer, op_id):
        out = self.run(inp)
        for sub, wall in out[0].items():
            self.walls[sub].append(wall)
        self.artifact_bytes.append(
            sum((self.dir / f).stat().st_size for f in ("a.json", "w.json", "d.json"))
        )
        where = self.dir / "replay"
        where.mkdir(exist_ok=True)
        _, untraced, traced = untraced_and_traced(lambda: self.replay(inp, where), tracer, op_id)
        return out, untraced, traced, sum(out[0].values())

    def peak_rss_kb(self) -> int:
        """Peak RSS of the largest CLI child."""
        return self.child_rss_kb

    def external_metrics(self):
        startup = []
        for _ in range(self.STARTUP_REPEATS):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "traceless.cli", "--version"],
                stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT, check=True,
            )
            startup.append(time.perf_counter() - start)
        out = {f"cli.{sub}.s": float(np.mean(w)) for sub, w in self.walls.items() if w}
        out["serialization.bytes"] = float(np.mean(self.artifact_bytes))
        out["cli.startup.s"] = float(np.median(startup))
        return out


WORKLOADS = {w.name: w for w in (CliSession, SolveStandard, SolveToeplitzPositive, Obstruction)}
