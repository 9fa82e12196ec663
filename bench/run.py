"""Benchmark of the traceless toolkit: four closed-loop workloads.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload solve-standard --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload solve-standard --seed 1 --seconds 10 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table and
the environment record go to standard error.  Every workload, untraced and
traced, into one result file:

    python3 bench/run.py --all --seed 1 --seconds 10 --out .bench_out/results-1.json

The library is imported from ``src/`` of the checkout this file sits in; the
run fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracing import PER_LAYER, SETUP, Tracer, layer_metrics
from workloads import OUT, ROOT, SRC, WORKLOADS, child_env

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_MIN = 7
SETUP_SECONDS = 6.0
MIN_OPS = 3
MIN_TRACED_OPS = 2
BLAS1 = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    """Import traceless from this checkout's src/, never from elsewhere."""
    if not (SRC / "traceless" / "__init__.py").is_file():
        raise BenchmarkError(f"no library source at {SRC / 'traceless'}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("traceless")
    if not os.path.realpath(lib.__file__).startswith(os.path.realpath(SRC)):
        raise BenchmarkError(f"traceless imported from {lib.__file__}, not {SRC}")
    for name in ("cli", "serialization", "cuntz", "witness", "decompose", "linalg", "tracedist"):
        importlib.import_module(f"traceless.{name}")
    return lib


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup_sample(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports the library and sets the workload up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        check=True, env=child_env(), cwd=ROOT,
    )
    return time.perf_counter() - start


class Tally:
    """Attempted and failed ops; a failure's reason goes to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, reason):
        if reason:
            self.failed += 1
            print(f"op {self.attempted} failed: {reason}", file=sys.stderr)
        self.attempted += 1


def _attempt(workload, tally, step):
    """Run one op through ``step``; count and report it if it raises or fails its gate."""
    inp = workload.next_input()
    try:
        out = step(inp)
        reason = workload.check(inp, out[0])
    except Exception:  # an op that raises is a failed op, and the loop goes on
        reason = traceback.format_exc()
    tally.record(reason)


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced closed loop: ops until ``seconds`` of timed op wall time.

    One checked but untimed op first lets lazy initialisation (BLAS threads,
    LAPACK workspaces) finish before timing.  Set-up samples are taken
    between ops, in step with the timed wall time, so that they see the
    machine in the same minutes as the ops do; at least ``SETUP_MIN`` of them
    and ``SETUP_SECONDS`` in all."""
    walls, cpus, setups = [], [], []
    _attempt(workload, tally, lambda inp: (workload.run(inp),))
    deadline = time.perf_counter() + 2 * seconds + 30

    def step(inp):
        cpu, start = cpu_seconds(), time.perf_counter()
        out = workload.run(inp)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu)
        return (out,)

    while (sum(walls) < seconds or len(walls) < MIN_OPS) and time.perf_counter() < deadline:
        _attempt(workload, tally, step)
        while sum(setups) < SETUP_SECONDS * min(1.0, sum(walls) / seconds):
            setups.append(setup_sample(workload.name, seed))
    if not walls:
        raise BenchmarkError("no op completed")
    while len(setups) < SETUP_MIN or sum(setups) < SETUP_SECONDS:
        setups.append(setup_sample(workload.name, seed))
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": statistics.median(cpus),
        "peak_rss_mb": workload.peak_rss_kb() / 1024,
    }


def measure_traced(workload, tracer, seconds: float, tally: Tally) -> dict:
    """Traced closed loop for ``seconds``: each op runs once untraced and once traced."""
    untraced, traced, walls = [], [], []
    start = time.perf_counter()

    def step(inp):
        out = workload.traced_op(inp, tracer, tally.attempted)
        untraced.append(out[1])
        traced.append(out[2])
        walls.append(out[3])
        return out

    while time.perf_counter() - start < seconds or tally.attempted < MIN_TRACED_OPS:
        _attempt(workload, tally, step)
    if not walls:
        raise BenchmarkError("no traced op completed")
    external = workload.external_metrics()
    external["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return layer_metrics(tracer.spans, tracer.counters, len(walls), sum(walls), external)


def blas1_reference(name: str, seed: int, seconds: int) -> float:
    """op_s_p50 of an untraced child run with single-threaded BLAS."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, env=child_env(**BLAS1), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["op_s_p50"]["value"]


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    lib = load_library()
    workload = WORKLOADS[name](lib, seed)
    tally = Tally()
    if traced:
        tracer = Tracer(lib)
        with tracer.active(SETUP):
            workload.setup()
    else:
        workload.setup()
    try:
        if traced:
            values = measure_traced(workload, tracer, seconds, tally)
            if workload.blas1_reference:
                values["ref.blas1.op_s_p50"] = blas1_reference(name, seed, seconds)
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"spans-{name}-{seed}.jsonl"))
            units = dict(PER_LAYER)
        else:
            values = measure(workload, seed, seconds, tally)
            units = dict(END_TO_END)
    finally:
        workload.close()
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }


def table(name: str, result: dict) -> str:
    lines = [f"{name}: {result['attempted']} ops attempted, {result['failed']} failed"]
    rows = dict(result["metrics"])
    if "op_s_p50" in rows:
        rows["ops_failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "frac"}
    for key, metric in rows.items():
        lines.append(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
    return "\n".join(lines)


def run_all(seed: int, seconds: int, out: str) -> int:
    """Every workload untraced and traced, each in a fresh process, into one file."""
    results = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                code = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results["workloads"].setdefault(name, {})[f"trace{trace}"] = result
            print(table(f"{name} (trace {trace})", result))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {out}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload into --out")
    parser.add_argument("--out", default=str(OUT / "results.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.out)
        if args.workload is None:
            parser.error("--workload or --all is required")
        if args.setup_only:
            workload = WORKLOADS[args.workload](load_library(), args.seed)
            workload.setup()
            workload.close()
            return 0
        print(json.dumps({"environment": environment()}, default=str), file=sys.stderr)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(table(args.workload, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
