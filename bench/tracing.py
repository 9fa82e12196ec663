"""Span tracing from outside the library, and the per-layer metrics built from it.

``Tracer.install`` replaces every public function of the traced modules,
wherever a ``traceless.*`` namespace binds it (``from .linalg import
op_norm`` gives ``op_norm`` several bindings), with a wrapper that records a
span: name, start, end, parent span and op id.  Spans stay in memory until
the run ends.  Nothing is wrapped unless ``install`` is called, so untraced
runs measure the unmodified library.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types

TRACED_MODULES = ("cli", "serialization", "cuntz", "witness", "decompose", "linalg", "tracedist")

SETUP = "setup"

# Counters taken from return values at the span boundary: function -> (stat, extractor).
RESULT_COUNTERS = {
    "decompose.solve_psi_neumann": ("iterations", lambda result: result[1]),
}

# Every per-layer metric, in BENCHMARK.json order, with its unit.  A workload
# that never calls a layer reports 0 for it.
PER_LAYER = (
    ("cli.startup.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.witness-gen.s", "s"),
    ("cli.witness-check.s", "s"),
    ("cli.decompose.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.main.s", "s"),
    ("serialization.encode.s", "s"),
    ("serialization.decode.s", "s"),
    ("serialization.bytes", "bytes"),
    ("cuntz.parse_star_poly.s", "s"),
    ("cuntz.fock_truncation.s", "s"),
    ("cuntz.fock_truncation.calls", "count"),
    ("cuntz.truncated_isometries.s", "s"),
    ("cuntz.evaluate.s", "s"),
    ("cuntz.evaluate.calls", "count"),
    ("cuntz.multiply.s", "s"),
    ("cuntz.multiply.calls", "count"),
    ("cuntz.symbolic_norm.s", "s"),
    ("witness.check_witness.s", "s"),
    ("witness.check_witness.calls", "count"),
    ("witness.evaluate_witness.s", "s"),
    ("witness.standard_isometry_witness.s", "s"),
    ("witness.build_witness.s", "s"),
    ("witness.candidate_stats.s", "s"),
    ("witness.check_witness_symbolic.s", "s"),
    ("decompose.apply_phi.s", "s"),
    ("decompose.apply_phi.calls", "count"),
    ("decompose.solve_psi_neumann.s", "s"),
    ("decompose.solve_psi_neumann.iterations", "count"),
    ("decompose.decompose_element.s", "s"),
    ("decompose.decompose_positive.s", "s"),
    ("decompose.verify_decomposition.s", "s"),
    ("linalg.op_norm.s", "s"),
    ("linalg.op_norm.calls", "count"),
    ("linalg.positivity_check.s", "s"),
    ("linalg.psd_sqrt.s", "s"),
    ("tracedist.commutator_distance.s", "s"),
    ("tracedist.commutator_span_family.s", "s"),
    ("share.apply_phi", "frac"),
    ("share.serialization_startup", "frac"),
    ("share.tracedist_cuntz", "frac"),
    ("trace.overhead_frac", "frac"),
    ("ref.blas1.op_s_p50", "s"),
)

CLI_SUBCOMMANDS = ("eval", "witness-gen", "witness-check", "decompose", "verify")


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of that interval
    covered by its direct children.  ``spans`` are (name, start, end,
    parent, op) tuples; ``parent`` is an index into ``spans`` or -1."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans around the public functions of the traced modules."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.spans: list = []
        self.counters: dict[tuple[str, object], float] = {}
        self.op: object = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                self.count(f"{name}.{counter[0]}", counter[1](result))
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package.__name__}.{short}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package.__name__ or mod_name.startswith(self.package.__name__ + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def active(self, op):
        """Record spans for ``op`` inside the block."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def count(self, stat: str, value: float):
        key = (stat, self.op)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def dump(self, path: str):
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _in_group(name: str, group: str) -> bool:
    module, _, function = name.partition(".")
    if group == "serialization.encode":
        return module == "serialization" and (function == "dumps" or function.endswith("_to_json"))
    if group == "serialization.decode":
        return module == "serialization" and function.endswith("_from_json")
    return name == group


def layer_metrics(
    spans, counters, n_ops: int, op_wall_s: float, external: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics from the spans of one set-up and ``n_ops`` >= 1 traced ops.

    ``.s`` is self time and ``.calls`` the call count, each summed over the
    set-up plus averaged over the ops.  ``share.*`` divide self time inside
    the ops by ``op_wall_s``, the summed wall time of those ops.
    ``external`` holds values measured outside the spans (CLI subprocess
    walls, artifact bytes, overhead, references) and overrides any name
    computed here.
    """
    setup: dict[str, list] = {}
    ops: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        acc = (setup if span[4] == SETUP else ops).setdefault(span[0], [0.0, 0])
        acc[0] += own
        acc[1] += 1

    def total(table, group, stat):
        return sum(value[stat] for name, value in table.items() if _in_group(name, group))

    def per_op(group, stat):
        return total(setup, group, stat) + total(ops, group, stat) / n_ops

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        stem, _, stat = metric.rpartition(".")
        out[metric] = per_op(stem, 0) if stat == "s" else per_op(stem, 1) if stat == "calls" else 0.0
    for (stat, op), value in counters.items():
        out[stat] = out.get(stat, 0.0) + (value if op == SETUP else value / n_ops)
    out["share.apply_phi"] = total(ops, "decompose.apply_phi", 0) / op_wall_s
    out["share.tracedist_cuntz"] = (
        sum(v[0] for name, v in ops.items() if name.startswith(("tracedist.", "cuntz.")))
        / op_wall_s
    )
    # every CLI subcommand of an op pays the interpreter and import start-up once
    startup = external.get("cli.startup.s", 0.0) * len(CLI_SUBCOMMANDS) * n_ops
    serial = total(ops, "serialization.encode", 0) + total(ops, "serialization.decode", 0)
    out["share.serialization_startup"] = (startup + serial) / op_wall_s
    out.update(external)
    return out
