"""Self-tests of the benchmark: span arithmetic, tracing, correctness gates,
seeded inputs and the contract file."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads
from workloads import ROOT, WORKLOADS


# --- self time -------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_count_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, 0), ("c1", 1.0, 5.0, 0, 0), ("c2", 3.0, 12.0, 0, 0)]
    # the children cover [1, 10] of the parent's interval
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_separate_setup_from_per_op_averages():
    spans = [
        ("witness.check_witness", 0.0, 2.0, -1, tracing.SETUP),
        ("linalg.op_norm", 0.5, 1.0, 0, tracing.SETUP),
        ("decompose.apply_phi", 10.0, 11.0, -1, 0),
        ("decompose.apply_phi", 20.0, 23.0, -1, 1),
        ("serialization.dumps", 30.0, 31.0, -1, 1),
        ("serialization.matrix_from_json", 31.0, 31.5, -1, 1),
    ]
    iterations = "decompose.solve_psi_neumann.iterations"
    counters = {(iterations, 0): 4, (iterations, 1): 6}
    m = tracing.layer_metrics(spans, counters, 2, 10.0, {"cli.eval.s": 0.25})
    assert m["witness.check_witness.s"] == pytest.approx(1.5)
    assert m["linalg.op_norm.s"] == pytest.approx(0.5)
    assert m["linalg.op_norm.calls"] == 1
    assert m["decompose.apply_phi.s"] == pytest.approx(2.0)
    assert m["decompose.apply_phi.calls"] == 1
    assert m[iterations] == 5
    assert m["serialization.encode.s"] == pytest.approx(0.5)
    assert m["serialization.decode.s"] == pytest.approx(0.25)
    assert m["share.apply_phi"] == pytest.approx(0.4)
    assert m["cli.eval.s"] == 0.25
    assert m["tracedist.commutator_distance.s"] == 0.0
    assert set(m) == {name for name, _unit in tracing.PER_LAYER}


def test_tracer_wraps_every_binding_and_uninstalls(lib):
    originals = (lib.op_norm, lib.linalg.op_norm, lib.decompose.op_norm)
    tracer = tracing.Tracer(lib)
    tracer.op = 7
    tracer.install()
    try:
        assert lib.op_norm is not originals[0] and lib.decompose.op_norm is not originals[2]
        lib.op_norm(np.eye(2))
        lib.decompose.op_norm(np.eye(2))
    finally:
        tracer.uninstall()
    assert (lib.op_norm, lib.linalg.op_norm, lib.decompose.op_norm) == originals
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("linalg.op_norm", -1, 7)] * 2


def test_tracer_nests_spans_and_counts_iterations(lib):
    witness = lib.standard_isometry_witness(2, depth=3)
    a = lib.Operator(np.eye(witness.elements[0].dim), witness.elements[0].basis_labels)
    tracer = tracing.Tracer(lib)
    tracer.op = 0
    tracer.install()
    try:
        _psi, iterations, _tail = lib.decompose.solve_psi_neumann(a, witness)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("decompose.apply_phi") == iterations
    root = names.index("decompose.solve_psi_neumann")
    assert all(s[3] == root for s in tracer.spans if s[0] == "decompose.apply_phi")
    assert tracer.counters[("decompose.solve_psi_neumann.iterations", 0)] == iterations


# --- correctness gates -----------------------------------------------------


def _perturbed(pairs, scale=1e-6):
    rng = np.random.default_rng(0)
    (x, y), rest = pairs[0], pairs[1:]
    return [(x, y + scale * rng.standard_normal(y.shape))] + rest


def test_standard_gate_accepts_result_and_rejects_perturbed_pair(lib):
    witness = lib.standard_isometry_witness(2, depth=4)
    d = witness.elements[0].dim
    g = np.random.default_rng(1).standard_normal((d, d))
    a = lib.Operator(g + g.T, witness.elements[0].basis_labels)
    result = lib.decompose_element(a, witness)
    s_star = oracle.sum_star([b.entries for b in witness.elements])
    pairs = [(p.x.entries, p.y.entries) for p in result.pairs]
    args = (result.psi_a.entries, s_star, result.solver.tail_bound)
    assert oracle.standard_gate(a.entries, pairs, *args) is None
    assert oracle.standard_gate(a.entries, _perturbed(pairs), *args) is not None


def test_positive_gate_rejects_perturbed_pair_and_non_hermitian_psi(lib):
    w = lib.witness
    witness = w.evaluate_witness(w.build_witness(w.toeplitz_candidate_family(2)), 5)
    d = witness.elements[0].dim
    g = np.random.default_rng(2).standard_normal((d, d))
    a = lib.Operator(g @ g.T / d, witness.elements[0].basis_labels)
    result = lib.decompose_positive(a, witness)
    s_star = oracle.sum_star([b.entries for b in witness.elements])
    pairs = [(p.x.entries, p.y.entries) for p in result.pairs]
    psi, tail = result.psi_a.entries, result.solver.tail_bound
    assert oracle.positive_gate(a.entries, pairs, psi, s_star, tail) is None
    assert "Hermitian" in oracle.positive_gate(a.entries, _perturbed(pairs), psi, s_star, tail)
    x, y = pairs[0]
    scaled = [(x, 1.001 * y)] + pairs[1:]
    assert "identity" in oracle.positive_gate(a.entries, scaled, psi, s_star, tail)
    shifted = psi - (np.linalg.eigvalsh(psi)[0] + 1e-6) * np.eye(d)
    assert "eigenvalue" in oracle.positive_gate(a.entries, pairs, shifted, s_star, tail)


def _obstruction_parts(lib):
    rng = np.random.default_rng(3)
    gens = [lib.Operator(rng.standard_normal((6, 6))) for _ in range(2)]
    est = lib.tracedist.commutator_distance(lib.tracedist.commutator_span_family(gens), 20)
    span = [oracle.self_commutator(g.entries) for g in gens]
    full = (span, est.coefficients, est.opnorm_residual)
    interior = ([np.eye(3) * 1e-3], (1.0,), 1.0 - 1e-3)
    return full, interior


def test_obstruction_gate_rejects_wrong_eta2_and_wrong_t0(lib):
    full, interior = _obstruction_parts(lib)
    k, t0 = 3.0, 1 / 64
    good_eta2 = (k - 1 + t0) / k
    assert oracle.obstruction_gate(64, t0, k, (good_eta2,), (True,), full, interior) is None
    assert "eta2" in oracle.obstruction_gate(64, t0, k, (good_eta2 + 1e-6,), (True,), full, interior)
    assert "t0" in oracle.obstruction_gate(64, 1 / 63, k, (good_eta2,), (True,), full, interior)
    assert "valid" in oracle.obstruction_gate(64, t0, k, (good_eta2,), (False,), full, interior)
    span, coeffs, reported = full
    assert "recomputed" in oracle.obstruction_gate(
        64, t0, k, (good_eta2,), (True,), (span, coeffs, reported - 1e-3), interior
    )
    assert "not below 1" in oracle.obstruction_gate(
        64, t0, k, (good_eta2,), (True,), full, ([np.zeros((3, 3))], (0.0,), 1.0)
    )


def _cli_artifacts(lib, where):
    """Run one real CLI session of the cli-session workload at depth 3."""
    workload = WORKLOADS["cli-session"](lib, 5)
    workload.DEPTH = 3
    workload.dir = where
    workload.env = workloads.child_env()
    terms = workload.next_input()
    walls, failures = workload.run(terms)
    assert not failures and set(walls) == set(tracing.CLI_SUBCOMMANDS)
    assert workload.peak_rss_kb() > 0
    return workload, terms


def test_cli_gates_accept_session_and_reject_corruption(lib, tmp_path):
    workload, terms = _cli_artifacts(lib, tmp_path)
    assert workload.check(terms, ({}, [])) is None
    check = workload.result_of("witness-check")
    verification = workload.result_of("verify")
    decomposition = json.loads((tmp_path / "d.json").read_text())
    assert oracle.cli_gate(check, decomposition, verification, 1e-10) is None

    wrong_eta2 = json.loads(json.dumps(check))
    wrong_eta2["report"]["eta2"] = 0.25
    assert "eta2" in oracle.cli_gate(wrong_eta2, decomposition, verification, 1e-10)

    wrong_verify = dict(verification, residual_norm=verification["residual_norm"] + 1e-3)
    assert "verify" in oracle.cli_gate(check, decomposition, wrong_verify, 1e-10)

    corrupted = json.loads(json.dumps(decomposition))
    corrupted["pairs"][0]["y"]["entries"][0][0][0] += 1e-3
    assert oracle.cli_gate(check, corrupted, verification, 1e-10) is not None

    a = json.loads((tmp_path / "a.json").read_text())
    matrix = oracle.matrix_from_json(a)
    assert oracle.eval_gate(matrix, a["labels"], terms, 2) is None
    matrix[0, 0] += 1e-3
    assert oracle.eval_gate(matrix, a["labels"], terms, 2) is not None


def test_cli_session_fails_on_unexpected_exit_code(lib, tmp_path):
    workload, terms = _cli_artifacts(lib, tmp_path)
    assert "exited" in workload.check(terms, ({}, ["decompose exited 1, expected 0"]))


# --- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", ["solve-standard", "solve-toeplitz-positive", "obstruction"])
def test_seed_changes_inputs_but_not_sizes_or_work(lib, name):
    made = []
    for seed in (1, 2):
        workload = WORKLOADS[name](lib, seed)
        workload.setup()
        inp = workload.next_input()
        made.append([x.entries for x in (inp if isinstance(inp, list) else [inp])])
        workload.close()
    assert [m.shape for m in made[0]] == [m.shape for m in made[1]]
    assert not any(np.array_equal(x, y) for x, y in zip(*made))


def test_seed_keeps_neumann_iteration_count(lib):
    counts = []
    for seed in (1, 2):
        workload = WORKLOADS["solve-standard"](lib, seed)
        workload.setup()
        a = workload.next_input()
        psi, iterations, _tail = lib.decompose.solve_psi_neumann(a, workload.witness)
        counts.append(iterations)
    assert counts[0] == counts[1]


def test_cli_session_seed_changes_expression_but_not_commands(lib, tmp_path):
    sessions = []
    for seed in (1, 2):
        workload = WORKLOADS["cli-session"](lib, seed)
        terms = workload.next_input()
        sessions.append((workload.expression(terms), workload.commands(terms, tmp_path)))
    assert sessions[0][0] != sessions[1][0]
    assert [c[0] for c in sessions[0][1]] == [c[0] for c in sessions[1][1]] == list(
        tracing.CLI_SUBCOMMANDS
    )


def test_same_seed_gives_same_inputs(lib):
    a, b = (WORKLOADS["cli-session"](lib, 9).next_input() for _ in range(2))
    assert a == b


# --- contract --------------------------------------------------------------


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_fails_without_printing_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "obstruction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
