"""Time the standard-witness pipeline over a ladder of Fock depths.

    python3 tools/depth_ladder.py [DEPTH ...]    (default: 5 6 7 8 9 10)

Each depth runs in its own Python process, so that its peak memory is its
own, with the package taken from the ``src/`` next to this script. The
process realizes the standard witness s_i / sqrt(2) on n = 2 generators at
that depth (d = 2^(L+1) - 1), draws a random Hermitian ``a`` with
||a|| = 1 from ``numpy.random.default_rng(L)`` and times four steps:

- ``witness_s``: ``standard_isometry_witness(2, depth=L)``, its check included;
- ``solve_s``: ``solve_psi_neumann(a, witness, eps=1e-10)``;
- ``pairs_s``: ``decompose_element(a, witness, psi=psi)``;
- ``verify_s``: ``verify_decomposition`` on the witness's interior.

It prints one JSON line per depth with those times, the Neumann count
``K`` and tail, both residual norms and ``peak_rss_mb``, the process's
peak resident set size.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_DEPTHS = (5, 6, 7, 8, 9, 10)
EPS = 1e-10


def measure(depth: int) -> dict:
    """The four timed steps at one depth, in this process."""
    import numpy as np

    from traceless import Operator, decompose_element, solve_psi_neumann, verify_decomposition
    from traceless.witness import standard_isometry_witness

    clock = time.perf_counter
    start = clock()
    witness = standard_isometry_witness(2, depth=depth)
    witness_s = clock() - start
    labels = witness.elements[0].basis_labels
    rng = np.random.default_rng(depth)
    g = rng.standard_normal((len(labels),) * 2) + 1j * rng.standard_normal((len(labels),) * 2)
    h = (g + g.conj().T) / 2
    a = Operator(h / np.linalg.norm(h, 2), labels)
    del g, h
    start = clock()
    psi, iterations, tail = solve_psi_neumann(a, witness, eps=EPS)
    solve_s = clock() - start
    start = clock()
    result = decompose_element(a, witness, psi=psi)
    pairs_s = clock() - start
    start = clock()
    report = verify_decomposition(a, result.pairs, witness.interior_mask)
    verify_s = clock() - start
    return {
        "depth": depth,
        "dim": a.dim,
        "witness_s": witness_s,
        "solve_s": solve_s,
        "pairs_s": pairs_s,
        "verify_s": verify_s,
        "K": iterations,
        "tail": tail,
        "residual_norm": report.residual_norm,
        "residual_interior_norm": report.residual_interior_norm,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--one"]:
        print(json.dumps(measure(int(args[1]))))
        return 0
    try:
        depths = [int(text) for text in args] or list(DEFAULT_DEPTHS)
    except ValueError:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for depth in depths:
        proc = subprocess.run(
            [sys.executable, __file__, "--one", str(depth)],
            env=env, stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"depth {depth}: exit {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
