"""``tools/depth_ladder.py`` runs and prints one JSON line per depth."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "depth_ladder.py"


def test_depth_ladder_prints_one_line_per_depth():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "3", "4"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(row["depth"], row["dim"]) for row in rows] == [(3, 15), (4, 31)]
    for row in rows:
        # the standard witness is nilpotent on the truncation: K = L + 1, tail 0
        assert (row["K"], row["tail"]) == (row["depth"] + 1, 0.0)
        assert row["residual_interior_norm"] <= 1e-12
        for key in ("witness_s", "solve_s", "pairs_s", "verify_s", "peak_rss_mb"):
            assert row[key] > 0
