"""Compare benchmark result files of two commits, metric by metric and workload by workload.

    python3 bench/compare.py --base base-*.json --new new-*.json

Each file is one ``run.py --all`` result.  For every workload and end-to-end
metric the table gives the median and quartile spread of each side, the
change of the medians (positive = worse, by the metric's ``better``) and a
verdict against the bound in BENCHMARK.json:

* ``worse``: the new median is worse than the base median by more than the bound;
* ``unresolved``: the base's own spread is wider than the bound and not every
  new run beats every base run;
* ``ok``: neither.

Per-layer metrics from the traced runs follow, with medians only: they have
no bound.  Exits 1 when any end-to-end pairing is ``worse`` or an op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(paths) -> dict:
    """(workload, trace key) -> {metric: [values]}, plus failed op counts."""
    values: dict = {}
    failed: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for name, runs in data["workloads"].items():
            for key, result in runs.items():
                failed[name] = failed.get(name, 0) + result["failed"]
                table = values.setdefault((name, key), {})
                for metric, entry in result["metrics"].items():
                    table.setdefault(metric, []).append(entry["value"])
    return {"values": values, "failed": failed}


def _spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def compare(spec: dict, base: dict, new: dict) -> tuple[list[str], bool]:
    lines, bad = [], False
    header = f"{'workload':24s} {'metric':26s} {'base':>11s} {'spread':>7s} {'new':>11s} {'change':>8s} {'bound':>6s}  verdict"
    lines.append(header)
    for workload in (w["name"] for w in spec["workloads"]):
        b_all = base["values"].get((workload, "trace0"), {})
        n_all = new["values"].get((workload, "trace0"), {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = b_all.get(name), n_all.get(name)
            if not b or not n:
                lines.append(f"{workload:24s} {name:26s} missing")
                continue
            b_med, n_med = statistics.median(b), statistics.median(n)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (n_med - b_med) / b_med
            beats = all(sign * (x - y) < 0 for x in n for y in b)
            if change > metric["bound"]:
                verdict = "worse"
                bad = True
            elif _spread(b) > metric["bound"] and not beats:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{workload:24s} {name:26s} {b_med:11.5g} {_spread(b):7.3f} {n_med:11.5g} "
                f"{change:+8.3f} {metric['bound']:6.2f}  {verdict}"
            )
        for side, data in (("base", base), ("new", new)):
            if data["failed"].get(workload):
                lines.append(f"{workload:24s} ops failed on {side}: {data['failed'][workload]}")
                bad = True
    lines.append("")
    lines.append(f"{'workload':24s} {'per-layer metric':42s} {'base':>11s} {'new':>11s}")
    for workload in (w["name"] for w in spec["workloads"]):
        b_all = base["values"].get((workload, "trace1"), {})
        n_all = new["values"].get((workload, "trace1"), {})
        for metric in spec["per_layer"]:
            b, n = b_all.get(metric["name"]), n_all.get(metric["name"])
            if b and n and (any(b) or any(n)):
                lines.append(
                    f"{workload:24s} {metric['name']:42s} "
                    f"{statistics.median(b):11.5g} {statistics.median(n):11.5g}"
                )
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, bad = compare(spec, _load(args.base), _load(args.new))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
