"""Compare two sets of saved runs (``run.py --out``), metric by metric.

    python3 perfbench/compare.py --a parent/*.json --b change/*.json

Prints, per workload and metric, each side's median and quartiles and
the change of the median against the bound ``BENCHMARK.json`` fixes.
Wall-time figures depend on the host, so the comparison is refused
(exit 2) unless every run carries the same host fingerprint; the
calibration loop's time is printed per side so drift between the two
sets is visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="baseline runs")
    parser.add_argument("--b", nargs="+", required=True, help="candidate runs")
    args = parser.parse_args(argv)
    runs_a, runs_b = _load(args.a), _load(args.b)

    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs_a + runs_b}
    if len(prints) != 1:
        print("refusing to compare runs from different hosts:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for side, runs in (("a", runs_a), ("b", runs_b)):
        cal = statistics.median(r["calibration_ms"] for r in runs)
        print(f"{side}: {len(runs)} runs, calibration median {cal:.3f} ms")

    workloads = sorted({r["workload"] for r in runs_a} & {r["workload"] for r in runs_b})
    for workload in workloads:
        a = [r for r in runs_a if r["workload"] == workload]
        b = [r for r in runs_b if r["workload"] == workload]
        print(f"\n{workload}  (a: {len(a)} runs, b: {len(b)} runs)")
        names = [n for n in a[0]["metrics"] if n in b[0]["metrics"]]
        for name in names:
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else float("nan")
            spec_m = declared.get(name, {})
            worse = change if spec_m.get("better") == "lower" else -change
            bound = spec_m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
            qa, qb = _quartiles(va), _quartiles(vb)
            print(f"  {name:<38} a {ma:12.4f} [{qa[0]:.4f}, {qa[1]:.4f}]  "
                  f"b {mb:12.4f} [{qb[0]:.4f}, {qb[1]:.4f}]  "
                  f"{change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
