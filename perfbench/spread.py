"""Run workloads on several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py --seeds 101-110 [--workloads a,b] [--trace 0]

Each run is the benchmark command of BENCHMARK.json with its run_seconds.
For every workload and metric the script prints the median of the runs,
the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), and that spread over the
metric's bound, as Markdown table rows.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    rows = []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(first, last + 1):
            began = perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed={seed} took={perf_counter() - began:.1f}s "
                  f"correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in out["metrics"].items()), flush=True)
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            share = f"{spread / bound:.2f}" if bound else ""
            rows.append(f"| {workload} | {name} | {med:.6g} | {spread:.4f} "
                        f"| {bound or ''} | {share} |")
    print("| workload | metric | median | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
