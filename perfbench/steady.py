"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b] [--seconds N] [--out FILE]

Runs one seed at a time (never in parallel, so runs do not compete for the
two cores) and prints, per workload and metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            summary[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "spread": spread, "values": series,
            }
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {name:15s} median {statistics.median(series):12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
    if args.out:
        commit = "unknown (not a git checkout)"
        if (ROOT / ".git").exists():
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    stdout=subprocess.PIPE).stdout.strip()
        args.out.write_text(json.dumps({
            "commit": commit, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "seeds": args.seeds, "seconds": args.seconds,
            "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
