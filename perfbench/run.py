"""karith benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S       # every workload in turn
    python3 perfbench/run.py --self-test                # corrupted results get flagged

Run it from anywhere inside a karith checkout; it imports karith from the
checkout's ``src`` and writes scratch files only under ``.bench_build/``.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 first
runs the workload untraced for half the time, then runs the same rounds with
every karith function traced from outside, and reports per-layer metrics
plus the tracing overhead.  Times are scaled to a reference machine speed
(see reference.py) and the unscaled ones are printed too.  The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("orbit-scan", "generated-census", "prime-arith", "cli-session")
# Pairs of fresh interpreters per run for setup_s.
STARTS = 11
WORKER_TIMEOUT_S = 170

# (metric, unit) for --trace 1.  Times and counts are per round of the
# workload; the cli.* times are per command.
LAYER_METRICS = [
    ("core.k_quotient.calls", "count"), ("core.k_quotient.self_s", "s"),
    ("core.k_quotient.not_divisible_ratio", "ratio"),
    ("core.usual_divisors.calls", "count"), ("core.usual_divisors.self_s", "s"),
    ("core.k_divisors.self_s", "s"), ("core.k_primes_below.self_s", "s"),
    ("generators.weighted.calls", "count"), ("generators.weighted.self_s", "s"),
    ("generators.term.calls", "count"),
    ("generators.nth_prime.calls", "count"), ("generators.nth_prime.self_s", "s"),
    ("generators.nth_prime.max_index", "count"),
    ("generators.parse_generator.self_s", "s"),
    ("generated.seq_divisors.self_s", "s"),
    ("generated.exact_divisor_count_numbers.self_s", "s"),
    ("generated.seq_primes_below.self_s", "s"),
    ("generated.term_counts_scanned", "count"), ("generated.divisor_hit_ratio", "ratio"),
    ("collatz.orbit.calls", "count"), ("collatz.orbit.self_s", "s"),
    ("collatz.steps", "count"), ("collatz.steps_per_s", "1/s"),
    ("collatz.classified_ratio", "ratio"), ("collatz.goldbach_scan.self_s", "s"),
    ("coverage.residual_set.self_s", "s"), ("coverage.seq_residual_set.self_s", "s"),
    ("coverage.primes_used", "count"),
    ("oeis.parse_bfile.self_s", "s"), ("oeis.compare_prefix.self_s", "s"),
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.parse_s", "s"),
    ("cli.handler_s", "s"), ("cli.render_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(args: list[str], stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=WORK,
                          stdout=stdout, text=True, **kwargs)


def bytecode_cache_state() -> str:
    import importlib.util

    sources = sorted((SRC / "karith").glob("*.py"))
    cached = [Path(importlib.util.cache_from_source(str(s))) for s in sources]
    fresh = all(c.exists() and c.stat().st_mtime >= s.stat().st_mtime
                for s, c in zip(sources, cached))
    return "warm" if fresh else "cold"


def setup_time() -> float:
    """Import time of all of karith in a fresh interpreter, as the median
    over STARTS pairs of its ratio to the reference modules' import time in
    the interpreter started next, times that reference's typical time."""
    ratios = []
    for _ in range(STARTS):
        karith_s, reference_s = (
            float(python([str(HERE / "importall.py"), *mode], check=True, timeout=60).stdout)
            for mode in ([], ["reference"]))
        ratios.append(karith_s / reference_s)
    return statistics.median(ratios) * reference.IMPORT_REFERENCE_S


def run_worker(workload: str, seed: int, seconds: float, rounds: int, trace: bool) -> dict:
    shutil.rmtree(WORK / "stats", ignore_errors=True)
    proc = python([str(HERE / "worker.py"), str(WORK), workload, str(seed), str(seconds),
                   str(rounds), "1" if trace else "0"], timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_latencies(run: dict) -> list[float]:
    return reference.scaled(run["latencies"], run["tasks"], run["reference_s"])


def end_to_end(ordered: list[float], run: dict, setup_s: float, p90: float | None = None) -> dict:
    return {
        "throughput_rps": (len(ordered) / sum(ordered), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(ordered), "ms"),
        "latency_p90_ms": (1000 * (p90 or nearest_rank(ordered, 0.9)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }


def start_scaled_p90(run: dict) -> float | None:
    """For CLI children, the 90th percentile of the request times scaled by
    that of the bare interpreter starts.  Process starts on a shared machine
    have a spiky tail of their own that a rolling median does not remove."""
    starts = run["reference_s"].get("start")
    if not starts:
        return None
    return (nearest_rank(sorted(run["latencies"]), 0.9) * reference.START_P90_S
            / nearest_rank(sorted(starts), 0.9))


def per_layer(trace: dict, rounds: int, speed: float, overhead: float,
              interpreter_s: float) -> dict:
    """Layer metrics from a traced run; times are scaled by the run's speed."""
    calls, counters = trace["calls"], trace["counters"]
    self_s = {k: v * speed for k, v in trace["self_s"].items()}
    total_s = {k: v * speed for k, v in trace["total_s"].items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    handlers = sum(v for k, v in total_s.items() if k.startswith("cli.cmd_"))
    commands = sum(v for k, v in calls.items() if k.startswith("cli.cmd_"))
    library = counters.get("cli.handler_library_s", 0.0) * speed
    values = {
        "core.k_quotient.not_divisible_ratio": ratio(
            counters.get("core.k_quotient.not_divisible", 0), calls.get("core.k_quotient", 0)),
        "generators.nth_prime.max_index": counters.get("generators.nth_prime.max_index", 0),
        "generated.term_counts_scanned": counters.get("generated.term_counts_scanned", 0) / rounds,
        "generated.divisor_hit_ratio": ratio(counters.get("generated.divisors_found", 0),
                                             counters.get("generated.term_counts_scanned", 0)),
        "collatz.steps": calls.get("collatz.collatz_step", 0) / rounds,
        "collatz.steps_per_s": ratio(calls.get("collatz.collatz_step", 0),
                                     total_s.get("collatz.orbit", 0.0)),
        "collatz.classified_ratio": ratio(counters.get("collatz.classified", 0),
                                          calls.get("collatz.orbit", 0)),
        "coverage.primes_used": counters.get("coverage.primes_used", 0) / rounds,
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": statistics.median(trace["import_s"]) * speed if trace.get("import_s") else 0.0,
        "cli.parse_s": ratio(total_s.get("cli.main", 0.0) - handlers, commands),
        "cli.handler_s": ratio(library, commands),
        "cli.render_s": ratio(handlers - library, commands),
        "trace.overhead_ratio": overhead,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name not in values:
            function, _, field = name.rpartition(".")
            values[name] = (calls if field == "calls" else self_s).get(function, 0) / rounds
        out[name] = (values[name], unit)
    return out


def provenance(workload: str, seed: int, run: dict, cache: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "karith").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "source_sha256": digest.hexdigest(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "requests": len(run["latencies"]), "rounds": run["rounds"],
        "bytecode_cache_at_start": cache, "requests_by_kind": run["kinds"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cache = bytecode_cache_state()
    python([str(HERE / "importall.py")], check=True, timeout=60)  # warms a cold cache
    raw = {}
    if trace:
        plain = run_worker(workload, seed, seconds / 2, 0, trace=False)
        traced = run_worker(workload, seed, 0, plain["rounds"], trace=True)
        overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain))
        starts = traced["reference_s"].get("start")
        speed = reference.speed(traced["reference_s"], "start" if starts else "mix")
        interpreter_s = statistics.median(starts) if starts else 0.0
        metrics = per_layer(traced["trace"], traced["rounds"], speed, overhead, interpreter_s)
        runs = [plain, traced]
    else:
        setup_s = setup_time()
        plain = run_worker(workload, seed, seconds, 0, trace=False)
        metrics = end_to_end(sorted(scaled_latencies(plain)), plain, setup_s,
                             start_scaled_p90(plain))
        raw = end_to_end(sorted(plain["latencies"]), plain, setup_s)
        runs = [plain]
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"# perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("provenance " + json.dumps(provenance(workload, seed, runs[-1], cache)))
    for failure in (f for r in runs for f in r["failures"]):
        print("failure " + failure.replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms"):
        if name in raw:
            print(f"unscaled {name} = {raw[name][0]!r} {raw[name][1]}")
    print(f"error_rate = {failed / attempted!r} ({failed}/{attempted} requests)")
    if not trace:
        print(f"samples = {attempted} (latency percentiles by nearest rank)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted results are flagged, then exit")
    args = parser.parse_args()
    if not (SRC / "karith" / "__init__.py").is_file():
        print(f"perfbench: no karith sources under {SRC}; run inside a karith checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return python([str(HERE / "selftest.py"), str(WORK)], stdout=None,
                      timeout=WORKER_TIMEOUT_S).returncode

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
