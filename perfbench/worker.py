"""Run one workload in this process and print its raw measurements as JSON.

    python worker.py WORK_DIR WORKLOAD SEED SECONDS ROUNDS TRACE

One closed-loop caller with no think time issues the requests of each round
in turn; only the call itself is timed.  After each call the output is
checked against the oracle and the workload's reference tasks are timed
(see reference.py), both outside the timed region; garbage is collected
between rounds so peak memory reflects one round's working set, not the
collector's timing.  With ROUNDS = 0 it runs whole rounds until SECONDS have
passed and at least MIN_REQUESTS were issued; otherwise exactly ROUNDS
rounds.  TRACE = 1 routes karith through the outside-in tracer (cli-session
children go through shim.py instead).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import traceback
from functools import partial
from time import perf_counter

MIN_REQUESTS = 100


def main(argv: list[str]) -> None:
    work_dir, workload, seed, seconds, rounds, trace = argv
    seed, seconds, rounds, trace = int(seed), float(seconds), int(rounds), trace == "1"
    import reference
    import workloads

    tracer = None
    karith = None
    here = os.path.dirname(os.path.abspath(__file__))
    if workload == "cli-session":
        if trace:
            cli_command = [sys.executable, os.path.join(here, "shim.py")]
        else:
            cli_command = [sys.executable, "-m", "karith"]
    else:
        cli_command = None
        if trace:
            import tracer as tracing
            tracer = tracing.install()
        import karith
    ctx = workloads.Context(workload, karith, work_dir, cli_command, dict(os.environ))
    build = workloads.WORKLOADS[workload]
    measure = {
        "mix": reference.mix,
        "long_division": reference.long_division,
        "start": partial(reference.interpreter_start, ctx.env, work_dir),
    }
    reference_s = {task: [] for task in workloads.REFERENCE_TASKS[workload]}

    latencies: list[float] = []
    tasks: list[str] = []
    kinds: dict[str, int] = {}
    failures: list[str] = []
    failed = 0
    done = 0
    start = perf_counter()
    while True:
        ctx.round_index = done
        requests = build(random.Random(f"{workload}:{seed}:{done}"), ctx)
        for request in requests:
            kinds[request.kind] = kinds.get(request.kind, 0) + 1
            tasks.append(request.task)
            t0 = perf_counter()
            try:
                result = request.call()
            except Exception:
                latencies.append(perf_counter() - t0)
                failed += 1
                failures.append(f"{request.kind}: {traceback.format_exc(limit=3)}")
            else:
                latencies.append(perf_counter() - t0)
                try:
                    request.check(result)
                except Exception as exc:
                    failed += 1
                    failures.append(f"{request.kind}: {type(exc).__name__}: {exc}")
                del result
            for task, times in reference_s.items():
                times.append(measure[task]())
        del requests, request
        gc.collect()
        done += 1
        if rounds:
            if done >= rounds:
                break
        elif perf_counter() - start >= seconds and len(latencies) >= MIN_REQUESTS:
            break

    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    out = {
        "rounds": done,
        "latencies": latencies,
        "tasks": tasks,
        "reference_s": reference_s,
        "kinds": kinds,
        "failed": failed,
        "failures": failures[:10],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "wall_s": perf_counter() - start,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    elif workload == "cli-session" and trace:
        out["trace"] = merge_child_stats(work_dir)
    sys.stdout.write(json.dumps(out) + "\n")


def merge_child_stats(work_dir: str) -> dict:
    """Sum the stats files the shim left, one per child, and remove them."""
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "counters": {}, "import_s": []}
    stats_dir = os.path.join(work_dir, "stats")
    for name in sorted(os.listdir(stats_dir)):
        path = os.path.join(stats_dir, name)
        with open(path) as fh:
            child = json.load(fh)
        os.remove(path)
        merged["import_s"].append(child.pop("import_s"))
        for section, values in child.items():
            target = merged[section]
            for key, value in values.items():
                if key.endswith(".max_index"):
                    target[key] = max(target.get(key, 0), value)
                else:
                    target[key] = target.get(key, 0) + value
    return merged


if __name__ == "__main__":
    main(sys.argv[1:])
