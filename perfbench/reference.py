"""Reference tasks that measure how fast the shared machine runs right now.

The benchmark machine's speed drifts by tens of percent over seconds as
other tenants come and go, and not uniformly: trial division of large
integers speeds up and slows down independently of the rest of the
interpreter's work.  So after every request the worker times each reference
task its workload uses, and each request time is scaled by the typical time
of its own task over the rolling median of that task's nearby times.  What
is left is the time the request would have taken at the reference speed; a
change to karith moves it as it would the raw time.  Raw times are printed
alongside.

Tasks:
  mix            a kernel of the interpreter work karith does in-process
  long_division  trial division of an 11-digit integer, as k_divisors does
  start          a bare ``python -c pass``, for CLI children
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

# Typical time of each task on a 2-core VM with Python 3.11.7.  Any fixed
# value would do; these keep scaled times close to raw ones there.
TYPICAL_S = {"mix": 0.001, "long_division": 0.0003, "start": 0.07}
START_P90_S = 0.08  # 90th percentile of the bare starts
IMPORT_REFERENCE_S = 0.025  # importall.REFERENCE_MODULES in a fresh interpreter
WINDOW = 9
CHILD_TIMEOUT_S = 120


class _Memo:
    """A growing memo read under a lock through a method, like PrefixSums."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values = [0, 0]

    def get(self, n: int) -> int:
        with self._lock:
            while len(self._values) <= n:
                self._values.append(self._values[-1] + len(self._values))
            return self._values[n]


def mix() -> float:
    start = perf_counter()
    total = Fraction(0)  # failed quotients build Fractions
    for i in range(1, 40):
        total += Fraction(i, 2 * i + 1)
    n, found = 12345678901, []  # divisor reports divide by every candidate
    for d in range(1, 1500):
        if n % d == 0:
            found.append(d)
    memo, hits = _Memo(), 0  # census scans read weighted sums
    for d in range(1, 600):
        if (5000 - memo.get(d)) % d == 0:
            hits += 1
    seen, path, v = {}, [], 27  # orbits grow a trajectory and a seen-map
    for _ in range(400):
        seen[v] = len(path)
        path.append(v)
        v = v // 2 if v % 2 == 0 else 3 * v + 1
    return perf_counter() - start


def long_division() -> float:
    start = perf_counter()
    n, found = 100_000_000_019, []
    for d in range(1, 3000):
        if n % d == 0:
            found.append(d)
    return perf_counter() - start


def run_child(argv: list[str], env: dict, cwd) -> subprocess.CompletedProcess:
    """Run a child to completion, killing it after CHILD_TIMEOUT_S.

    subprocess's own timeout waits by polling with sleeps of up to 50 ms,
    which would show up in every measured time; this waits by blocking.
    """
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        killer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def interpreter_start(env: dict, cwd) -> float:
    start = perf_counter()
    proc = run_child([sys.executable, "-c", "pass"], env, cwd)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter start exited {proc.returncode}")
    return elapsed


def scaled(times: list[float], tasks: list[str], task_times: dict[str, list[float]]) -> list[float]:
    """times[i] scaled by its task's typical time over the median of that
    task's times measured around request i."""
    half = WINDOW // 2
    out = []
    for i, (t, task) in enumerate(zip(times, tasks)):
        nearby = task_times[task][max(0, i - half): i + half + 1]
        out.append(t * TYPICAL_S[task] / statistics.median(nearby))
    return out


def speed(task_times: dict[str, list[float]], task: str) -> float:
    """One factor for a whole run: typical over median time of the task."""
    return TYPICAL_S[task] / statistics.median(task_times[task])
