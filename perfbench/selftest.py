"""Show that the reference checks catch wrong answers.

    python selftest.py WORK_DIR

Builds the first round of every workload, checks that each real result
passes, then corrupts each result once and checks that it is flagged.
Exits 1 if a real result fails or a corrupted one slips through.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from fractions import Fraction

import karith
import workloads


def corrupt(value):
    """A nearby wrong answer of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        for i, ch in enumerate(value):
            if ch.isdigit():
                return value[:i] + str((int(ch) + 1) % 10) + value[i + 1:]
        return value + "x"
    if isinstance(value, dict):
        if not value:
            return {0: (2, 0)}
        key = next(iter(value))
        return {**value, key: corrupt(value[key])}
    if isinstance(value, (list, tuple)):
        if not value:
            return type(value)([6])
        return type(value)([corrupt(value[0]), *value[1:]])
    if dataclasses.is_dataclass(value):
        # The field carrying the most data is the one worth corrupting.
        fields = [f.name for f in dataclasses.fields(value)]
        size = {name: len(v) if hasattr(v := getattr(value, name), "__len__") else 0
                for name in fields}
        name = max(fields, key=lambda n: (size[n], isinstance(getattr(value, n), int)))
        return dataclasses.replace(value, **{name: corrupt(getattr(value, name))})
    raise TypeError(f"no corruption for {type(value).__name__}")


def main(work_dir: str) -> int:
    cli = [sys.executable, "-m", "karith"]
    failures = 0
    for workload, build in workloads.WORKLOADS.items():
        ctx = workloads.Context(workload, karith, work_dir, cli, dict(os.environ))
        passed = flagged = 0
        requests = build(random.Random(f"self-test:{workload}"), ctx)
        for request in requests:
            result = request.call()
            try:
                request.check(result)
                passed += 1
            except AssertionError as exc:
                print(f"  {workload} {request.kind}: real result rejected: {exc}")
            try:
                request.check(corrupt(result))
                print(f"  {workload} {request.kind}: corrupted result accepted")
            except AssertionError:
                flagged += 1
        total = len(requests)
        failures += 2 * total - passed - flagged
        print(f"{workload}: {passed}/{total} real results pass, "
              f"{flagged}/{total} corrupted results flagged")
    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures} problems)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
