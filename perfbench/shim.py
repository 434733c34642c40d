"""Run karith's CLI under the outside-in tracer.

    python shim.py ARGS...

Behaves like ``python -m karith ARGS...`` and, on exit, writes the child's
import time and traced call statistics to ``stats/<pid>.json`` under the
current directory.
"""

import json
import os
import sys

import importall

import_s = importall.import_karith()

import karith.cli  # noqa: E402  (already imported; timed above)
import tracer as tracing  # noqa: E402

tracer = tracing.install()

try:
    code = karith.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
sys.stdout.flush()
os.makedirs("stats", exist_ok=True)
with open(os.path.join("stats", f"{os.getpid()}.json"), "w") as fh:
    json.dump({"import_s": import_s, **tracer.snapshot()}, fh)
sys.exit(code)
