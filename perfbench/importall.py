"""Time a fresh import of karith and every one of its modules.

    python importall.py            # prints karith's import time in seconds
    python importall.py reference  # prints the reference modules' import time

It imports only what the interpreter has already loaded at start-up before
the clock starts, so the time it reports is karith's own import cost, stdlib
dependencies included.  The reference is a fixed set of stdlib modules like
the ones karith depends on, imported in a fresh interpreter of its own; the
ratio of the two tracks karith's import cost while the machine's speed drifts.
"""

import os
import sys
import time

REFERENCE_MODULES = ("argparse", "dataclasses", "fractions", "json", "pathlib", "threading")


def import_karith() -> float:
    start = time.perf_counter()
    import karith

    package = os.path.dirname(karith.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py"):
            __import__("karith." + name[:-3])
    return time.perf_counter() - start


def import_reference() -> float:
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        __import__(name)
    return time.perf_counter() - start


if __name__ == "__main__":
    elapsed = import_reference() if sys.argv[1:] == ["reference"] else import_karith()
    sys.stdout.write(f"{elapsed!r}\n")
