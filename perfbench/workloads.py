"""The four workloads, built round by round from a seed.

A round is a fixed list of request types, each appearing a fixed number of
times.  Sizes are drawn from fixed ranges, stratified, and the first draw of
every type is the range's maximum, so the largest census, the deepest nth_prime index and
the heaviest trial division are the same for every seed; only the remaining
sizes and the values differ.  karith receives only these generated inputs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle
import reference

ORBIT_BOUND = 5_000_000
ORBIT_STEPS = 1_000_000     # karith's default step limit
CLI_ORBIT_BOUND = 500_000   # karith's default magnitude bound


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    task: str = "mix"  # the reference task its time is scaled by


# The reference tasks each workload's requests use (see reference.py).
REFERENCE_TASKS = {
    "orbit-scan": ("mix",),
    "generated-census": ("mix",),
    "prime-arith": ("mix", "long_division"),
    "cli-session": ("start",),
}


def sizes(rng, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes from [lo, hi]: hi itself, then one draw from each of
    count - 1 equal slices of the range, so every round costs about the same."""
    step = (hi - lo) / max(count - 1, 1)
    return [hi] + [int(lo + step * (j + rng.random())) for j in range(count - 1)]


# -------------------------------------------------------------- orbit-scan

def orbit_scan(rng, ctx) -> list[Request]:
    """Orbit-length plots over even and odd k windows plus single long orbits.

    Only collatz.orbit and the k-quotient/product primitives run here: no
    generator memo and no prime routine, so this is the no-change control
    for the prime-layer and divisor-sieve work.
    """
    karith = ctx.karith
    out = []
    for parity in (0, 1):
        for width in sizes(rng, 20, 100, 6):
            n = rng.randint(3, 200)
            first = 2 * rng.randint(1, 20) - parity
            ks = list(range(first, first + 2 * width, 2))
            out.append(Request(
                f"orbit_scan_{'odd' if parity else 'even'}",
                partial(karith.orbit_length_scan, n, ks, ORBIT_BOUND),
                partial(oracle.check_orbit_scan, n, ks, ORBIT_BOUND, ORBIT_STEPS),
            ))
    starts = [(17, 1700)] + [(rng.randint(3, 200), 2 * rng.randint(50, 1000)) for _ in range(5)]
    for n, k in starts:
        out.append(Request(
            "orbit_long",
            partial(karith.orbit, n, k, ORBIT_BOUND),
            partial(oracle.check_orbit, n, k, ORBIT_BOUND, ORBIT_STEPS),
        ))
    return out


# -------------------------------------------------------- generated-census

# Generators with the asserted 6a divisor bound, and generators that need an
# explicit one.  The pool is the same for every seed: a generator's divisor
# structure sets how early each census scan stops, so drawing its parameters
# would change the work per round by tens of percent from seed to seed.
WITH_DEFAULT_BOUND = ["ap:1,2", "ap:2,1", "poly:0,3"]
EXPLICIT_BOUND = ["poly:1,0,1", "gp:1,2", "alt", "zeroone", "fpattern"]
EXPLICIT_FACTOR = 2


def generated_census(rng, ctx) -> list[Request]:
    """Three-divisor and prime censuses, divisor scans, residual sets and
    squares/cubes over a small generator pool reused by every request, so
    the PrefixSums memo is mostly read.  nth_prime never runs."""
    karith, index = ctx.karith, ctx.round_index
    with_default, explicit = WITH_DEFAULT_BOUND, EXPLICIT_BOUND
    every = with_default + explicit
    out = []

    def pick(specs, i):
        spec = specs[(index + i) % len(specs)]
        return spec, ctx.pool[spec]

    for i, limit in enumerate(sizes(rng, 100, 300, 3)):
        spec, g = pick(with_default, i)
        out.append(Request(
            "census_default",
            partial(karith.exact_divisor_count_numbers, 3, limit, g),
            partial(oracle.check_census, spec, 3, limit, 6),
        ))
    for i, limit in enumerate(sizes(rng, 60, 150, 2)):
        spec, g = pick(explicit, i)
        out.append(Request(
            "census_explicit",
            partial(karith.exact_divisor_count_numbers, 3, limit, g, EXPLICIT_FACTOR),
            partial(oracle.check_census, spec, 3, limit, EXPLICIT_FACTOR),
        ))
    for i, limit in enumerate(sizes(rng, 100, 300, 3)):
        spec, g = pick(with_default, i + 1)
        out.append(Request(
            "primes_below",
            partial(karith.seq_primes_below, limit, g),
            lambda got, spec=spec, limit=limit: oracle.expect(
                list(got) == oracle.seq_primes(spec, limit, 6),
                f"primes below {limit} in {spec} differ"),
        ))
    for i, a in enumerate(sizes(rng, 100, 1000, 4)):
        spec, g = pick(with_default, i + 2)
        out.append(Request(
            "divisors_default",
            partial(karith.seq_divisors, a, g),
            partial(oracle.check_seq_divisors, spec, a, 6 * a),
        ))
    for i, bound in enumerate(sizes(rng, 200, 2000, 4)):
        spec, g = pick(explicit, i + 1)
        a = rng.randint(50, 500)
        out.append(Request(
            "divisors_explicit",
            partial(karith.seq_divisors, a, g, bound),
            partial(oracle.check_seq_divisors, spec, a, bound),
        ))
    for i, half in enumerate(sizes(rng, 10, 40, 2)):
        spec, g = pick(every, i)
        prime_limit = rng.randint(50, 150)
        factor = 6 if spec in with_default else EXPLICIT_FACTOR
        out.append(Request(
            "residual_set",
            partial(karith.seq_residual_set, g, half, prime_limit, factor),
            partial(oracle.check_seq_residual_set, spec, half, prime_limit, factor),
        ))
    for kind, fn, ref in (("squares", karith.squares_sequence, oracle.squares),
                          ("cubes", karith.cubes_sequence, oracle.cubes)):
        for i, count in enumerate(sizes(rng, 20, 200, 2)):
            spec, g = pick(every, i + 3)
            out.append(Request(
                kind,
                partial(fn, count, g),
                lambda got, spec=spec, count=count, ref=ref: oracle.expect(
                    list(got) == ref(spec, count), f"self-products in {spec} differ"),
            ))
    return out


# ------------------------------------------------------------- prime-arith

def prime_arith(rng, ctx) -> list[Request]:
    """Trial-division divisor reports on large subjects, k-prime censuses,
    residual sets and Goldbach scans for even and odd k, and divisor scans
    under the usual-primes generator, whose terms grow the global nth_prime
    cache.  No generated census runs."""
    karith = ctx.karith
    out = []
    for i, a in enumerate(sizes(rng, 10**9, 10**11, 4)):
        k = 2 * rng.randint(1, 6) - i % 2
        out.append(Request("k_divisors", partial(karith.k_divisors, a, k),
                           partial(oracle.check_k_divisors, a, k), "long_division"))
    for i, n in enumerate(sizes(rng, 500, 2000, 2)):
        k = 2 * rng.randint(1, 6) - i % 2
        out.append(Request("k_primes_below", partial(karith.k_primes_below, n, k),
                           partial(oracle.check_k_primes_below, n, k)))
    for i, half in enumerate(sizes(rng, 100, 500, 2)):
        k = 2 * rng.randint(1, 6) - i % 2
        out.append(Request("residual_set", partial(karith.residual_set, k, half),
                           partial(oracle.check_residual_set, k, half)))
    for i, limit in enumerate(sizes(rng, 1000, 10000, 2)):
        k = 2 * rng.randint(1, 6) - i % 2
        out.append(Request("goldbach_scan", partial(karith.goldbach_scan, k, limit),
                           partial(oracle.check_goldbach, k, limit)))
    for bound in sizes(rng, 500, 4000, 2):
        a = rng.randint(50, 500)
        # A fresh generator per request: its prefix memo starts cold while
        # nth_prime's process-wide cache carries over.
        out.append(Request("divisors_primes",
                           partial(karith.seq_divisors, a, karith.UsualPrimes(), bound),
                           partial(oracle.check_seq_divisors, "primes", a, bound)))
    return out


# ------------------------------------------------------------- cli-session

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def cli_session(rng, ctx) -> list[Request]:
    """One `python -m karith` child per request, one at a time, over all nine
    subcommands and all three formats, with small inputs.  Every generator
    memo starts cold, and import and argument parsing are paid each time."""
    out = []

    def add(fmt, args, text=None, obj=None):
        argv = [*args, "--format", fmt]
        out.append(Request(f"cli_{args[0]}_{fmt}", partial(ctx.run_cli, argv),
                           partial(check_cli, argv, text, obj), "start"))

    def const():
        return f"const:{rng.randint(1, 6)}"

    def ap():
        return f"ap:{rng.randint(0, 3)},{rng.randint(1, 3)}"

    # product
    for fmt, spec, n in zip(("plain", "csv", "json"), (const(), ap(), "gp:1,2"),
                            sizes(rng, 1, 60, 3)):
        m = rng.randint(-50, 200)
        r = oracle.terms(spec).product(m, n)
        add(fmt, ["product", str(m), str(n), "--arith", spec],
            text={"plain": f"{r}\n", "csv": f"m,n,result\n{m},{n},{r}\n"}.get(fmt),
            obj={"arith": spec, "command": "product", "m": m, "n": n, "result": r})

    # quotient
    for fmt, spec, a in zip(("plain", "csv", "json"), (const(), ap(), const()),
                            sizes(rng, 1, 5000, 3)):
        b = rng.randint(1, 40)
        q = oracle.quotient(spec, a, b)
        status, value = ("ok", q) if isinstance(q, int) else ("not_divisible", str(q))
        key = "result" if status == "ok" else "ratio"
        plain = f"{value}\n" if status == "ok" else f"NotDivisible {value}\n"
        add(fmt, ["quotient", str(a), str(b), "--arith", spec],
            text={"plain": plain, "csv": f"a,b,status,value\n{a},{b},{status},{value}\n"}.get(fmt),
            obj={"a": a, "arith": spec, "b": b, "command": "quotient",
                 "status": status, key: value})

    # divisors
    for fmt, spec, a in zip(("plain", "csv", "json"), (const(), const(), ap()),
                            sizes(rng, 20, 300, 3)):
        if spec.startswith("const:"):
            divs, bound = oracle.k_divisor_list(a, int(spec[6:])), None
        else:
            bound = 6 * a
            divs = [d for d in range(1, bound + 1) if oracle.terms(spec).divides(d, a)]
        witnesses = [[d, oracle.quotient(spec, a, d)] for d in divs]
        add(fmt, ["divisors", str(a), "--arith", spec],
            text={"plain": lines(" ".join(map(str, divs))),
                  "csv": lines("divisor,witness", *(f"{d},{b}" for d, b in witnesses))}.get(fmt),
            obj={"arith": spec, "bound_defaulted": False, "command": "divisors",
                 "divisors": divs, "search_bound": bound, "subject": a,
                 "witnesses": witnesses})

    # primes
    for fmt, spec, limit in zip(("plain", "csv", "json"),
                                (f"const:{2 * rng.randint(1, 3)}",
                                 f"const:{2 * rng.randint(1, 3) - 1}", ap()),
                                sizes(rng, 50, 200, 3)):
        primes = census_primes(spec, limit)
        add(fmt, ["primes", str(limit), "--arith", spec],
            text={"plain": lines(" ".join(map(str, primes))),
                  "csv": lines("prime", *map(str, primes))}.get(fmt),
            obj={"arith": spec, "bound_defaulted": False, "command": "primes",
                 "limit": limit, "primes": primes})

    # orbit: single orbits in every format, plus a k-window scan as csv and json
    for fmt in ("plain", "csv", "json"):
        n, k = rng.randint(3, 100), rng.randint(1, 30)
        kind, trajectory, first = oracle.walk(n, k, CLI_ORBIT_BOUND, ORBIT_STEPS)
        ns = len(trajectory) - 1 if first is not None else None
        add(fmt, ["orbit", "--n", str(n), "--k", str(k)],
            text={"plain": lines(" ".join(map(str, trajectory)),
                                 orbit_summary(kind, trajectory, first)),
                  "csv": lines("step,value", *(f"{i},{v}" for i, v in enumerate(trajectory)))
                  }.get(fmt),
            obj={"command": "orbit", "k": k, "kind": kind, "n": n, "ns": ns,
                 "trajectory": trajectory})
    for fmt, width in zip(("csv", "json"), sizes(rng, 5, 30, 2)):
        n, lo = rng.randint(3, 100), rng.randint(1, 10)
        ks = list(range(lo, lo + 2 * width - 1, 2))
        rows = oracle.scan_rows(n, ks, CLI_ORBIT_BOUND, ORBIT_STEPS)
        add(fmt, ["orbit", "--n", str(n), "--scan", f"{lo}..{ks[-1]}:2"],
            text=lines("k,ns,kind", *(f"{k},{'' if ns is None else ns},{kind}"
                                      for k, ns, kind in rows)),
            obj={"command": "orbit_scan", "n": n,
                 "rows": [{"k": k, "kind": kind, "ns": ns} for k, ns, kind in rows]})

    # coverage
    for fmt, half in zip(("plain", "csv"), sizes(rng, 20, 60, 2)):
        k = rng.randint(1, 6)
        primes = oracle.K_PRIMES.below(2 * half + 1, k)
        residual = oracle.residual_values(half, [(p, oracle.k_product(0, p, k)) for p in primes])
        add(fmt, ["coverage", "--arith", f"const:{k}", "--window", str(half)],
            text={"plain": "[" + " ".join(map(str, residual)) + "]\n",
                  "csv": lines("residual", *map(str, residual))}[fmt])
    spec, half, prime_limit = ap(), rng.randint(10, 30), rng.randint(50, 120)
    t = oracle.terms(spec)
    primes = oracle.seq_primes(spec, prime_limit, 6)
    residual = oracle.residual_values(half, [(p, t.product(0, p)) for p in primes])
    add("json", ["coverage", "--arith", spec, "--window", str(half),
                 "--prime-limit", str(prime_limit)],
        obj={"arithmetic": spec, "command": "coverage", "prime_limit_defaulted": False,
             "primes": primes, "residual": residual, "window": [-half, half]})

    # sequence: one kind per format, plus primes as json
    (limit,), spec = sizes(rng, 100, 250, 1), ap()
    counts = oracle.divisor_counts(oracle.terms(spec), limit, 6)
    census = [n for n in range(2, limit) if counts[n] == 3]
    add("plain", ["sequence", "--kind", "three-divisor", "--arith", spec, "--limit", str(limit)],
        text=lines(" ".join(map(str, census))))
    for fmt, kind, count in zip(("csv", "json"), ("squares", "cubes"), sizes(rng, 5, 40, 2)):
        spec = rng.choice([const(), ap(), "gp:1,2", "zeroone", "alt", "fpattern"])
        values = (oracle.squares if kind == "squares" else oracle.cubes)(spec, count)
        add(fmt, ["sequence", "--kind", kind, "--arith", spec, "--count", str(count)],
            text=lines("index,value", *(f"{i},{v}" for i, v in enumerate(values, start=1))),
            obj={"arith": spec, "command": "sequence", "kind": kind, "terms": values})
    spec, limit = ap(), rng.randint(50, 150)
    add("json", ["sequence", "--kind", "primes", "--arith", spec, "--limit", str(limit)],
        obj={"arith": spec, "command": "sequence", "kind": "primes",
             "terms": census_primes(spec, limit)})

    # oeis-check against b-files the reference wrote
    for fmt, (kind, spec, size_arg, bfile), size in zip(
            ("plain", "csv", "json"), ctx.bfiles, sizes(rng, 10, 60, 3)):
        if kind == "primes":
            size = 4 * size
            compared = len(census_primes(spec, size))
        else:
            compared = size
        stem = os.path.splitext(os.path.basename(bfile))[0]
        add(fmt, ["oeis-check", "--kind", kind, "--arith", spec, size_arg, str(size),
                  "--bfile", bfile],
            text="full match\n",
            obj={"arith": spec, "bfile": "A" + stem[1:], "command": "oeis_check",
                 "compared": compared, "detail": "full match", "kind": kind,
                 "matched": True, "offset": 1})

    # goldbach
    for fmt, limit in zip(("plain", "csv", "json"), sizes(rng, 20, 1000, 3)):
        k = 2 * rng.randint(1, 3) - (fmt == "plain")
        counter = oracle.goldbach_counterexamples(k, limit)
        args = ["goldbach", "--k", str(k), "--limit", str(limit)]
        obj = {"command": "goldbach", "counterexamples": counter, "k": k, "limit": limit}
        if fmt == "json":
            args.append("--witness")
            obj["decompositions"] = [[h, *oracle.goldbach_witness(k, h)]
                                     for h in range(6, limit + 1, 2) if h not in counter]
        add(fmt, args, obj=obj,
            text={"plain": lines(" ".join(map(str, counter))),
                  "csv": lines("counterexample", *map(str, counter))}.get(fmt))
    return out


def census_primes(spec: str, limit: int) -> list[int]:
    if spec.startswith("const:"):
        return oracle.K_PRIMES.below(limit, int(spec[6:]))
    return oracle.seq_primes(spec, limit, 6)


def lines(*rows: str) -> str:
    text = "\n".join(rows)
    return text if text.endswith("\n") or text == "" else text + "\n"


def orbit_summary(kind: str, trajectory: list[int], first: int | None) -> str:
    parts = [f"kind={kind}"]
    if first is not None:
        entry = trajectory[-1]
        parts += [f"ns={len(trajectory) - 1}", f"pre_period={first}"]
        if kind == "cycle":
            parts += [f"cycle_length={len(trajectory) - 1 - first}", f"cycle_entry={entry}"]
        else:
            parts.append(f"fixed_value={entry}")
    elif kind == "magnitude_exceeded":
        parts.append(f"bound={CLI_ORBIT_BOUND}")
    else:
        parts.append(f"steps={ORBIT_STEPS}")
    return " ".join(parts)


def check_cli(argv, text, obj, result: CliResult) -> None:
    oracle.expect(result.code == 0, f"karith {' '.join(argv)} exited {result.code}")
    if obj is not None and argv[-1] == "json":
        oracle.expect(result.stdout == oracle.canonical(obj) + "\n",
                      f"karith {' '.join(argv)} printed {result.stdout[:200]!r}")
        rerendered = oracle.canonical(json.loads(result.stdout)) + "\n"
        oracle.expect(rerendered == result.stdout, "json output is not canonical")
    else:
        oracle.expect(result.stdout == text,
                      f"karith {' '.join(argv)} printed {result.stdout[:200]!r}")


def write_bfiles(directory: str) -> list[tuple[str, str, str, str]]:
    """Reference b-files for oeis-check: (kind, arith, size flag, path)."""
    os.makedirs(directory, exist_ok=True)
    entries = [
        ("squares", "ap:0,1", "--count", "b900001.txt", oracle.squares("ap:0,1", 60)),
        ("cubes", "const:2", "--count", "b900002.txt", oracle.cubes("const:2", 60)),
        ("primes", "const:2", "--limit", "b900003.txt", oracle.K_PRIMES.below(240, 2)),
    ]
    out = []
    for kind, spec, size_arg, name, values in entries:
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write("# reference values written by the benchmark\n")
            fh.writelines(f"{i} {v}\n" for i, v in enumerate(values, start=1))
        out.append((kind, spec, size_arg, path))
    return out


class Context:
    """Per-run state shared by every round of one workload."""

    def __init__(self, workload: str, karith, work_dir: str, cli_command, env):
        self.karith = karith
        self.round_index = 0
        self.cli_command = cli_command
        self.env = env
        self.work_dir = work_dir
        self.bfiles = write_bfiles(os.path.join(work_dir, "bfiles")) \
            if workload == "cli-session" else None
        if workload == "generated-census":
            self.pool = {spec: karith.parse_generator(spec)
                         for spec in WITH_DEFAULT_BOUND + EXPLICIT_BOUND}

    def run_cli(self, argv) -> CliResult:
        proc = reference.run_child([*self.cli_command, *argv], self.env, self.work_dir)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return CliResult(proc.returncode, proc.stdout)


WORKLOADS = {
    "orbit-scan": orbit_scan,
    "generated-census": generated_census,
    "prime-arith": prime_arith,
    "cli-session": cli_session,
}
