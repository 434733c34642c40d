"""Command-line surface for the arithmetic, orbit, coverage and sequence ops.

Output formats: plain (space-separated values and bracketed rows), csv, and
json (canonical: sorted keys, no whitespace, no floating point, so parse +
re-render is byte identical).  Exit codes: 0 success (including inexact
quotients and empty results), 2 usage error (an option missing, conflicting
or misspelled, or a --bfile or --out that cannot be opened), 3 domain error
(a value out of the library's range, a bound the library cannot prove and
was not given, or a malformed b-file), 4 fixture mismatch.

Bounds pass through unchanged: the library picks every default bound, a
proven one, and refuses where it has none, so no command answers from a
guess.  The JSON keys ``bound_defaulted`` and ``prime_limit_defaulted`` are
therefore always false; they stay so that JSON consumers keep their keys.

Each command imports the library modules it runs when it runs, so a
``python -m karith`` child loads only those: ``product`` never loads
``collatz``, ``coverage``, ``oeis`` or ``json``, and ``orbit`` never loads
``generators``.
"""

from __future__ import annotations

import argparse
import sys

from .core import DomainError

TYPE_CHECKING = False  # read as true by type checkers; never imports typing
if TYPE_CHECKING:
    from .generators import Generator

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_MISMATCH = 4


def canon_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _arith(text: str) -> Generator:
    from .generators import GeneratorSpecError, parse_generator

    try:
        return parse_generator(text)
    except GeneratorSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _render(args, record: dict, csv_lines: list[str] | None, plain: str) -> int:
    """Write the rendering args.format selects (plain when no csv form
    exists) to --out or stdout, newline-terminated unless empty."""
    if args.format == "json":
        text = canon_json(record)
    elif args.format == "csv" and csv_lines is not None:
        text = "\n".join(csv_lines)
    else:
        text = plain
    payload = text if text.endswith("\n") or text == "" else text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------- product

def cmd_product(args) -> int:
    from .generated import seq_product

    g = args.arith
    result = seq_product(args.m, args.n, g)
    return _render(
        args,
        {"arith": g.spec(), "command": "product", "m": args.m, "n": args.n, "result": result},
        ["m,n,result", f"{args.m},{args.n},{result}"],
        str(result),
    )


def cmd_quotient(args) -> int:
    from .core import NotDivisible
    from .generated import seq_quotient

    g = args.arith
    result = seq_quotient(args.a, args.b, g)
    if isinstance(result, NotDivisible):
        status, key, value = "not_divisible", "ratio", str(result.ratio)
    else:
        status, key, value = "ok", "result", result
    return _render(
        args,
        {"a": args.a, "arith": g.spec(), "b": args.b, "command": "quotient",
         "status": status, key: value},
        ["a,b,status,value", f"{args.a},{args.b},{status},{value}"],
        str(result),
    )


# --------------------------------------------------------------- divisors

def cmd_divisors(args) -> int:
    from .generated import divisors

    g = args.arith
    report = divisors(args.a, g, search_bound=args.bound)
    return _render(
        args,
        {"arith": g.spec(), "bound_defaulted": False, "command": "divisors",
         "divisors": list(report.divisors), "search_bound": report.search_bound,
         "subject": report.subject, "witnesses": [list(w) for w in report.witnesses]},
        ["divisor,witness", *(f"{d},{b}" for d, b in report.witnesses)],
        " ".join(str(d) for d in report.divisors),
    )


def cmd_primes(args) -> int:
    from .generated import primes_below

    g = args.arith
    primes = primes_below(args.limit, g, bound_factor=args.bound_factor)
    return _render(
        args,
        {"arith": g.spec(), "bound_defaulted": False, "command": "primes",
         "limit": args.limit, "primes": primes},
        ["prime", *map(str, primes)],
        " ".join(map(str, primes)),
    )


# ------------------------------------------------------------------ orbit

def _parse_scan(text: str) -> list[int]:
    head, _, step_text = text.partition(":")
    lo_text, sep, hi_text = head.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"scan range must look like k1..k2[:step], got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
        step = int(step_text) if step_text else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scan range {text!r}") from None
    if step < 1:
        raise argparse.ArgumentTypeError("scan step must be positive")
    ks = list(range(lo, hi + 1, step))
    if not ks:
        raise argparse.ArgumentTypeError(f"scan range {text!r} is empty")
    return ks


def _orbit_summary(outcome) -> str:
    """kind=, then each field the outcome sets, bar a fixed point's cycle_length of 1."""
    names = ["ns", "pre_period", "cycle_length", "cycle_entry", "fixed_value", "bound", "steps"]
    if outcome.kind.value == "fixed_point":
        names.remove("cycle_length")
    values = [(name, getattr(outcome, name)) for name in names]
    return " ".join([f"kind={outcome.kind.value}",
                     *(f"{name}={value}" for name, value in values if value is not None)])


def cmd_orbit(args) -> int:
    from .collatz import DEFAULT_MAGNITUDE_BOUND, DEFAULT_STEP_LIMIT, orbit, orbit_length_scan

    bound = DEFAULT_MAGNITUDE_BOUND if args.bound is None else args.bound
    steps = DEFAULT_STEP_LIMIT if args.steps is None else args.steps
    if args.scan is not None:
        rows = orbit_length_scan(args.n, args.scan, bound, steps)
        return _render(
            args,
            {"command": "orbit_scan", "n": args.n,
             "rows": [{"k": k, "kind": kind, "ns": ns} for k, ns, kind in rows]},
            ["k,ns,kind", *(f"{k},{'' if ns is None else ns},{kind}" for k, ns, kind in rows)],
            "\n".join(f"k={k} ns={'-' if ns is None else ns} kind={kind}"
                      for k, ns, kind in rows),
        )
    outcome = orbit(args.n, args.k, bound, steps)
    return _render(
        args,
        {"command": "orbit", "k": args.k, "kind": outcome.kind.value, "n": args.n,
         "ns": outcome.ns, "trajectory": list(outcome.trajectory)},
        ["step,value", *(f"{i},{v}" for i, v in enumerate(outcome.trajectory))],
        " ".join(str(v) for v in outcome.trajectory) + "\n" + _orbit_summary(outcome),
    )


# --------------------------------------------------------------- coverage

def cmd_coverage(args) -> int:
    from .coverage import seq_residual_set

    report = seq_residual_set(args.arith, args.window, args.prime_limit, args.bound_factor)
    return _render(
        args,
        {"arithmetic": report.arithmetic, "command": "coverage",
         "prime_limit_defaulted": False, "primes": list(report.primes_used),
         "residual": list(report.residual),
         "window": [-report.window_half, report.window_half]},
        ["residual", *map(str, report.residual)],
        report.to_bracket_row(),
    )


# --------------------------------------------------------------- sequence

def _sequence_terms(args) -> list[int]:
    from .generated import (cubes_sequence, exact_divisor_count_numbers, primes_below,
                            squares_sequence)

    g = args.arith
    if args.kind in ("squares", "cubes"):
        if args.count is None:
            args.parser.error(f"--count is required for --kind {args.kind}")
        fn = squares_sequence if args.kind == "squares" else cubes_sequence
        return fn(args.count, g)
    if args.limit is None:
        args.parser.error(f"--limit is required for --kind {args.kind}")
    if args.kind == "primes":
        return primes_below(args.limit, g, bound_factor=args.bound_factor)
    return exact_divisor_count_numbers(3, args.limit, g, bound_factor=args.bound_factor)


def cmd_sequence(args) -> int:
    terms = _sequence_terms(args)
    return _render(
        args,
        {"arith": args.arith.spec(), "command": "sequence", "kind": args.kind, "terms": terms},
        ["index,value", *(f"{i},{v}" for i, v in enumerate(terms, start=1))],
        " ".join(map(str, terms)),
    )


def cmd_oeis_check(args) -> int:
    from .oeis import compare_prefix, parse_bfile

    terms = _sequence_terms(args)
    fixture = parse_bfile(args.bfile)
    result = compare_prefix(terms, fixture, offset=args.offset)
    _render(
        args,
        {"arith": args.arith.spec(), "bfile": fixture.sequence_id,
         "command": "oeis_check", "compared": result.compared,
         "detail": result.detail, "kind": args.kind,
         "matched": result.matched, "offset": args.offset},
        None,
        result.detail,
    )
    return EXIT_OK if result.matched else EXIT_MISMATCH


# --------------------------------------------------------------- goldbach

def cmd_goldbach(args) -> int:
    from .collatz import goldbach_scan

    report = goldbach_scan(args.k, args.limit, record_witnesses=args.witness)
    record = {"command": "goldbach", "counterexamples": list(report.counterexamples),
              "k": report.k, "limit": report.limit}
    plain = [" ".join(map(str, report.counterexamples))]
    if report.decompositions is not None:
        pairs = report.decompositions.items()  # ascending h
        record["decompositions"] = [[h, p1, p2] for h, (p1, p2) in pairs]
        plain += [f"{h} = {p1} + {p2}" for h, (p1, p2) in pairs]
    # a csv of counterexamples alone would drop the witnesses: render plain
    csv_lines = None if args.witness else ["counterexample", *map(str, report.counterexamples)]
    return _render(args, record, csv_lines, "\n".join(plain))


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karith",
        description="Generalized integer arithmetics: products, divisors, primes, "
                    "orbits, covering sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared options, each parent adding to the one before it
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    output.add_argument("--out", help="write output to this path instead of stdout")
    arith = argparse.ArgumentParser(add_help=False, parents=[output])
    arith.add_argument("--arith", type=_arith, default="const:2",
                       help="arithmetic spec, e.g. const:3, ap:1,2, gp:1,2, "
                            "poly:1,0,5, primes, alt, zeroone, fpattern, explicit:[...]")
    census = argparse.ArgumentParser(add_help=False, parents=[arith])
    census.add_argument("--bound-factor", type=int,
                        help="per-candidate divisor scan bound factor (default: the sequence's "
                             "divisor factor; required for a sequence without one)")
    terms = argparse.ArgumentParser(add_help=False, parents=[census])
    terms.add_argument("--count", type=int, help="term count for squares/cubes")
    terms.add_argument("--limit", type=int, help="upper limit for primes/three-divisor")
    terms.add_argument("--kind", choices=("squares", "cubes", "primes", "three-divisor"),
                       required=True)

    def command(name, handler, parent, summary):
        p = sub.add_parser(name, parents=[parent], help=summary)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("product", cmd_product, arith, "product of m by n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = command("quotient", cmd_quotient, arith, "start value writing a as b terms")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = command("divisors", cmd_divisors, arith, "divisor report for an integer")
    p.add_argument("a", type=int)
    p.add_argument("--bound", type=int,
                   help="divisor scan bound (default: the sequence's divisor factor "
                        "times |a|; required for a sequence without one)")

    p = command("primes", cmd_primes, census, "primes below a limit")
    p.add_argument("limit", type=int)

    p = command("orbit", cmd_orbit, output, "Collatz-style orbit or orbit-length scan")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int)
    mode.add_argument("--scan", type=_parse_scan,
                      help="k range, e.g. 2..100:2 (a negative start needs --scan=-3..3)")
    # None: collatz's defaults, read by cmd_orbit so other commands never load it
    p.add_argument("--bound", type=int)
    p.add_argument("--steps", type=int)

    p = command("coverage", cmd_coverage, census, "residual of a window under prime multiples")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--prime-limit", type=int,
                   help="cover with the primes below this (default: the proven limit, "
                        "2N + 1 for a constant sequence; required for any other)")

    command("sequence", cmd_sequence, terms, "squares, cubes, primes, three-divisor numbers")

    p = command("oeis-check", cmd_oeis_check, terms, "diff a generated sequence against a b-file")
    p.add_argument("--bfile", required=True)
    p.add_argument("--offset", type=int, default=1,
                   help="b-file index aligned with the first generated term")

    p = command("goldbach", cmd_goldbach, output, "even targets not a sum of two primes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="record one decomposition per target")

    return parser


def _bfile_errors() -> tuple[type[Exception], ...]:
    """The b-file errors main reports with exit 3.  An except clause reads
    this only while matching an exception, so no command loads oeis for it."""
    from .oeis import BFileParseError

    return BFileParseError, UnicodeDecodeError


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _bfile_errors() as exc:
        print(f"b-file parse error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        if exc.filename is None:  # not a --bfile or --out path that cannot be opened
            raise
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
