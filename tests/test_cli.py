"""CLI behavior: fixture regression, formats, exit codes."""

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, divisors_from_factors

from karith import (
    Constant,
    NotDivisible,
    k_divisors,
    k_primes_below,
    k_product,
    k_quotient,
    orbit_length_scan,
    residual_set,
    seq_primes_below,
)
from karith.cli import build_parser, main

OEIS = FIXTURES / "oeis"
EXPECTED = FIXTURES / "expected"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_failing(command, capsys):
    """(exit code, message, subcommand) of a command that fails with empty
    stdout: the subcommand is None for one ``domain error:`` line, else the
    one named by argparse's usage lines and ``error:`` line."""
    try:
        code = main(shlex.split(command))
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, sep, message = captured.err.rpartition(": error: ")
    if sep:  # "usage: karith NAME ...\nkarith NAME: error: MESSAGE\n"
        name = usage.rpartition("\nkarith ")[2]
        assert usage.startswith(f"usage: karith {name} ")
    else:
        assert captured.err.startswith("domain error: ") and captured.err.count("\n") == 1
        message, name = captured.err.removeprefix("domain error: "), None
    return code, message.removesuffix("\n"), name


def load_manifest():
    rows = []
    for line in (FIXTURES / "manifest.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        command, _, fixture = line.partition(" | ")
        rows.append((command.strip(), fixture.strip()))
    return rows


MANIFEST = load_manifest()


@pytest.mark.parametrize("command,fixture", MANIFEST, ids=[c for c, _ in MANIFEST])
def test_manifest_fixtures_diff_clean(command, fixture, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parents[1])  # manifest paths are repo-relative
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")  # no row warns
    assert captured.out == (EXPECTED / fixture).read_text()


class TestFormats:
    def test_json_round_trips_byte_identically(self, capsys):
        commands = [
            "divisors 20 --arith const:3 --format json",
            "quotient 40 6 --arith const:3 --format json",
            "orbit --n 17 --k 6 --format json",
            "coverage --arith const:2 --window 30 --format json",
            "sequence --kind squares --arith alt --count 8 --format json",
            "goldbach --k 1 --limit 30 --witness --format json",
            "orbit --n 17 --scan 2..8:2 --format json",
        ]
        for command in commands:
            code, out = run_cli(shlex.split(command), capsys)
            assert code == 0
            text = out.rstrip("\n")
            rendered = json.dumps(
                json.loads(text), sort_keys=True, separators=(",", ":")
            )
            assert rendered == text, command

    def test_quotient_json_not_divisible(self, capsys):
        code, out = run_cli(
            shlex.split("quotient 40 6 --arith const:3 --format json"), capsys
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "not_divisible"
        assert payload["ratio"] == "25/6"

    def test_divisors_csv(self, capsys):
        code, out = run_cli(
            shlex.split("divisors 20 --arith const:3 --format csv"), capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "divisor,witness"
        assert lines[1] == "1,20"
        assert len(lines) == 5

    def test_orbit_scan_csv_has_row_per_k(self, capsys):
        code, out = run_cli(
            shlex.split("orbit --n 17 --scan 2..100:2 --format csv"), capsys
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "k,ns,kind"
        assert len(lines) == 51
        assert "2,13,cycle" in lines
        assert "6,21,cycle" in lines

    def test_orbit_scan_from_a_negative_k_joins_its_value(self, capsys):
        # argparse reads a separate "-3..3" as an option, so the range is joined with =
        code, out = run_cli(shlex.split("orbit --n 5 --scan=-3..3 --format json"), capsys)
        assert code == 0
        rows = [(r["k"], r["ns"], r["kind"]) for r in json.loads(out)["rows"]]
        assert rows == orbit_length_scan(5, range(-3, 4))

    @pytest.mark.parametrize("command,expected", [
        ("orbit --n -9 --k 3",
         "-9 -5 -3 -2 -2\nkind=fixed_point ns=4 pre_period=3 fixed_value=-2\n"),
        ("orbit --n 27 --k 2 --steps 5",
         "27 82 41 124 62 31\nkind=step_limit steps=5\n"),
    ], ids=["fixed_point", "step_limit"])
    def test_orbit_plain_summary(self, command, expected, capsys):
        assert run_cli(shlex.split(command), capsys) == (0, expected)

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        code, out = run_cli(
            shlex.split(f"divisors 20 --arith const:3 --out {target}"), capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "1 5 8 40\n"

    def test_explicit_generator_spec(self, capsys):
        code, out = run_cli(
            shlex.split("product 5 3 --arith explicit:[2,7]"), capsys
        )
        assert code == 0
        # (5 - 3 + 1) * 3 + 2*2 + 1*7 = 9 + 11
        assert out == "20\n"

    def test_progression_product_at_a_million_terms(self, capsys):
        # the cubic closed form answers at once, with no million-entry memo
        code, out = run_cli(shlex.split("product 3 1000000 --arith ap:1,2"), capsys)
        assert code == 0
        assert out == "333331833337500000\n"

    def test_explicit_prefix_exhaustion_is_domain_error(self, capsys):
        code = main(shlex.split("product 5 9 --arith explicit:[2,7]"))
        captured = capsys.readouterr()
        assert code == 3
        assert "prefix" in captured.err

    def test_explicit_prefix_error_names_the_first_missing_term(self, capsys):
        # a scan to bound 4 reads W(4), which takes the three terms given
        assert run_cli(shlex.split("divisors 3 --arith explicit:[1,2,3] --bound 4"),
                       capsys) == (0, "1 2\n")
        assert main(shlex.split("divisors 10 --arith explicit:[1,2,3] --bound 60")) == 3
        assert capsys.readouterr().err.endswith(
            "domain error: explicit prefix has 3 terms, index 4 requested\n")


class TestExitCodes:
    def test_domain_error_is_3(self, capsys):
        assert main(shlex.split("divisors 0 --arith const:3")) == 3
        assert main(shlex.split("quotient 10 0 --arith const:3")) == 3
        assert main(shlex.split("divisors 20 --arith gp:1,2 --bound 0")) == 3
        # a given bound below 1 fails for constants too, though they need none
        assert main(shlex.split("divisors 20 --arith const:2 --bound 0")) == 3
        assert main(shlex.split("divisors 20 --arith const:2 --bound -3")) == 3
        assert main(shlex.split("primes 30 --arith const:3 --bound-factor 0")) == 3
        assert main(shlex.split("coverage --arith const:2 --window 5 --bound-factor -1")) == 3
        assert main(shlex.split(
            "sequence --kind primes --arith const:2 --limit 30 --bound-factor 0")) == 3
        assert "bound factor must be positive, got 0" in capsys.readouterr().err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(shlex.split("divisors 20 --arith bogus:1"))
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(shlex.split("product 3"))
        assert err.value.code == 2

    def test_orbit_needs_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(shlex.split("orbit --n 17"))
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(shlex.split("orbit --n 17 --k 2 --scan 2..4"))
        assert err.value.code == 2
        capsys.readouterr()

    # argparse owns an option's presence, conflicts and spelling (exit 2, with
    # usage); the library owns whether its value is in range (exit 3)
    @pytest.mark.parametrize("flag,code,message", [
        ("--k 2 --steps -1", 3, "step limit must be at least 0, got -1"),
        ("--k 2 --bound 0", 3, "magnitude bound must be at least 1, got 0"),
        ("--scan 2..4 --bound 0", 3, "magnitude bound must be at least 1, got 0"),
        ("--scan 5..1", 2, "argument --scan: scan range '5..1' is empty"),
        ("--scan 2-10", 2,
         "argument --scan: scan range must look like k1..k2[:step], got '2-10'"),
        ("--scan a..b", 2, "argument --scan: bad scan range 'a..b'"),
        ("--scan 2..10:0", 2, "argument --scan: scan step must be positive"),
        ("--k 2 --bound x", 2, "argument --bound: invalid int value: 'x'"),
        ("", 2, "one of the arguments --k --scan is required"),
        ("--k 2 --scan 2..4", 2, "argument --scan: not allowed with argument --k"),
        ("--scan -3..3", 2, "argument --scan: expected one argument"),
    ], ids=["negative_steps", "zero_bound", "scan_zero_bound", "empty_scan",
            "scan_without_dots", "scan_not_integers", "zero_scan_step",
            "bound_not_an_integer", "no_mode", "both_modes", "scan_negative_start_unjoined"])
    def test_orbit_rejects_out_of_range_options(self, flag, code, message, capsys):
        usage = "orbit" if code == 2 else None
        assert run_failing(f"orbit --n 17 {flag}", capsys) == (code, message, usage)

    @pytest.mark.parametrize("command,kind,flag", [
        ("sequence", "squares", "--count"),
        ("sequence", "primes", "--limit"),
        ("oeis-check --bfile b.txt", "cubes", "--count"),
    ], ids=["squares---count", "primes---limit", "oeis-check-cubes---count"])
    def test_sequence_needs_its_size_option(self, command, kind, flag, capsys):
        name = command.split()[0]
        assert run_failing(f"{command} --kind {kind}", capsys) == (
            2, f"{flag} is required for --kind {kind}", name)

    @pytest.mark.parametrize("command,message", [
        ("divisors 5 --bound 0", "search bound must be positive, got 0"),
        ("primes 10 --bound-factor 0", "bound factor must be positive, got 0"),
        ("coverage --window 1", "window half-width must be at least 2, got 1"),
        ("goldbach --k 2 --limit 4", "targets start at 6, got limit 4"),
        ("sequence --kind squares --count 0", "count must be positive, got 0"),
        ("orbit --n 17 --k 2 --bound 0", "magnitude bound must be at least 1, got 0"),
        ("divisors 0 --arith const:1", "every odd term count divides 0; report refused"),
        ("divisors 0 --arith const:2", "every odd term count divides 0; report refused"),
        ("divisors 0 --arith ap:1,2", "every term count congruent to 0 mod 1 passes the "
                                      "divisor lemma's test for 0; report refused"),
    ], ids=["divisors", "primes", "coverage", "goldbach", "sequence", "orbit",
            "divisors_0_const1", "divisors_0_const2", "divisors_0_ap12"])
    def test_out_of_range_value_is_domain_error(self, command, message, capsys):
        assert run_failing(command, capsys) == (3, message, None)

    @pytest.mark.parametrize("command", [
        "oeis-check --kind squares --count 3 --bfile {tmp}/missing/b1.txt",
        "oeis-check --kind squares --count 3 --bfile {tmp}",
        "product 2 3 --out {tmp}",
        "product 2 3 --out {tmp}/missing/out.txt",
    ], ids=["missing_bfile", "directory_bfile", "directory_out", "missing_out_dir"])
    def test_unopenable_file_is_usage_error(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(shlex.split(command.format(tmp=tmp_path)))
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: [Errno ")
        assert captured.err.count("\n") == 1

    def test_stdout_write_errors_are_not_usage_errors(self, monkeypatch):
        # an OSError without a file name did not come from opening --bfile or --out
        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        with pytest.raises(BrokenPipeError):
            main(["product", "2", "3"])

    def test_undecodable_bfile_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "b000290.txt"
        bad.write_bytes(b"1 1\n2 \xff\xfe\n")
        code = main(shlex.split(f"oeis-check --kind squares --count 2 --bfile {bad}"))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("b-file parse error: ")
        assert "codec can't decode" in captured.err
        assert captured.err.count("\n") == 1

    def test_not_divisible_still_exits_0(self, capsys):
        code, out = run_cli(shlex.split("quotient 40 6 --arith const:3"), capsys)
        assert code == 0
        assert out == "NotDivisible 25/6\n"

    @pytest.mark.parametrize("k", [1, 2])
    def test_goldbach_witness_csv_falls_back_to_plain(self, k, capsys):
        # csv has a form for the counterexamples only; with witnesses it
        # would drop them, so the command renders plain instead
        command = f"goldbach --k {k} --limit 40 --witness"
        plain_code, plain = run_cli(shlex.split(command), capsys)
        code, out = run_cli(shlex.split(command + " --format csv"), capsys)
        assert code == plain_code == 0
        assert out == plain
        assert " = " in out
        code, out = run_cli(shlex.split(f"goldbach --k {k} --limit 40 --format csv"), capsys)
        assert code == 0
        assert out == ("counterexample\n14\n22\n26\n28\n30\n38\n" if k == 1 else "counterexample\n")

    def test_empty_goldbach_exits_0(self, capsys):
        code, out = run_cli(shlex.split("goldbach --k 2 --limit 100"), capsys)
        assert code == 0
        assert out == ""


def run_json(command, capsys):
    code, out = run_cli(shlex.split(command + " --format json"), capsys)
    assert code == 0, command
    return json.loads(out)


@pytest.mark.parametrize("k", range(-3, 6))
def test_constants_take_the_closed_routes(k, capsys):
    spec = f"const:{k}"
    for a in (20, -15, 1, 97):
        report = k_divisors(a, k)
        assert run_json(f"divisors {a} --arith {spec}", capsys) == {
            "arith": spec, "bound_defaulted": False, "command": "divisors",
            "divisors": list(report.divisors), "search_bound": None, "subject": a,
            "witnesses": [list(w) for w in report.witnesses],
        }
    flags = [""]
    if k % 2:
        # the sieve at factor 1 misses some odd-k primes, so only the closed
        # census passes the check below
        assert seq_primes_below(40, Constant(k), bound_factor=1) != k_primes_below(40, k)
        flags.append(" --bound-factor 1")
    for flag in flags:
        assert run_json(f"primes 40 --arith {spec}{flag}", capsys) == {
            "arith": spec, "bound_defaulted": False, "command": "primes",
            "limit": 40, "primes": k_primes_below(40, k),
        }
    report = residual_set(k, 12)
    assert run_json(f"coverage --arith {spec} --window 12", capsys) == {
        "arithmetic": report.arithmetic, "command": "coverage",
        "prime_limit_defaulted": False, "primes": list(report.primes_used),
        "residual": list(report.residual), "window": [-12, 12],
    }
    for a, b in ((81, 6), (40, 6), (17, -3), (-7, 2), (10, -1)):
        q = k_quotient(a, b, k)
        expected = ({"status": "not_divisible", "ratio": str(q.ratio)}
                    if isinstance(q, NotDivisible) else {"status": "ok", "result": q})
        assert run_json(f"quotient {a} {b} --arith {spec}", capsys) == {
            "a": a, "arith": spec, "b": b, "command": "quotient", **expected,
        }


def test_trailing_zero_coefficients_take_the_default_bound(capsys):
    # poly:5,0,0 is poly:5,0's sequence, an arithmetic progression
    assert main(shlex.split("divisors 20 --arith poly:5,0,0 --format json")) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    record = json.loads(captured.out)
    assert record["bound_defaulted"] is False
    assert record == {**run_json("divisors 20 --arith poly:5,0", capsys), "arith": "poly:5,0,0"}


@pytest.mark.parametrize("k,count", [(2, 128), (3, 256)])
def test_divisors_of_a_subject_past_trial_division(k, count, capsys):
    # 2**64 - 1 is odd, so for odd k every usual divisor of twice it counts
    a = 2**64 - 1
    factors = [3, 5, 17, 257, 641, 65537, 6700417]
    expected = divisors_from_factors(factors + [2] * (k % 2))
    assert len(expected) == count
    assert run_cli(["divisors", str(a), "--arith", f"const:{k}"], capsys) == (
        0, " ".join(map(str, expected)) + "\n")
    record = run_json(f"divisors {a} --arith const:{k}", capsys)
    assert record["divisors"] == expected
    assert [d for d, _ in record["witnesses"]] == expected
    assert all(k_product(b, d, k) == a for d, b in record["witnesses"])


@pytest.mark.parametrize("subject,code,out", [
    (3317044064679887385961981, 0, "1 1287836182261 2575672364521 3317044064679887385961981\n"),
    (2**89 - 1, 3, ""),
], ids=["psi_13", "prime_2**89-1"])
def test_divisors_at_psi_13_and_above_finish(subject, code, out):
    # psi_13 passes the bases up to 41 and is refuted by base 43; the prime
    # 2**89 - 1 passes every base and is refused, not trial-divided
    result = subprocess.run(
        [sys.executable, "-m", "karith", "divisors", str(subject)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert (result.returncode, result.stdout) == (code, out)
    if code:
        assert result.stderr.startswith("domain error: primality of")
        assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("spec", ["ap:3,0", "poly:3", "poly:3,0,0", "gp:3,1"])
def test_every_spelling_of_a_constant_takes_the_closed_routes(spec, capsys):
    # the arithmetic of the sequence 3, 3, 3, ... whatever its spelling
    assert run_cli(shlex.split(f"divisors -15 --arith {spec}"), capsys) == (
        0, "1 2 3 5 6 10 15 30\n")
    assert k_divisors(-15, 3).divisors == (1, 2, 3, 5, 6, 10, 15, 30)
    # the closed route ignores a positive bound, as const:3's does
    record = run_json(f"divisors -15 --bound 4 --arith {spec}", capsys)
    assert record == {**run_json("divisors -15 --bound 4 --arith const:3", capsys), "arith": spec}
    assert record["search_bound"] is None and record["divisors"][-1] == 30
    assert run_cli(shlex.split(f"primes 30 --arith {spec} --bound-factor 1"), capsys) == (
        0, "2 4 8 16\n")
    assert k_primes_below(30, 3) == [2, 4, 8, 16]
    assert run_json(f"coverage --window 6 --arith {spec}", capsys) == {
        **run_json("coverage --window 6 --arith const:3", capsys), "arithmetic": spec}


def test_the_constant_one_spelled_geometric_needs_no_bound(capsys):
    assert main(shlex.split("divisors 7 --arith gp:1,1 --format json")) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = k_divisors(7, 1)
    assert json.loads(captured.out) == {
        "arith": "gp:1,1", "bound_defaulted": False, "command": "divisors",
        "divisors": list(report.divisors), "search_bound": None, "subject": 7,
        "witnesses": [list(w) for w in report.witnesses],
    }


def test_cubic_divisors_past_six_a_need_no_warning(capsys):
    # the divisor lemma bounds every polynomial sequence: a 6a guess missed 60
    assert main(shlex.split("divisors 2 --arith poly:-6,-5,-4,1")) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("1 2 4 6 10 60\n", "")
    record = run_json("divisors 2 --arith poly:-6,-5,-4,1", capsys)
    assert record["bound_defaulted"] is False and record["search_bound"] == 120
    scanned = run_json("divisors 2 --arith poly:-6,-5,-4,1 --bound 240", capsys)
    assert record == {**scanned, "search_bound": 120}


@pytest.mark.parametrize("command,flag", [
    ("primes 60 --arith poly:1,0,1", "--bound-factor 12"),
    ("sequence --kind primes --arith poly:1,0,1 --limit 60", "--bound-factor 12"),
    ("sequence --kind three-divisor --arith poly:2,-1,0,3 --limit 40", "--bound-factor 60"),
    ("coverage --arith poly:1,0,1 --window 5 --prime-limit 61", "--bound-factor 12"),
    ("divisors 30 --arith poly:0,0,-4", "--bound 360"),
])
def test_polynomial_sequences_default_to_their_divisor_factor(command, flag, capsys):
    assert main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert run_cli(shlex.split(f"{command} {flag}"), capsys) == (0, captured.out)
    assert run_json(command, capsys).get("bound_defaulted") in (None, False)


NO_BOUND = "no divisor bound is known for {}; pass a bound explicitly"
NO_PRIME_LIMIT = "no covering prime limit is known for {}; pass a prime limit explicitly"


def test_sequences_without_a_divisor_lemma_need_a_bound(capsys):
    assert run_failing("divisors 20 --arith gp:1,2 --format json", capsys) == (
        3, NO_BOUND.format("gp:1,2"), None)
    record = run_json("divisors 20 --arith gp:1,2 --bound 120", capsys)
    assert record["bound_defaulted"] is False and record["search_bound"] == 120


@pytest.mark.parametrize("command,message", [
    # a guessed 6a bound printed 8 12 24 40 as fpattern primes and
    # 5 10 11 14 15 18 22 28 30 36 as its three-divisor numbers: it has neither
    ("primes 50 --arith fpattern", NO_BOUND.format("fpattern")),
    ("sequence --kind three-divisor --limit 60 --arith fpattern", NO_BOUND.format("fpattern")),
    ("divisors 5 --arith alt", NO_BOUND.format("alt")),
    ("sequence --kind primes --limit 30 --arith zeroone", NO_BOUND.format("zeroone")),
    ("oeis-check --kind primes --arith primes --limit 20 --bfile tests/fixtures/oeis/b000225.txt",
     NO_BOUND.format("primes")),
    # a guessed prime limit 2N = 24 left 9 residual, though the prime 27 covers it
    ("coverage --arith ap:2,1 --window 12", NO_PRIME_LIMIT.format("ap:2,1")),
    ("coverage --arith fpattern --window 12 --prime-limit 30", NO_BOUND.format("fpattern")),
])
def test_no_command_answers_from_a_guessed_bound(command, message, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parents[1])  # the b-file path is repo-relative
    assert run_failing(command, capsys) == (3, message, None)


def test_a_given_prime_limit_covers_nine_under_ap21(capsys):
    # brute force: in ap:2,1 (terms a_i = i + 1) d divides a when d divides
    # a - W(d), W(d) the literal sum of (d - i) * a_i over i < d
    def divides(d, a):
        return (a - sum((d - i) * (i + 1) for i in range(1, d))) % d == 0

    # the divisor lemma (1, 6, (0,)) puts every divisor of 27 at most 6 * 27,
    # and it has two: 27 is a prime of the arithmetic
    assert [d for d in range(1, 6 * 27 + 1) if divides(d, 27)] == [1, 81]
    assert divides(27, 9)  # 9 is a multiple of the prime 27
    record = run_json("coverage --arith ap:2,1 --window 12 --prime-limit 73", capsys)
    assert 27 in record["primes"] and 9 not in record["residual"]
    assert record["prime_limit_defaulted"] is False


README = FIXTURES.parents[1] / "README.md"
README_EXAMPLES = re.findall(r"^karith (.+?)\s+# (.+)$", README.read_text(), re.M)
# README examples whose comment describes the output instead of quoting it
DESCRIBED = ["trajectory + cycle summary", "orbit-length plot data"]
QUOTED = [(args, comment) for args, comment in README_EXAMPLES if comment not in DESCRIBED]


def test_readme_examples_quote_or_describe():
    assert [c for _, c in README_EXAMPLES if c in DESCRIBED] == DESCRIBED
    assert len(QUOTED) >= 8


@pytest.mark.parametrize("args,comment", QUOTED, ids=[args for args, _ in QUOTED])
def test_readme_example_prints_its_comment(args, comment, capsys):
    assert main(shlex.split(args)) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (comment + "\n", "")


COMMANDS = ["product", "quotient", "divisors", "primes", "orbit", "coverage", "sequence",
            "oeis-check", "goldbach"]


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: karith {command}".rstrip())


# option -> (type, default, choices, required, nargs), pinned per command
FORMAT = {"--format": (None, "plain", ("plain", "csv", "json"), False, None),
          "--out": (None, None, None, False, None)}
ARITH = {**FORMAT, "--arith": ("_arith", "const:2", None, False, None)}
CENSUS = {**ARITH, "--bound-factor": ("int", None, None, False, None)}
TERMS = {**CENSUS, "--count": ("int", None, None, False, None),
         "--limit": ("int", None, None, False, None),
         "--kind": (None, None, ("squares", "cubes", "primes", "three-divisor"), True, None)}
POSITIONAL = ("int", None, None, True, None)
OPTION_TABLE = {
    "product": {**ARITH, "m": POSITIONAL, "n": POSITIONAL},
    "quotient": {**ARITH, "a": POSITIONAL, "b": POSITIONAL},
    "divisors": {**ARITH, "a": POSITIONAL, "--bound": ("int", None, None, False, None)},
    "primes": {**CENSUS, "limit": POSITIONAL},
    "orbit": {**FORMAT, "--n": ("int", None, None, True, None),
              "--k": ("int", None, None, False, None),
              "--scan": ("_parse_scan", None, None, False, None),
              "--bound": ("int", None, None, False, None),
              "--steps": ("int", None, None, False, None)},
    "coverage": {**CENSUS, "--window": ("int", None, None, True, None),
                 "--prime-limit": ("int", None, None, False, None)},
    "sequence": TERMS,
    "oeis-check": {**TERMS, "--bfile": (None, None, None, True, None),
                   "--offset": ("int", 1, None, False, None)},
    "goldbach": {**FORMAT, "--k": ("int", None, None, True, None),
                 "--limit": ("int", None, None, True, None),
                 "--witness": (None, False, None, False, 0)},
}


def test_option_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMANDS
    for command, p in sub.choices.items():
        options = {
            ", ".join(a.option_strings) or a.dest:
                (getattr(a.type, "__qualname__", a.type), a.default, a.choices, a.required,
                 a.nargs)
            for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert options == OPTION_TABLE[command], command
        groups = [(g.required, [a.dest for a in g._group_actions])
                  for g in p._mutually_exclusive_groups]
        assert groups == ([(True, ["k", "scan"])] if command == "orbit" else []), command


class TestOeisCheck:
    def test_match(self, capsys):
        bfile = OEIS / "b000225.txt"
        code, out = run_cli(
            shlex.split(
                f"oeis-check --kind squares --arith gp:1,2 --count 10 "
                f"--bfile {bfile} --offset 1"
            ),
            capsys,
        )
        assert code == 0
        assert "full match" in out

    def test_mismatch_is_4(self, capsys):
        bfile = OEIS / "b000125.txt"
        code, out = run_cli(
            shlex.split(
                f"oeis-check --kind squares --arith gp:1,2 --count 10 "
                f"--bfile {bfile} --offset 0"
            ),
            capsys,
        )
        assert code == 4
        assert "mismatch at index" in out

    def test_wrong_offset_detected(self, capsys):
        bfile = OEIS / "b000225.txt"
        code, out = run_cli(
            shlex.split(
                f"oeis-check --kind squares --arith gp:1,2 --count 10 "
                f"--bfile {bfile} --offset 0"
            ),
            capsys,
        )
        assert code == 4

    def test_empty_prefix_is_a_mismatch(self, capsys):
        # no primes below 2: nothing was compared, so nothing matched
        bfile = OEIS / "b000225.txt"
        code, out = run_cli(
            shlex.split(f"oeis-check --kind primes --limit 2 --bfile {bfile} --format json"),
            capsys,
        )
        assert code == 4
        assert json.loads(out) == {
            "arith": "const:2", "bfile": "A000225", "command": "oeis_check", "compared": 0,
            "detail": "no generated terms to compare", "kind": "primes", "matched": False,
            "offset": 1,
        }

    def test_malformed_bfile_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\nwat\n")
        code = main(
            shlex.split(
                f"oeis-check --kind squares --arith gp:1,2 --count 2 --bfile {bad}"
            )
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "line 2" in captured.err

    def test_three_divisor_kind(self, tmp_path, capsys):
        # the census that sequence --kind three-divisor prints, checked as a b-file
        terms = (EXPECTED / "threediv_ap12_250.txt").read_text().split()
        bfile = tmp_path / "bthreediv.txt"
        bfile.write_text("".join(f"{i} {t}\n" for i, t in enumerate(terms, start=1)))
        code, out = run_cli(
            shlex.split(f"oeis-check --kind three-divisor --arith ap:1,2 --limit 250 "
                        f"--bfile {bfile}"),
            capsys,
        )
        assert code == 0
        assert "full match" in out

    def test_all_vendored_alignments_through_the_cli(self, capsys):
        cases = [
            ("squares", "ap:0,1", 10, "b000125.txt", 0),
            ("squares", "ap:1,1", 10, "b004006.txt", 1),
            ("squares", "gp:1,2", 10, "b000225.txt", 1),
            ("squares", "primes", 17, "b023538.txt", 1),
            ("squares", "alt", 20, "b032766.txt", 1),
            ("cubes", "alt", 20, "b105638.txt", 4),
            ("squares", "zeroone", 20, "b002620.txt", 2),
            ("cubes", "zeroone", 17, "b005998.txt", 0),
        ]
        for kind, arith, count, fname, offset in cases:
            code, _ = run_cli(
                shlex.split(
                    f"oeis-check --kind {kind} --arith {arith} --count {count} "
                    f"--bfile {OEIS / fname} --offset {offset}"
                ),
                capsys,
            )
            assert code == 0, (kind, arith, fname)


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "karith", "product", "3", "5", "--arith", "const:1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert result.returncode == 0
    assert result.stdout == "5\n"
