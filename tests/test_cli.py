"""CLI behavior: fixture regression, formats, exit codes."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

from karith import (
    Constant,
    NotDivisible,
    k_divisors,
    k_primes_below,
    k_quotient,
    residual_set,
    seq_primes_below,
)
from karith.cli import main

OEIS = FIXTURES / "oeis"
EXPECTED = FIXTURES / "expected"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


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
    code, out = run_cli(shlex.split(command), capsys)
    assert code == 0
    assert out == (EXPECTED / fixture).read_text()


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

    @pytest.mark.parametrize("flag,message", [
        ("--k 2 --steps -1", "argument --steps: must be at least 0, got -1"),
        ("--k 2 --bound 0", "argument --bound: must be at least 1, got 0"),
        ("--scan 5..1", "argument --scan: scan range '5..1' is empty"),
    ], ids=["negative_steps", "zero_bound", "empty_scan"])
    def test_orbit_rejects_out_of_range_options(self, flag, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(shlex.split(f"orbit --n 17 {flag}"))
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: karith orbit")
        assert captured.err.endswith(f"error: {message}\n")

    def test_not_divisible_still_exits_0(self, capsys):
        code, out = run_cli(shlex.split("quotient 40 6 --arith const:3"), capsys)
        assert code == 0
        assert out == "NotDivisible 25/6\n"

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
    assert run_json(f"coverage --arith {spec} --window 12", capsys) == {
        **residual_set(k, 12).to_json_dict(),
        "command": "coverage", "prime_limit_defaulted": False,
    }
    for a, b in ((81, 6), (40, 6), (17, -3), (-7, 2), (10, -1)):
        q = k_quotient(a, b, k)
        expected = ({"status": "not_divisible", "ratio": str(q.ratio)}
                    if isinstance(q, NotDivisible) else {"status": "ok", "result": q})
        assert run_json(f"quotient {a} {b} --arith {spec}", capsys) == {
            "a": a, "arith": spec, "b": b, "command": "quotient", **expected,
        }


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
