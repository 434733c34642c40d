"""The package namespace resolves lazily, and a CLI command loads only the
modules it runs."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import karith

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "AlternatingOnes", "ArithProg", "BFileParseError", "Constant", "CoverageReport",
    "DEFAULT_MAGNITUDE_BOUND", "DEFAULT_STEP_LIMIT", "DivisorReport", "DomainError",
    "Explicit", "FurstPattern", "Generator", "GeneratorSpecError", "GeomProg",
    "GoldbachReport", "NotDivisible", "OddOrbitFate", "OeisFixture", "OrbitKind",
    "OrbitOutcome", "Polynomial", "PrefixComparison", "PrefixExhaustedError", "PrefixSums",
    "Representation", "UsualPrimes", "ZeroOne", "collatz", "collatz_step", "compare_prefix",
    "core", "coverage", "cubes_sequence", "divisors", "exact_divisor_count_numbers",
    "fixed_points", "generated", "generators", "goldbach_scan", "identity_suite",
    "is_k_prime", "is_k_prime_by_characterization", "k_divides", "k_divisors",
    "k_divisors_by_scan", "k_primes_below", "k_product", "k_product_by_summation",
    "k_quotient", "locate_power_of_two_cover", "nth_prime", "odd_k_classification", "oeis",
    "orbit", "orbit_length_scan", "parse_bfile", "parse_bfile_text", "parse_generator",
    "polygonal", "primes_below", "product_parity_set", "progression_window",
    "representations", "residual_set", "seq_divisors", "seq_is_prime", "seq_primes_below",
    "seq_product", "seq_quotient", "seq_residual_set", "squares_sequence", "t_peano_product",
    "two_divides", "usual_divisors", "verify_witnesses",
]
MODULES = ("collatz", "core", "coverage", "generated", "generators", "oeis")


def run_python(code: str, *flags: str) -> str:
    """stdout of a fresh interpreter, started with flags, running code with
    karith on its path."""
    result = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                            text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestNamespace:
    def test_all_is_the_public_list(self):
        assert len(PUBLIC_NAMES) == 75
        assert karith.__all__ == PUBLIC_NAMES

    def test_fresh_dir_lists_the_public_names(self):
        out = run_python("import json, karith; print(json.dumps("
                         "[n for n in dir(karith) if not n.startswith('_')]))")
        assert json.loads(out) == PUBLIC_NAMES

    def test_names_resolve_to_their_module_objects(self):
        sources = karith._EXPORTS
        assert sorted(sources) == list(MODULES)
        assert sorted([*sources, *(n for names in sources.values() for n in names)]) \
            == PUBLIC_NAMES
        for module_name, names in sources.items():
            module = getattr(karith, module_name)
            assert module is sys.modules[f"karith.{module_name}"]
            for name in names:
                assert getattr(karith, name) is getattr(module, name), name

    def test_resolved_names_are_bound_in_the_package(self):
        karith.seq_divisors  # noqa: B018  (resolves the name)
        assert vars(karith)["seq_divisors"] is karith.generated.seq_divisors

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'karith' has no attribute "
                                                 "'no_such_name'$"):
            karith.no_such_name  # noqa: B018
        assert not hasattr(karith, "no_such_name")

    def test_star_import(self):
        out = run_python("from karith import *; import json as _json; "
                         "print(_json.dumps(sorted(n for n in dir() if not n.startswith('_'))))")
        assert json.loads(out) == PUBLIC_NAMES

    def test_bare_import_loads_no_module(self):
        out = run_python("import sys, karith; "
                         "print(sorted(m for m in sys.modules if m.startswith('karith.')))")
        assert out == "[]\n"

    def test_dir_loads_no_module(self):
        out = run_python("import json, sys, karith\n"
                         "names = dir(karith)\n"
                         "print(json.dumps([sorted(set(karith.__all__) - set(names)),\n"
                         "                  sorted(m for m in sys.modules if m.startswith('karith.'))]))",
                         "-S")
        assert json.loads(out) == [[], []]

    def test_module_name_loads_that_module_and_its_imports(self):
        out = run_python("import sys, karith\n"
                         "module = karith.collatz\n"
                         "print(module is sys.modules['karith.collatz'] is vars(karith)['collatz'],\n"
                         "      *sorted(m for m in sys.modules if m.startswith('karith.')))", "-S")
        assert out == "True karith.collatz karith.core\n"


LOADED = ("karith.collatz", "karith.coverage", "karith.generated", "karith.generators",
          "karith.oeis", "fractions", "json", "dataclasses", "inspect", "typing")
#: records are built without dataclasses and annotations never import typing
NEVER_LOADED = {"dataclasses", "inspect", "typing"}


def loaded_after(argv: list[str], *flags: str) -> tuple[str, list[str]]:
    """The CLI's stdout for argv in a fresh interpreter started with flags,
    and which of LOADED importing the CLI and running it added to
    sys.modules: a module interpreter start-up (say, a site hook) already
    loaded is not counted.  The command must exit 0."""
    out = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from karith.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, *(m for m in {LOADED!r} if m in sys.modules and m not in before))\n",
        *flags)
    *text, status = out.splitlines(keepends=True)
    code, *loaded = status.split()
    assert code == "0"
    return "".join(text), loaded


BFILE = SRC.parent / "tests" / "fixtures" / "oeis" / "b000225.txt"
COMMANDS = {
    "product": ["product", "3", "4"],
    "quotient": ["quotient", "7", "2"],
    "divisors": ["divisors", "120", "--arith", "ap:1,2", "--format", "json"],
    "primes": ["primes", "50", "--arith", "const:2"],
    "orbit": ["orbit", "--n", "7", "--k", "3"],
    "coverage": ["coverage", "--arith", "const:2", "--window", "20"],
    "sequence": ["sequence", "--kind", "squares", "--arith", "ap:0,1", "--count", "5"],
    "oeis-check": ["oeis-check", "--kind", "squares", "--arith", "gp:1,2", "--count", "10",
                   "--bfile", str(BFILE), "--offset", "1"],
    "goldbach": ["goldbach", "--k", "1", "--limit", "20"],
}


class TestCommandImports:
    def test_product_loads_no_orbit_coverage_oeis_fractions_or_json(self):
        out, loaded = loaded_after(["product", "3", "4"])
        assert out == "12\n"
        assert loaded == ["karith.generated", "karith.generators"]

    def test_orbit_loads_no_generators(self):
        out, loaded = loaded_after(["orbit", "--n", "7", "--k", "3"])
        assert out == ("7 3 1 0 4 16 52 160 484 1456 4372 13120 39364 118096 354292\n"
                       "kind=magnitude_exceeded bound=500000\n")
        assert loaded == ["karith.collatz"]

    def test_inexact_quotient_loads_fractions(self):
        out, loaded = loaded_after(["quotient", "7", "2"])
        assert out == "NotDivisible 7/2\n"
        assert "fractions" in loaded

    @pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_loads_dataclasses_inspect_or_typing(self, command, flags):
        # -S: a stock start-up, where no site hook has preloaded typing
        _, loaded = loaded_after(COMMANDS[command], *flags)
        assert not NEVER_LOADED & set(loaded), loaded

    def test_dataclasses_view_loads_dataclasses_on_first_read(self):
        # built positionally and read field by field, records need no dataclasses;
        # the first read of a name their dataclass twin supplies imports it
        out = run_python(
            "import sys, karith\n"
            "report = karith.k_divisors(12, 2)\n"
            "rep = karith.representations(7, 2)[0]\n"
            "g = karith.ArithProg(1, 2)\n"
            "outcome = karith.orbit(7, 3)\n"
            "report.divisors, report.witnesses, rep.terms, g.a1, g.differences, outcome.kind\n"
            "print('dataclasses' in sys.modules)\n"
            "repr(report)\n"
            "print('dataclasses' in sys.modules)\n"
            "import dataclasses\n"
            "print(*(f.name for f in dataclasses.fields(report)))\n", "-S")
        assert out == "False\nTrue\nsubject divisors witnesses search_bound\n"


#: what a record reads from its dataclass twin rather than writing itself
TWIN_SUPPLIED = ["__repr__", "__eq__", "__hash__", "__match_args__", "__dataclass_fields__",
                 "__dataclass_params__"] + ["__replace__"] * (sys.version_info >= (3, 13))


def test_twin_supplied_names_are_the_twins_own():
    # a fresh child, so each name's first read is the one made here, from the class
    out = run_python(textwrap.dedent(f"""
        import json, karith
        from karith import core
        records = {{value for module in {MODULES!r}
                   for value in vars(getattr(karith, module)).values()
                   if isinstance(value, type)
                   and isinstance(vars(value).get("__dataclass_fields__"), core._FromTwin)}}
        differ = []
        for record in records:
            twin = core._dataclass_twin(record)
            for name in {TWIN_SUPPLIED!r}:
                got, want = getattr(record, name), getattr(twin, name)
                if not (got is want if callable(want) else got == want) \\
                        or vars(record)[name] is not want:
                    differ.append(f"{{record.__name__}}.{{name}}")
        print(json.dumps([len(records), differ]))
        """), "-S")
    assert json.loads(out) == [17, []]
