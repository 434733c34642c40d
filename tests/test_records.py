"""karith's frozen records behave as ``@dataclass(frozen=True)`` classes do.

Each record is checked against a twin that ``dataclasses.make_dataclass``
builds, frozen, from the field names and defaults listed here and from the
methods the record's own class body defines (``__post_init__``, ``term``,
properties): what the dataclass decorator would have made of that body.
"""

import ast
import copy
import dataclasses
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from karith import collatz, core, coverage, generators, oeis
from karith.collatz import OrbitKind

REQUIRED = dataclasses.MISSING

#: record -> (field name, default) pairs in field order, and two valid
#: full sets of field values that build unequal records
RECORDS = {
    core.NotDivisible: ([("ratio", REQUIRED)], (Fraction(7, 2),), (Fraction(1, 3),)),
    core.DivisorReport: (
        [("subject", REQUIRED), ("divisors", REQUIRED), ("witnesses", REQUIRED),
         ("search_bound", None)],
        (12, (1, 3), ((1, 12), (3, 5)), None), (12, (1,), ((1, 12),), 40)),
    core.Representation: (
        [("start", REQUIRED), ("length", REQUIRED), ("terms", REQUIRED)],
        (5, 3, (3, 4, 5)), (6, 3, (4, 5, 6))),
    generators.Constant: ([("k", REQUIRED)], (3,), (4,)),
    generators.ArithProg: ([("a1", REQUIRED), ("d", REQUIRED)], (3, 1), (1, 2)),
    generators.GeomProg: ([("a1", REQUIRED), ("r", REQUIRED)], (3, 1), (1, 2)),
    generators.Polynomial: ([("coeffs", REQUIRED)], ([1, 0, 5],), ((),)),
    generators.UsualPrimes: ([], (), None),
    generators.Explicit: ([("terms", REQUIRED)], ([1, 2, 3],), ((),)),
    generators.AlternatingOnes: ([], (), None),
    generators.ZeroOne: ([], (), None),
    generators.FurstPattern: ([], (), None),
    collatz.OrbitOutcome: (
        [("trajectory", REQUIRED), ("kind", REQUIRED), ("pre_period", None),
         ("cycle_length", None), ("cycle_entry", None), ("fixed_value", None),
         ("bound", None), ("steps", None)],
        ((4, 2, 1, 4), OrbitKind.CYCLE, 0, 3, 4, None, None, None),
        ((7, 22), OrbitKind.MAGNITUDE_EXCEEDED, None, None, None, None, 20, None)),
    collatz.GoldbachReport: (
        [("k", REQUIRED), ("limit", REQUIRED), ("counterexamples", REQUIRED),
         ("decompositions", None)],
        (2, 10, (), None), (1, 20, (14,), {6: (2, 4)})),
    coverage.CoverageReport: (
        [("window_half", REQUIRED), ("arithmetic", REQUIRED), ("primes_used", REQUIRED),
         ("offsets", REQUIRED), ("residual", REQUIRED)],
        (2, "const:2", (2,), (0,), (-1, 1)),
        (1, "const:1", (2,), (-1,), (0,))),
    oeis.OeisFixture: (
        [("sequence_id", REQUIRED), ("terms", REQUIRED)],
        ("A000225", ((0, 0), (1, 1))), ("", ((1, 1),))),
    oeis.PrefixComparison: (
        [("matched", REQUIRED), ("compared", REQUIRED), ("first_mismatch", None),
         ("detail", "")],
        (True, 2, None, "full match"), (False, 0, (1, 2, 3), "")),
}
#: what the dataclass decorator generates, and so leaves out of a twin's body
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__replace__", "__match_args__", "__dataclass_fields__", "__dataclass_params__",
             "__dict__", "__weakref__", "__module__", "__qualname__", "__annotations__",
             "__doc__"}
#: another record's values, for a cross-class comparison
FOREIGN = {generators.GeomProg: generators.ArithProg}


def twin_of(record):
    """A frozen dataclass of the record's listed fields and its own class body."""
    fields, _, _ = RECORDS[record]
    body = {name: value for name, value in vars(record).items()
            if name not in GENERATED and name not in dict(fields)}
    specs = [(name, "object") if default is REQUIRED else (name, "object", default)
             for name, default in fields]
    return dataclasses.make_dataclass(record.__name__, specs, bases=record.__bases__,
                                      namespace=body, frozen=True)


def outcome(call):
    """call's value, or the type and message of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001  (any exception is an outcome)
        return type(exc), str(exc)


def summary(value):
    """What two instances of a record and its twin share: repr, hash and vars."""
    return repr(value), outcome(lambda: hash(value)), list(vars(value).items())


IDS = [record.__name__ for record in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    return request.param


class TestRecordParity:
    def test_fields_and_defaults(self, record):
        fields, _, _ = RECORDS[record]
        assert dataclasses.is_dataclass(record)
        assert [(f.name, f.default) for f in dataclasses.fields(record)] == fields
        assert [(f.name, f.default) for f in dataclasses.fields(twin_of(record))] == fields
        assert record.__match_args__ == twin_of(record).__match_args__
        assert repr(record.__dataclass_params__) == repr(twin_of(record).__dataclass_params__)

    def test_construction(self, record):
        fields, values, _ = RECORDS[record]
        twin = twin_of(record)
        names = [name for name, _ in fields]
        required = [name for name, default in fields if default is REQUIRED]
        calls = [
            ((*values,), {}),  # positional
            ((), dict(zip(names, values))),  # keyword
            ((), dict(reversed([*zip(names, values)]))),  # keyword, out of order
            ((*values[:len(required)],), {}),  # defaulted
            ((*values[:1],), dict([*zip(names, values)][1:])),  # mixed
            ((), {}),  # missing, unless every field has a default
            ((), dict(zip(required[:1], values))),  # missing all but one
            ((*values, 0), {}),  # extra positional
            ((*values,), {"zzz_unknown": 0}),  # unexpected keyword
            ((*values[:1],), dict(zip(names[:1], values))),  # repeated
        ]
        for args, kwargs in calls:
            got = outcome(lambda: summary(record(*args, **kwargs)))
            want = outcome(lambda: summary(twin(*args, **kwargs)))
            assert got == want, (args, kwargs)

    def test_post_init_effects(self):
        p = generators.Polynomial([1, 0, 5])
        assert p.coeffs == (1, 0, 5) and p.differences == (1, 5, 10)
        assert vars(p) == vars(twin_of(generators.Polynomial)([1, 0, 5]))
        assert generators.Polynomial(()).coeffs == (0,)
        assert generators.Explicit([1, 2]).terms == (1, 2)
        assert generators.Constant(3).differences == (3,)

    def test_equality_and_hash(self, record):
        _, values, other = RECORDS[record]
        twin = twin_of(record)
        a, b = record(*values), record(*values)
        assert (a == b, a != b) == (twin(*values) == twin(*values),
                                     twin(*values) != twin(*values)) == (True, False)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(twin(*values)))
        assert a != twin(*values) and not a == twin(*values)
        if other is not None:
            assert (a == record(*other)) is (twin(*values) == twin(*other)) is False
        if record in FOREIGN:
            assert a != FOREIGN[record](*values)

    def test_geometric_and_arithmetic_twins_differ(self):
        assert generators.GeomProg(3, 1) != generators.ArithProg(3, 1)
        assert generators.GeomProg(3, 1).differences == generators.ArithProg(3, 0).differences

    def test_pickle_and_copies(self, record):
        _, values, _ = RECORDS[record]
        value = record(*values)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is record
            assert twin == value and summary(twin) == summary(value)

    def test_frozen(self, record):
        fields, values, _ = RECORDS[record]
        value, twin = record(*values), twin_of(record)(*values)
        for name in [name for name, _ in fields] + ["extra"]:
            got = outcome(lambda: setattr(value, name, 0))
            assert got[0] is dataclasses.FrozenInstanceError
            assert got == outcome(lambda: setattr(twin, name, 0))
            got = outcome(lambda: delattr(value, name))
            assert got[0] is dataclasses.FrozenInstanceError
            assert got == outcome(lambda: delattr(twin, name))
        assert summary(value) == summary(twin)

    def test_undecorated_subclass(self, record):
        fields, values, _ = RECORDS[record]
        twin_record = twin_of(record)
        sub, twin_sub = (type("Sub", (base,), {}) for base in (record, twin_record))
        value, twin = sub(*values), twin_sub(*values)
        assert summary(value) == summary(twin)
        for name in [name for name, _ in fields] + ["extra", "extra"]:
            for act in (lambda v: setattr(v, name, 0), lambda v: delattr(v, name)):
                assert outcome(lambda: act(value)) == outcome(lambda: act(twin)), name
                assert summary(value) == summary(twin)
        assert dataclasses.is_dataclass(sub) and dataclasses.is_dataclass(value)
        assert [(f.name, f.default) for f in dataclasses.fields(sub)] == fields
        assert [(f.name, f.default) for f in dataclasses.fields(value)] == fields
        assert [(f.name, f.default) for f in dataclasses.fields(twin_sub)] == fields
        assert summary(dataclasses.replace(value)) == summary(dataclasses.replace(twin))
        assert type(dataclasses.replace(value)) is sub
        parent, twin_parent = record(*values), twin_record(*values)
        assert (value == parent, parent == value, value != parent) \
            == (twin == twin_parent, twin_parent == twin, twin != twin_parent) \
            == (False, False, True)

    def test_replace(self, record):
        fields, values, other = RECORDS[record]
        value, twin = record(*values), twin_of(record)(*values)
        assert dataclasses.replace(value) == value
        assert summary(dataclasses.replace(value)) == summary(dataclasses.replace(twin))
        assert dataclasses.asdict(value) == dataclasses.asdict(twin)
        if other is not None:
            name, new = fields[0][0], other[0]
            assert summary(dataclasses.replace(value, **{name: new})) \
                == summary(dataclasses.replace(twin, **{name: new}))
        assert outcome(lambda: dataclasses.replace(value, zzz_unknown=0)) \
            == outcome(lambda: dataclasses.replace(twin, zzz_unknown=0))
        assert hasattr(record, "__replace__") == hasattr(twin_of(record), "__replace__")
        if sys.version_info >= (3, 13):
            assert summary(copy.replace(value)) == summary(copy.replace(twin))

    def test_match_args(self):
        match core.Representation(5, 3, (3, 4, 5)):
            case core.Representation(start, length):
                assert (start, length) == (5, 3)
        match generators.ArithProg(1, 2):
            case generators.GeomProg():
                pytest.fail("an arithmetic progression matched GeomProg")
            case generators.ArithProg(a1, d):
                assert (a1, d) == (1, 2)

    def test_generator_base_is_no_record(self):
        assert not dataclasses.is_dataclass(generators.Generator)
        assert "differences" not in {f.name for f in dataclasses.fields(generators.Constant)}


def test_one_dataclass_twin_per_record(monkeypatch):
    built = []
    make_dataclass = dataclasses.make_dataclass

    def counting(name, *args, **kwargs):
        built.append(name)
        return make_dataclass(name, *args, **kwargs)

    monkeypatch.setattr(dataclasses, "make_dataclass", counting)
    core._dataclass_twin.cache_clear()
    for record, (fields, values, _) in RECORDS.items():
        names = [name for name, _ in fields]
        for _ in range(3):
            assert record(**dict(zip(names, values))) == record(*values)
            assert outcome(lambda: record(*values, 0))[0] is TypeError
            assert outcome(lambda: record(zzz_unknown=0))[0] is TypeError
            assert [f.name for f in dataclasses.fields(record)] == names
            assert record.__dataclass_params__.frozen
            assert dataclasses.replace(record(*values)) == record(*values)
    assert sorted(built) == sorted(IDS)


def test_the_library_builds_records_positionally():
    # any other call goes through the dataclass twin and imports dataclasses
    trees = {path.name: ast.parse(path.read_text(), path.name)
             for path in sorted(Path(core.__file__).parent.glob("*.py"))}
    arities = {node.name: sum(isinstance(line, ast.AnnAssign) for line in node.body)
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(isinstance(d, ast.Name) and d.id == "_record" for d in node.decorator_list)}
    assert sorted(arities) == sorted(IDS)
    called, refused = set(), []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            if name not in arities:
                continue
            called.add(name)
            if node.keywords or len(node.args) != arities[name] \
                    or any(isinstance(arg, ast.Starred) for arg in node.args):
                refused.append(f"{module}:{node.lineno} {name}")
    assert refused == []
    # every result record is built by a call the guard sees
    assert {"NotDivisible", "DivisorReport", "Representation", "OrbitOutcome",
            "GoldbachReport", "CoverageReport", "OeisFixture", "PrefixComparison"} <= called
