"""The contracts of the value types: construction, validation, immutability,
reprs, equality and hashing, whatever class form each type takes."""

import dataclasses
import weakref

import pytest

from propcheck import (
    INCONSISTENT,
    POP,
    PUSH,
    BugId,
    Checker,
    DiveConfig,
    Failure,
    Filter,
    Filtered,
    GenConfig,
    Instance,
    Pop,
    Push,
    Recipe,
    RestrictDomain,
    ShrinkResult,
    TestReport as Report,
)

INST = Instance.of([[1, 2], [3]])
SHRUNK = Instance.of([[1], [3]])


def _pred(assignment):
    return True


def _apply(inst):
    return INCONSISTENT


FAILURE = Failure(INST, SHRUNK, INCONSISTENT, Filtered(SHRUNK), "r", False, ())

# Each type: every field with a value that is not its default, in
# positional order, then the defaults of the fields that have one.
TYPES = {
    "Failure": (
        Failure,
        {
            "original": INST,
            "shrunk": SHRUNK,
            "trusted_outcome": INCONSISTENT,
            "tested_outcome": Filtered(SHRUNK),
            "reason": "r",
            "shrunk_minimal": False,
            "transcript": (PUSH,),
        },
        {"shrunk_minimal": True, "transcript": None},
    ),
    "TestReport": (
        Report,
        {"passed": False, "tests_run": 3, "seed": 7, "failure": FAILURE, "redraws": 2},
        {"redraws": 0},
    ),
    "ShrinkResult": (
        ShrinkResult,
        {"instance": INST, "minimal": True, "evaluations": 4},
        {},
    ),
    "Filter": (Filter, {"arity": 2, "apply": _apply, "name": "f"}, {"name": ""}),
    "GenConfig": (
        GenConfig,
        {"n_vars": 4, "value_min": -2, "value_max": 5, "density": 0.25, "n_tests": 9, "seed": 11},
        {"n_vars": 5, "value_min": -3, "value_max": 3, "density": 0.5, "n_tests": 100, "seed": 0},
    ),
    "DiveConfig": (
        DiveConfig,
        {"nb_dives": 3, "max_depth": 8, "seed": 5},
        {"nb_dives": 20, "max_depth": 64, "seed": 0},
    ),
    "RestrictDomain": (
        RestrictDomain,
        {"index": 1, "relation": "<", "constant": 2},
        {},
    ),
    "Recipe": (
        Recipe,
        {"kind": "sum-bc", "total": 4, "bug": BugId.BUG_SUM_REVERSED_BOUND},
        {"total": None, "bug": BugId.NONE},
    ),
    "Checker": (Checker, {"arity": 2, "predicate": _pred, "name": "c"}, {"name": ""}),
    "Push": (Push, {}, {}),
    "Pop": (Pop, {}, {}),
}


def _fields_of(obj, fields):
    return {name: getattr(obj, name) for name in fields}


@pytest.mark.parametrize("name", TYPES)
def test_construction_by_position_and_keyword(name):
    cls, fields, defaults = TYPES[name]
    assert _fields_of(cls(*fields.values()), fields) == fields
    assert _fields_of(cls(**fields), fields) == fields
    required = {k: v for k, v in fields.items() if k not in defaults}
    assert _fields_of(cls(**required), fields) == {**fields, **defaults}


@pytest.mark.parametrize("name", TYPES)
def test_assigning_raises_attribute_error(name):
    cls, fields, _ = TYPES[name]
    obj = cls(**fields)
    for attr in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)


@pytest.mark.parametrize("name", [n for n in TYPES if n != "Checker"])
def test_equal_values_give_equal_objects_and_hashes(name):
    cls, fields, _ = TYPES[name]
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_markers_compare_by_type():
    assert PUSH == Push() and POP == Pop()
    assert Push() != Pop() and not Push() == Pop()
    assert hash(PUSH) == hash(Push())


def test_checkers_compare_by_identity_and_key_weak_dicts():
    a, b = Checker(2, _pred, name="c"), Checker(2, _pred, name="c")
    assert a != b and a == a
    memos = weakref.WeakKeyDictionary()
    memos[a], memos[b] = 1, 2
    assert (memos[a], memos[b]) == (1, 2)
    del a
    assert list(memos.values()) == [2]


def test_reprs():
    assert repr(RestrictDomain(1, "<", 2)) == "RestrictDomain(index=1, relation='<', constant=2)"
    assert repr(Push()) == "Push()"
    assert repr(Pop()) == "Pop()"
    failure = (
        "Failure(original=Instance[{1, 2}, {3}], shrunk=Instance[{1}, {3}], "
        "trusted_outcome=Inconsistent, tested_outcome=Filtered(Instance[{1}, {3}]), "
        "reason='r', shrunk_minimal=False, transcript=())"
    )
    assert repr(FAILURE) == failure
    assert repr(Report(False, 3, 7, FAILURE)) == (
        f"TestReport(passed=False, tests_run=3, seed=7, failure={failure}, redraws=0)"
    )
    assert repr(Report(True, 3, 7)) == (
        "TestReport(passed=True, tests_run=3, seed=7, failure=None, redraws=0)"
    )


_GEN = (GenConfig, {})
_DIVE = (DiveConfig, {})
_RESTRICT = (RestrictDomain, {"index": 0, "relation": "=", "constant": 1})
_REPORT = (Report, {"passed": True, "tests_run": 1, "seed": 0})

INVALID = [
    (*_GEN, {"n_vars": 0}, "n_vars must be >= 1"),
    (*_GEN, {"value_min": 4}, "value_min must be <= value_max"),
    (*_GEN, {"value_min": -(2**31) - 1}, "value_min and value_max must be signed 32-bit integers"),
    (*_GEN, {"value_max": 2**31}, "value_min and value_max must be signed 32-bit integers"),
    (
        *_GEN,
        {"n_vars": 1, "value_min": 0, "value_max": 1_000_000},
        "(value_max - value_min + 1) * n_vars must be at most 1,000,000"
        " (one draw per candidate value)",
    ),
    (*_GEN, {"density": 0.0}, "density must be in (0, 1]"),
    (*_GEN, {"density": 1.5}, "density must be in (0, 1]"),
    (*_GEN, {"n_tests": 0}, "n_tests must be >= 1"),
    (*_GEN, {"seed": -1}, "seed must be a 64-bit unsigned integer"),
    (*_GEN, {"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
    (*_DIVE, {"nb_dives": 0}, "nb_dives must be >= 1"),
    (*_DIVE, {"max_depth": 0}, "max_depth must be >= 1"),
    (*_RESTRICT, {"relation": "<="}, "unknown relation '<='"),
    (*_REPORT, {"failure": FAILURE}, "a report passes exactly when it carries no failure"),
    (*_REPORT, {"passed": False}, "a report passes exactly when it carries no failure"),
]


def _replaced(obj, **changes):
    """`obj` rebuilt with `changes`, through the type's own copy-with-changes."""
    if hasattr(obj, "_replace"):
        return obj._replace(**changes)
    return dataclasses.replace(obj, **changes)


@pytest.mark.parametrize("cls,valid,bad,message", INVALID, ids=lambda v: getattr(v, "__name__", None))
def test_validation_errors(cls, valid, bad, message):
    with pytest.raises(ValueError) as built:
        cls(**{**valid, **bad})
    assert str(built.value) == message
    ok = cls(**valid)
    with pytest.raises(ValueError) as replaced:
        _replaced(ok, **bad)
    assert str(replaced.value) == message
    if hasattr(cls, "_make"):
        with pytest.raises(ValueError) as made:
            cls._make({**ok._asdict(), **bad}.values())
        assert str(made.value) == message


def test_checker_arity_error():
    with pytest.raises(ValueError) as built:
        Checker(0, _pred)
    assert str(built.value) == "checker arity must be >= 1"
