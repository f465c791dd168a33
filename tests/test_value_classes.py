"""The contract of the frozen value classes, and what a launch imports.

Every class is an immutable record compared by value: its repr lists the
fields, equal fields mean equal and hash-equal objects of the same class,
fields cannot be assigned or deleted, construction takes the fields
positionally or by keyword, and copies and pickles round-trip. IntervalSet
is built from intervals, not from its fields, and is checked apart.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cantorlike.analysis import DimensionReport, ExpansionRecord
from cantorlike.exact import ClosedInterval, IntervalSet
from cantorlike.families import (
    DigitSet,
    IfsMaps,
    LambdaFamily,
    OpenInterval,
    Power,
    Proportional,
    ifs_step,
    iterate,
)

# (class, fields in order, the same fields with one value changed, repr text)
CASES = [
    (ClosedInterval, {"a": F(1, 3), "b": F(1, 2)}, {"a": F(1, 4)},
     "ClosedInterval(a=Fraction(1, 3), b=Fraction(1, 2))"),
    (Proportional, {"alpha": F(1, 3)}, {"alpha": F(1, 2)},
     "Proportional(alpha=Fraction(1, 3))"),
    (Power, {"n": 4}, {"n": 5}, "Power(n=4)"),
    (DigitSet, {"n": 5, "digits": (0, 1, 4)}, {"digits": (0, 2, 4)},
     "DigitSet(n=5, digits=(0, 1, 4))"),
    (LambdaFamily, {"lam": F(1, 2)}, {"lam": F(1)}, "LambdaFamily(lam=Fraction(1, 2))"),
    (OpenInterval, {"a": F(1, 3), "b": F(2, 3)}, {"b": F(3, 4)},
     "OpenInterval(a=Fraction(1, 3), b=Fraction(2, 3))"),
    (IfsMaps, {"maps": ((F(1, 3), F(0)), (F(1, 3), F(2, 3)))}, {"maps": ((F(1, 3), F(0)),)},
     "IfsMaps(maps=((Fraction(1, 3), Fraction(0, 1)), (Fraction(1, 3), Fraction(2, 3))))"),
    (ExpansionRecord, {"base": 3, "preperiod": (0,), "period": (2,)}, {"period": ()},
     "ExpansionRecord(base=3, preperiod=(0,), period=(2,))"),
    (DimensionReport,
     {"value": 0.5, "kind": "exact_similarity", "sequence": None, "count_base": 2, "scale": F(4)},
     {"scale": F(5)},
     "DimensionReport(value=0.5, kind='exact_similarity', sequence=None, count_base=2, "
     "scale=Fraction(4, 1))"),
]
IDS = [case[0].__name__ for case in CASES]


def make(cls, fields):
    return cls(*fields.values())


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_repr_lists_the_fields(cls, fields, changed, text):
    assert repr(make(cls, fields)) == text


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, fields, changed, text):
    obj, same = make(cls, fields), make(cls, fields)
    assert obj is not same and obj == same and not obj != same and hash(obj) == hash(same)
    other = make(cls, {**fields, **changed})
    assert obj != other and not obj == other
    assert obj != tuple(fields.values()) and obj != object()
    assert len({obj, same, other}) == 2


def test_classes_with_equal_fields_differ():
    assert Proportional(F(1, 3)) != LambdaFamily(F(1, 3))
    assert ClosedInterval(F(1, 3), F(2, 3)) != OpenInterval(F(1, 3), F(2, 3))
    assert len({Proportional(F(1, 3)), LambdaFamily(F(1, 3))}) == 2


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, changed, text):
    obj = make(cls, fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == make(cls, fields)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, changed, text):
    obj = make(cls, fields)
    assert cls(**fields) == obj
    names = list(fields)
    assert cls(*list(fields.values())[:1], **{n: fields[n] for n in names[1:]}) == obj
    assert [getattr(obj, n) for n in names] == list(fields.values())


def test_defaults():
    report = DimensionReport(0.5, "estimate_sequence")
    assert (report.sequence, report.count_base, report.scale) == (None, None, None)
    assert report == DimensionReport(value=0.5, kind="estimate_sequence", sequence=None)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_missing_or_unknown_arguments_raise_type_error(cls, fields, changed, text):
    init = rf"{cls.__name__}.__init__\(\)"
    first = next(iter(fields))
    with pytest.raises(TypeError, match=rf"{init} missing \d+ required positional .*'{first}'"):
        cls()
    with pytest.raises(TypeError, match=rf"{init} got an unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match=rf"{init} got multiple values for argument '{first}'"):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(*fields.values(), None, None, None)  # more positional arguments than fields


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_copies_and_pickles_round_trip(cls, fields, changed, text):
    obj = make(cls, fields)
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  *(pickle.loads(pickle.dumps(obj, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is cls and clone == obj and hash(clone) == hash(obj)
        assert repr(clone) == text


def interval_sets():
    # A stage, the empty set and a single point.
    return [iterate(Power(4), 3), IntervalSet([]), IntervalSet([ClosedInterval(F(1, 3), F(1, 3))])]


def test_interval_set_fields_cannot_be_assigned_or_deleted():
    for s in interval_sets():
        fields = (s.denom, s.ends)
        for name in ("denom", "ends"):
            with pytest.raises(AttributeError):
                setattr(s, name, 5)
            with pytest.raises(AttributeError):
                delattr(s, name)
        with pytest.raises(AttributeError):
            s.extra = 1
        assert (s.denom, s.ends) == fields


def test_interval_set_copies_and_pickles_round_trip():
    for s in interval_sets():
        for clone in (copy.copy(s), copy.deepcopy(s),
                      *(pickle.loads(pickle.dumps(s, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(clone) is IntervalSet and clone == s and hash(clone) == hash(s)
            assert (clone.denom, clone.ends) == (s.denom, s.ends) and repr(clone) == repr(s)


def test_equal_interval_sets_compare_and_hash_equal_however_built():
    # The ternary stage 2, from intervals given out of order over other
    # denominators, from the stage engine and from one IFS step of stage 1.
    by_list = IntervalSet([ClosedInterval(F(6, 9), F(7, 9)), ClosedInterval(F(0), F(2, 18)),
                           ClosedInterval(F(8, 9), F(1)), ClosedInterval(F(2, 9), F(3, 9))])
    by_iterate = iterate(Proportional(F(1, 3)), 2)
    by_step = ifs_step(iterate(Proportional(F(1, 3)), 1),
                       IfsMaps(((F(1, 3), F(0)), (F(1, 3), F(2, 3)))))
    assert by_list == by_iterate == by_step
    assert hash(by_list) == hash(by_iterate) == hash(by_step) == hash((9, (0, 1, 2, 3, 6, 7, 8, 9)))
    for s in (*interval_sets(), by_list):
        assert hash(s) == hash((s.denom, s.ends))
    assert by_list != iterate(Proportional(F(1, 3)), 3) and by_list != (9, by_list.ends)
    assert len({by_list, by_iterate, by_step, IntervalSet([])}) == 2


def test_digit_set_sorts_its_digits():
    f = DigitSet(5, (4, 0, 1))
    assert f.digits == (0, 1, 4) and f == DigitSet(5, (0, 1, 4))
    assert repr(f) == "DigitSet(n=5, digits=(0, 1, 4))"
    assert DigitSet(n=7, digits=[6, 3, 0]).digits == (0, 3, 6)
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(f).digits == (0, 1, 4)


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError, match=r"interval endpoints out of order: \[1, 0\]"):
        ClosedInterval(F(1), F(0))


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect_nor_typing():
    # dataclasses and inspect cost a launch about a quarter of its start-up,
    # typing about 7 ms. Only what importing the CLI adds is checked, and
    # under -S, so that no site hook has loaded one of them beforehand.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    program = ("import sys; before = set(sys.modules); import cantorlike.cli; "
               "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
