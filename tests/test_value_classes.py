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
from cantorlike.families import (
    DigitSet,
    LambdaFamily,
    Power,
    Proportional,
)
from cantorlike.sets import ClosedInterval, IfsMaps, IntervalSet, OpenInterval, ifs_step, iterate

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


# (Power(4) stage 2, ClosedInterval(1/3, 2/3), OpenInterval(1/3, 2/3), the
# ternary IfsMaps) pickled at protocols 0, 2 and 5 when IntervalSet and
# ClosedInterval lived in cantorlike.exact and OpenInterval and IfsMaps in
# cantorlike.families: the pickles name those modules.
OLD_PICKLES = {
    0: (b'(c__builtin__\ngetattr\np0\n(ccantorlike.exact\nIntervalSet\np1\nV_from_ends\np2\ntp3\nRp4\n(I32'
        b'\n(lp5\nI0\naI5\naI7\naI12\naI20\naI25\naI27\naI32\natp6\nRp7\nccantorlike.exact\nClosedInterval'
        b'\np8\n(cfractions\nFraction\np9\n(I1\nI3\ntp10\nRp11\ng9\n(I2\nI3\ntp12\nRp13\ntp14\nRp15\nccant'
        b'orlike.families\nOpenInterval\np16\n(g9\n(I1\nI3\ntp17\nRp18\ng9\n(I2\nI3\ntp19\nRp20\ntp21\nRp2'
        b'2\nccantorlike.families\nIfsMaps\np23\n(((g9\n(I1\nI3\ntp24\nRp25\ng9\n(I0\nI1\ntp26\nRp27\ntp28'
        b'\n(g9\n(I1\nI3\ntp29\nRp30\ng9\n(I2\nI3\ntp31\nRp32\ntp33\ntp34\ntp35\nRp36\ntp37\n.'),
    2: (b'\x80\x02(c__builtin__\ngetattr\nq\x00ccantorlike.exact\nIntervalSet\nq\x01X\n\x00\x00\x00_from_e'
        b'ndsq\x02\x86q\x03Rq\x04K ]q\x05(K\x00K\x05K\x07K\x0cK\x14K\x19K\x1bK e\x86q\x06Rq\x07ccantorlike'
        b'.exact\nClosedInterval\nq\x08cfractions\nFraction\nq\tK\x01K\x03\x86q\nRq\x0bh\tK\x02K\x03\x86q'
        b'\x0cRq\r\x86q\x0eRq\x0fccantorlike.families\nOpenInterval\nq\x10h\tK\x01K\x03\x86q\x11Rq\x12h\tK'
        b'\x02K\x03\x86q\x13Rq\x14\x86q\x15Rq\x16ccantorlike.families\nIfsMaps\nq\x17h\tK\x01K\x03\x86q'
        b'\x18Rq\x19h\tK\x00K\x01\x86q\x1aRq\x1b\x86q\x1ch\tK\x01K\x03\x86q\x1dRq\x1eh\tK\x02K\x03\x86q'
        b'\x1fRq \x86q!\x86q"\x85q#Rq$tq%.'),
    5: (b'\x80\x05\x95,\x01\x00\x00\x00\x00\x00\x00(\x8c\x08builtins\x94\x8c\x07getattr\x94\x93\x94\x8c'
        b'\x10cantorlike.exact\x94\x8c\x0bIntervalSet\x94\x93\x94\x8c\n_from_ends\x94\x86\x94R\x94K ]\x94('
        b'K\x00K\x05K\x07K\x0cK\x14K\x19K\x1bK e\x86\x94R\x94h\x03\x8c\x0eClosedInterval\x94\x93\x94\x8c\t'
        b'fractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x03\x86\x94R\x94h\x10K\x02K\x03\x86\x94R\x94\x86'
        b'\x94R\x94\x8c\x13cantorlike.families\x94\x8c\x0cOpenInterval\x94\x93\x94h\x10K\x01K\x03\x86\x94R'
        b'\x94h\x10K\x02K\x03\x86\x94R\x94\x86\x94R\x94h\x17\x8c\x07IfsMaps\x94\x93\x94h\x10K\x01K\x03\x86'
        b'\x94R\x94h\x10K\x00K\x01\x86\x94R\x94\x86\x94h\x10K\x01K\x03\x86\x94R\x94h\x10K\x02K\x03\x86\x94'
        b'R\x94\x86\x94\x86\x94\x85\x94R\x94t\x94.'),
}


def old_pickle_values():
    return (iterate(Power(4), 2), ClosedInterval(F(1, 3), F(2, 3)), OpenInterval(F(1, 3), F(2, 3)),
            IfsMaps(((F(1, 3), F(0)), (F(1, 3), F(2, 3)))))


@pytest.mark.parametrize("protocol", sorted(OLD_PICKLES))
def test_pickles_that_name_the_old_modules_still_load(protocol):
    # exact and families resolve the moved classes through their module __getattr__.
    data = OLD_PICKLES[protocol]
    values = pickle.loads(data)
    assert values == old_pickle_values()
    assert [type(v) for v in values] == [IntervalSet, ClosedInterval, OpenInterval, IfsMaps]
    # and in a fresh interpreter, where sets is not yet loaded when the pickle names exact
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    program = "import pickle, sys\nprint(repr(pickle.loads(sys.stdin.buffer.read())))"
    proc = subprocess.run([sys.executable, "-c", program], input=data, capture_output=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, repr(values) + "\n", b"")


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
