import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

from cantorlike.exact import (
    _digit_limit,
    _echo,
    _read_int,
    format_rational,
    parse_rational,
    rational_decimal,
)
from cantorlike.sets import ClosedInterval, IntervalSet


def ci(a, b):
    return ClosedInterval(F(a), F(b))


class TestRationalStrings:
    def test_parse_and_format_round_trip(self):
        for text in ["1/3", "0/1", "7/32", "-2/9"]:
            assert format_rational(parse_rational(text)) == text

    def test_parse_reduces(self):
        assert parse_rational("2/6") == F(1, 3)
        assert format_rational(F(2, 6)) == "1/3"

    def test_zero_formats_with_denominator(self):
        assert format_rational(F(0)) == "0/1"

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("one third")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_decimal_exponent_bound(self):
        assert parse_rational("1e-100000") == F(1, 10**100000)
        assert parse_rational("3E+0_99") == 3 * 10**99
        for text in ("1e-100001", "1e100001", "2.5e-" + "9" * 5000):
            with pytest.raises(ValueError, match="exceeds 100000"):
                parse_rational(text)

    def test_the_readers_keep_the_text_int_and_fraction_accept(self):
        # One int() or Fraction() call each: whitespace and underscores as they allow.
        assert [_read_int(text) for text in (" -7\n", "1_000", "+3")] == [-7, 1000, 3]
        assert parse_rational(" 1/3\n") == F(1, 3)
        with pytest.raises(ValueError, match=r"^malformed rational 'x1111"):
            parse_rational("x" + "1" * 5000)  # int() calls it malformed too, whatever its length

    @pytest.mark.skipif(not _digit_limit(), reason="this interpreter reads integers of any length")
    @pytest.mark.parametrize("read, what", [(_read_int, "int value"), (parse_rational, "rational")])
    def test_a_run_over_the_digit_limit_is_named_by_it(self, read, what):
        text = "-" + "1" * (_digit_limit() + 1)
        with pytest.raises(ValueError) as info:
            read(text)
        assert str(info.value) == (f"{what} {text[:40]!r} has a run of over {_digit_limit()} digits, "
                                   "the limit of sys.get_int_max_str_digits()")
        assert read(text[:-1]) == -int("1" * _digit_limit())

    def test_echo_names_only_the_digit_limit_refusal(self):
        class Unprintable:
            def __repr__(self):
                raise ValueError("not the digit limit")

        with pytest.raises(ValueError, match="^not the digit limit$"):
            _echo(Unprintable())

    def test_decimal_rendering(self):
        assert rational_decimal(F(1, 2)) == "0.5"
        assert len(rational_decimal(F(1, 3)).lstrip("0.")) == 15


class TestClosedInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            ci("1/3", "1/4")

    def test_degenerate_point_allowed(self):
        p = ci("1/4", "1/4")
        assert p.a == p.b
        assert p.length == 0

    def test_length_exact(self):
        assert ci("2/9", "1/3").length == F(1, 9)


class TestNormalize:
    def test_sorts_stage_one(self):
        s = IntervalSet([ci("2/3", "1"), ci("0", "1/3")])
        assert tuple(s) == (ci("0", "1/3"), ci("2/3", "1"))
        assert (s.denom, s.ends) == (3, (0, 1, 2, 3))

    def test_empty_input(self):
        assert len(IntervalSet([])) == 0
        assert IntervalSet([]).total_length == 0

    def test_touching_intervals_merge(self):
        s = IntervalSet([ci("0", "1/2"), ci("1/2", "1")])
        assert tuple(s) == (ci("0", "1"),)
        assert (s.denom, s.ends) == (1, (0, 1))

    def test_overlapping_intervals_merge(self):
        s = IntervalSet([ci("0", "2/3"), ci("1/3", "1")])
        assert tuple(s) == (ci("0", "1"),)

    def test_idempotent(self):
        s = IntervalSet([ci("0", "1/3"), ci("1/3", "1/2"), ci("3/4", "1")])
        assert IntervalSet(tuple(s)) == s

    def test_degenerate_point_swallowed_by_cover(self):
        s = IntervalSet([ci("1/4", "1/4"), ci("0", "1/2")])
        assert tuple(s) == (ci("0", "1/2"),)


class TestTotalLength:
    def test_stage_two_middle_thirds(self):
        c2 = IntervalSet([ci("0", "1/9"), ci("2/9", "1/3"), ci("2/3", "7/9"), ci("8/9", "1")])
        assert c2.total_length == F(4, 9)

    def test_unit_interval(self):
        assert IntervalSet([ci("0", "1")]).total_length == 1

    def test_fat_stage_two(self):
        svc2 = IntervalSet([ci("0", "5/32"), ci("7/32", "3/8"), ci("5/8", "25/32"), ci("27/32", "1")])
        assert svc2.total_length == F(5, 8)


class TestAffineImage:
    def test_dilate_stage_one_by_three(self):
        c1 = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])
        assert c1.affine_image(F(3)) == IntervalSet([ci("0", "1"), ci("2", "3")])

    def test_dilate_middle_half_stage_by_four(self):
        s = IntervalSet([ci("0", "1/4"), ci("3/4", "1")])
        assert s.affine_image(F(4)) == IntervalSet([ci("0", "1"), ci("3", "4")])

    def test_identity(self):
        s = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])
        assert s.affine_image(F(1), F(0)) == s

    def test_scales_length(self):
        s = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])
        assert s.affine_image(F(5, 7), F(1, 13)).total_length == F(5, 7) * s.total_length

    def test_rejects_nonpositive_scale(self):
        s = IntervalSet([ci("0", "1")])
        with pytest.raises(ValueError):
            s.affine_image(F(0))
        with pytest.raises(ValueError):
            s.affine_image(F(-1))


class TestContainsPoint:
    def setup_method(self):
        self.c1 = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])

    def test_endpoint_is_member(self):
        assert self.c1.contains_point(F(1, 3))

    def test_removed_middle_is_not(self):
        assert not self.c1.contains_point(F(1, 2))

    def test_svc4_interior_point(self):
        svc2 = IntervalSet([ci("0", "5/32"), ci("7/32", "3/8"), ci("5/8", "25/32"), ci("27/32", "1")])
        assert svc2.contains_point(F(7, 32))

    def test_outside_range(self):
        assert not self.c1.contains_point(F(-1, 2))
        assert not self.c1.contains_point(F(3, 2))

    @pytest.mark.parametrize("x", [0.5, Decimal("0.5")], ids=["float", "Decimal"])
    def test_inexact_point_raises(self, x):
        # Membership reads x.numerator and x.denominator, which a float and a
        # Decimal lack: an inexact point fails instead of being answered.
        with pytest.raises(AttributeError):
            self.c1.contains_point(x)


class TestSerialization:
    def test_json_round_trip(self):
        s = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])
        assert IntervalSet.from_json(json.loads(json.dumps(s.to_json()))) == s

    def test_wire_format(self):
        s = IntervalSet([ci("0", "1/3")])
        assert s.to_json() == [{"a": "0/1", "b": "1/3"}]

    def test_integer_and_rational_string_endpoints_accepted(self):
        expected = IntervalSet([ci("0", "1/3"), ci("2/3", "1")])
        assert IntervalSet.from_json([{"a": 0, "b": "2/6"}, {"a": "2/3", "b": 1}]) == expected

    @pytest.mark.parametrize("end", [0.5, 1.0, True, None, [1], "0.5", "1e-1", " 1/2 ", "1/0"],
                             ids=repr)
    def test_inexact_endpoints_rejected(self, end):
        # Read like the family JSON: a float, bool, decimal or exponent string
        # raises ValueError (a float or an int raised TypeError before).
        with pytest.raises(ValueError):
            IntervalSet.from_json([{"a": end, "b": "1/1"}])
        with pytest.raises(ValueError):
            IntervalSet.from_json([{"a": "0/1", "b": end}])

    @pytest.mark.parametrize("obj", [[1], 5, {"a": 1}, None, "ab", [[0, 1]], [{"a": 0}], [{"b": 1}],
                                     [{"a": 0, "b": 1}, {}]], ids=repr)
    def test_malformed_documents_rejected(self, obj):
        # A non-list, a non-object interval or a missing endpoint raised
        # TypeError or KeyError before.
        with pytest.raises(ValueError):
            IntervalSet.from_json(obj)
