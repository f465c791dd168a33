from fractions import Fraction as F

import pytest

from cantorlike.families import (
    ConstructionError,
    DepthCapError,
    DigitSet,
    LambdaFamily,
    Power,
    Proportional,
    digit_form,
    family_from_json,
    family_to_json,
    level_stats,
    moran_row,
)
from cantorlike.sets import (ClosedInterval, IfsMaps, IntervalSet, OpenInterval, ifs_maps, ifs_step, iterate,
                             removed_by_generation)


def ci(a, b):
    return ClosedInterval(F(a), F(b))


def iset(*pairs):
    return IntervalSet([ci(a, b) for a, b in pairs])


MIDDLE_THIRDS = Proportional(F(1, 3))
VOLTERRA = Power(4)
ODD_FIFTHS = DigitSet(5, (0, 2, 4))


class PowerSubclass(Power):
    pass


class TestFamilyValidation:
    def test_proportional_bounds(self):
        with pytest.raises(ValueError):
            Proportional(F(0))
        with pytest.raises(ValueError):
            Proportional(F(1))

    def test_power_minimum_base(self):
        with pytest.raises(ValueError):
            Power(1)
        Power(2)  # degenerates but is permitted

    def test_digit_set_rules(self):
        with pytest.raises(ValueError):
            DigitSet(5, (0, 2))  # missing n-1
        with pytest.raises(ValueError):
            DigitSet(5, (2, 4))  # missing 0
        with pytest.raises(ValueError):
            DigitSet(5, (0, 1, 2, 3, 4))  # nothing removed
        with pytest.raises(ValueError):
            DigitSet(2, (0, 1))
        DigitSet(5, (0, 1, 4))  # asymmetric is fine

    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            LambdaFamily(F(0))
        with pytest.raises(ValueError):
            LambdaFamily(F(3, 2))
        LambdaFamily(F(1))

    @pytest.mark.parametrize("reader", [moran_row, family_to_json, digit_form])
    @pytest.mark.parametrize("spec", [object(), PowerSubclass(4)], ids=["object", "Power subclass"])
    def test_non_family_inputs_raise_type_error(self, reader, spec):
        # The family table is read by exact type: an instance of a subclass of
        # a family class is no family either.
        with pytest.raises(TypeError, match="^unknown family spec: "):
            reader(spec)

    def test_rows_of_the_family_table(self):
        # (s, m, c, r, g, digits); Power(n) and LambdaFamily(p/q) are the centred
        # removal (2nq, 2, nq, p, 2q) at p/q = 1 and at n = 3.
        assert moran_row(Proportional(F(2, 7))) == (14, 2, 5, 0, 1, ())
        assert moran_row(Power(5)) == (10, 2, 5, 1, 2, ())
        assert moran_row(LambdaFamily(F(3, 4))) == (24, 2, 12, 3, 8, ())
        assert moran_row(ODD_FIFTHS) == (5, 3, 1, 0, 1, (0, 2, 4))


class TestIterateStageListings:
    def test_depth_zero_is_unit_interval(self):
        for f in (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 2))):
            assert iterate(f, 0) == iset(("0", "1"))

    def test_middle_thirds_stage_two(self):
        assert iterate(MIDDLE_THIRDS, 2) == iset(
            ("0", "1/9"), ("2/9", "1/3"), ("2/3", "7/9"), ("8/9", "1")
        )

    def test_middle_half_stages(self):
        half = Proportional(F(1, 2))
        assert iterate(half, 1) == iset(("0", "1/4"), ("3/4", "1"))
        assert iterate(half, 2) == iset(
            ("0", "1/16"), ("3/16", "1/4"), ("3/4", "13/16"), ("15/16", "1")
        )

    def test_middle_fourth_stage_two(self):
        assert iterate(Proportional(F(1, 4)), 2) == iset(
            ("0", "9/64"), ("15/64", "3/8"), ("5/8", "49/64"), ("55/64", "1")
        )

    def test_middle_three_fourths_stage_two(self):
        assert iterate(Proportional(F(3, 4)), 2) == iset(
            ("0", "1/64"), ("7/64", "1/8"), ("7/8", "57/64"), ("63/64", "1")
        )

    def test_volterra_stage_two(self):
        assert iterate(VOLTERRA, 2) == iset(
            ("0", "5/32"), ("7/32", "3/8"), ("5/8", "25/32"), ("27/32", "1")
        )

    def test_power_two_collapses_to_four_points(self):
        stage = iterate(Power(2), 2)
        assert stage == iset(("0", "0"), ("1/4", "1/4"), ("3/4", "3/4"), ("1", "1"))
        assert all(i.a == i.b for i in stage)

    def test_power_two_fixpoint_after_collapse(self):
        assert iterate(Power(2), 7) == iterate(Power(2), 2)

    def test_odd_fifths_stage_one(self):
        assert iterate(ODD_FIFTHS, 1) == iset(("0", "1/5"), ("2/5", "3/5"), ("4/5", "1"))

    def test_odd_fifths_stage_two(self):
        assert iterate(ODD_FIFTHS, 2) == iset(
            ("0", "1/25"), ("2/25", "3/25"), ("4/25", "1/5"),
            ("2/5", "11/25"), ("12/25", "13/25"), ("14/25", "3/5"),
            ("4/5", "21/25"), ("22/25", "23/25"), ("24/25", "1"),
        )

    def test_lambda_one_reproduces_middle_thirds(self):
        for k in range(11):
            assert iterate(LambdaFamily(F(1)), k) == iterate(MIDDLE_THIRDS, k)

    def test_lambda_symbolic_stage_two(self):
        lam = F(1, 2)
        assert iterate(LambdaFamily(lam), 2) == iset(
            ("0", str((9 - 5 * lam) / 36)),
            (str((9 - lam) / 36), str((3 - lam) / 6)),
            (str((3 + lam) / 6), str((27 + lam) / 36)),
            (str((27 + 5 * lam) / 36), "1"),
        )

    def test_adjacent_digit_blocks_merge(self):
        assert iterate(DigitSet(5, (0, 1, 4)), 1) == iset(("0", "2/5"), ("4/5", "1"))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            iterate(MIDDLE_THIRDS, -1)

    def test_depth_cap_enforced(self):
        with pytest.raises(DepthCapError):
            iterate(MIDDLE_THIRDS, 25)


def flat_gaps(f, k):
    # All removals through stage k, generation-major then left-to-right.
    return [gap for gen in removed_by_generation(f, k) for gap in gen]


class TestRemovedIntervals:
    def test_volterra_generation_one(self):
        assert flat_gaps(VOLTERRA, 1) == [OpenInterval(F(3, 8), F(5, 8))]

    def test_volterra_listing_order(self):
        assert flat_gaps(VOLTERRA, 2) == [
            OpenInterval(F(3, 8), F(5, 8)),
            OpenInterval(F(5, 32), F(7, 32)),
            OpenInterval(F(25, 32), F(27, 32)),
        ]
        assert flat_gaps(VOLTERRA, 3)[3] == OpenInterval(F(9, 128), F(11, 128))

    def test_depth_zero_removes_nothing(self):
        assert flat_gaps(VOLTERRA, 0) == []

    def test_disjoint_from_stage(self):
        stage = iterate(VOLTERRA, 4)
        for gap in flat_gaps(VOLTERRA, 4):
            mid = (gap.a + gap.b) / 2
            assert not stage.contains_point(mid)

    def test_partition_identity(self):
        for f in (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 3)), Power(2)):
            for k in range(7):
                removed = sum((g.length for g in flat_gaps(f, k)), F(0))
                assert iterate(f, k).total_length + removed == 1

    @pytest.mark.parametrize("a, b", [("1/2", "1/2"), ("5/8", "3/8")])
    def test_empty_or_reversed_gap_rejected(self, a, b):
        with pytest.raises(ValueError, match="^open interval needs a < b"):
            OpenInterval(F(a), F(b))

    def test_power_two_stops_removing(self):
        gens = removed_by_generation(Power(2), 5)
        assert [len(g) for g in gens] == [1, 2, 0, 0, 0]


class TestLevelStats:
    def test_middle_thirds_stage_three(self):
        assert level_stats(MIDDLE_THIRDS, 3) == (8, F(1, 27))

    def test_odd_fifths_counts_are_three_to_the_k(self):
        # the construction splits each interval into |digits| children, so
        # counts are 3^k here (3 at stage one, 9 at stage two, ...)
        assert level_stats(ODD_FIFTHS, 2) == (9, F(1, 25))

    def test_volterra_stage_three(self):
        assert level_stats(VOLTERRA, 3) == (8, F(9, 128))

    def test_volterra_closed_form_lengths(self):
        for k in range(1, 16):
            stats = level_stats(VOLTERRA, k)
            assert stats.length == F(2**k + 1, 2 * 4**k)

    def test_matches_enumeration(self):
        for f in (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(2, 3)), Power(2)):
            for k in range(7):
                stage = iterate(f, k)
                stats = level_stats(f, k)
                if isinstance(f, DigitSet):
                    continue  # tree count, not merged count, by contract
                assert stats.count == len(stage)
                assert {i.length for i in stage} == {stats.length}  # one length per stage


class TestIfs:
    def test_standard_ternary_maps(self):
        maps = ifs_maps(MIDDLE_THIRDS)
        assert maps == IfsMaps(((F(1, 3), F(0)), (F(1, 3), F(2, 3))))

    def test_step_from_unit_interval(self):
        assert ifs_step(iset(("0", "1")), ifs_maps(MIDDLE_THIRDS)) == iterate(MIDDLE_THIRDS, 1)

    def test_step_advances_one_stage(self):
        assert ifs_step(iterate(MIDDLE_THIRDS, 1), ifs_maps(MIDDLE_THIRDS)) == iterate(
            MIDDLE_THIRDS, 2
        )

    def test_empty_set_maps_to_empty(self):
        assert ifs_step(IntervalSet([]), ifs_maps(MIDDLE_THIRDS)) == IntervalSet([])

    def test_digit_family_maps(self):
        assert ifs_step(iset(("0", "1")), ifs_maps(ODD_FIFTHS)) == iterate(ODD_FIFTHS, 1)

    def test_overlapping_images_rejected(self):
        with pytest.raises(ValueError):
            IfsMaps(((F(1, 2), F(0)), (F(1, 2), F(1, 4))))
        for scale in (F(0), F(1), F(-1, 2), F(3, 2)):  # no contraction: a scale outside (0, 1)
            with pytest.raises(ValueError, match="^IFS scale must lie in"):
                IfsMaps(((scale, F(0)),))

    def test_overlapping_step_rejected(self):
        maps = IfsMaps(((F(2, 5), F(0)), (F(2, 5), F(3, 5))))
        ifs_step(iset(("0", "1")), maps)
        with pytest.raises(ConstructionError):
            # images of [0, 2] under these maps overlap even though the
            # images of [0,1] do not
            ifs_step(iset(("0", "2")), maps)

    def test_no_ifs_for_power_or_lambda(self):
        with pytest.raises(ValueError):
            ifs_maps(VOLTERRA)
        with pytest.raises(ValueError):
            ifs_maps(LambdaFamily(F(1, 2)))

    @pytest.mark.parametrize("f", [Power(3), LambdaFamily(F(1))], ids=repr)
    def test_a_centred_removal_of_middle_thirds_has_the_ternary_forms(self, f):
        # r = c - g (A = 0 in the closed form): every step removes the middle third.
        assert ifs_maps(f) == ifs_maps(MIDDLE_THIRDS)
        assert digit_form(f) == DigitSet(3, (0, 2))
        assert ifs_step(iterate(f, 4), ifs_maps(f)) == iterate(f, 5)


class TestDigitEquivalent:
    def test_middle_thirds(self):
        assert digit_form(Proportional(F(1, 3))) == DigitSet(3, (0, 2))

    def test_middle_half(self):
        assert digit_form(Proportional(F(1, 2))) == DigitSet(4, (0, 3))

    def test_middle_three_fourths(self):
        assert digit_form(Proportional(F(3, 4))) == DigitSet(8, (0, 7))

    def test_middle_fourth_has_none(self):
        assert digit_form(Proportional(F(1, 4))) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            digit_form(Proportional(F(2)))


class TestFamilyJson:
    @pytest.mark.parametrize(
        "family",
        [MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 2)), DigitSet(5, (0, 1, 4))],
    )
    def test_round_trip(self, family):
        assert family_from_json(family_to_json(family)) == family

    def test_wire_shapes(self):
        assert family_to_json(MIDDLE_THIRDS) == {"family": "proportional", "alpha": "1/3"}
        assert family_to_json(VOLTERRA) == {"family": "power", "n": 4}
        assert family_to_json(ODD_FIFTHS) == {"family": "digit", "n": 5, "digits": [0, 2, 4]}
        assert family_to_json(LambdaFamily(F(1, 2))) == {"family": "lambda", "lambda": "1/2"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            family_from_json({"family": "spiral"})

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            "power",
            None,
            {"family": "proportional", "alpha": [1]},
            {"family": "proportional", "alpha": 0.1},
            {"family": "proportional", "alpha": True},
            {"family": "power", "n": 4.7},
            {"family": "power", "n": 4.0},
            {"family": "power", "n": True},
            {"family": "power", "n": "9/2"},
            {"family": "power", "n": "4.0"},
            {"family": "power", "n": " 4 "},
            {"family": "proportional", "alpha": "0.1"},
            {"family": "proportional", "alpha": "1e-1"},
            {"family": "proportional", "alpha": "1/0"},
            {"family": "lambda", "lambda": "1e5"},
            {"family": "lambda", "lambda": "1e-300000"},
            {"family": "digit", "n": 5, "digits": "014"},
            {"family": "digit", "n": 5, "digits": [0, 1.0, 4]},
            {"family": "digit", "n": 5, "digits": {"0": 1}},
            {"family": "lambda", "lambda": 0.5},
            {"family": "lambda", "lambda": None},
            {"family": "power"},                       # a field missing
            {"family": "proportional"},
            {"family": "lambda", "alpha": "1/2"},
            {"family": "digit", "n": 5},
            {"family": "power", "n": 4, "alpha": 0.5},  # a key the kind does not have
            {"family": "proportional", "alpha": "1/3", "n": 4},  # a key another kind uses
            {"family": "lambda", "lambda": "1/2", "Lambda": "1/2"},
        ],
        ids=repr,
    )
    def test_inexact_or_malformed_values_rejected(self, obj):
        with pytest.raises(ValueError):
            family_from_json(obj)

    def test_a_field_nested_too_deep_to_show_is_named_by_its_type(self):
        # repr meets the recursion limit at this depth on every interpreter;
        # the refusal is still the one ValueError line.
        deep = []
        for _ in range(100_000):
            deep = [deep]
        with pytest.raises(ValueError, match=r"^n must be an integer or a 'p/q' string, "
                                             r"got a list nested too deep to show$"):
            family_from_json({"family": "power", "n": deep})

    def test_integers_and_rational_strings_accepted(self):
        assert family_from_json({"family": "power", "n": "4"}) == VOLTERRA
        assert family_from_json({"family": "lambda", "lambda": 1}) == LambdaFamily(F(1))
        assert family_from_json({"family": "proportional", "alpha": "2/6"}) == MIDDLE_THIRDS
        assert family_from_json({"family": "digit", "n": 5, "digits": [4, 0, 2]}) == ODD_FIFTHS
