import json
import math
from fractions import Fraction as F
from itertools import islice

import pytest

from cantorlike import analysis as analysis_module
from cantorlike import families as families_module
from cantorlike.analysis import (
    CANTOR_TERNARY,
    ESTIMATE_SEQUENCE,
    EXACT_SIMILARITY,
    ExpansionRecord,
    base_expansion,
    cantor_function,
    dimension_estimates,
    member_limit,
    membership_witness,
    similarity_dimension,
)
from cantorlike.exact import _digit_limit
from cantorlike.families import (
    DepthCapError,
    DigitSet,
    LambdaFamily,
    Power,
    Proportional,
    _live_steps,
    _steps,
    limit_measure,
    measure_at_depth,
    member_at_depth,
    moran_row,
)
from cantorlike.sets import iterate

MIDDLE_THIRDS = Proportional(F(1, 3))
VOLTERRA = Power(4)
ODD_FIFTHS = DigitSet(5, (0, 2, 4))


class TestMeasureAtDepth:
    def test_middle_thirds_depth_five(self):
        assert measure_at_depth(MIDDLE_THIRDS, 5) == F(32, 243)

    def test_volterra_depth_two(self):
        assert measure_at_depth(VOLTERRA, 2) == F(5, 8)

    def test_depth_zero_is_one(self):
        for f in (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 5))):
            assert measure_at_depth(f, 0) == 1

    def test_recurrence_matches_enumeration(self):
        for f in (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(3, 7)), Power(2), Power(5)):
            for k in range(13):
                assert measure_at_depth(f, k) == iterate(f, k).total_length


class TestLimitMeasure:
    def test_volterra_is_one_half(self):
        assert limit_measure(VOLTERRA) == F(1, 2)

    def test_power_closed_form(self):
        for n in range(3, 7):
            assert limit_measure(Power(n)) == F(n - 3, n - 2)

    def test_power_two_is_finite_point_set(self):
        assert limit_measure(Power(2)) == 0

    def test_lambda_complement(self):
        for lam in (F(1, 4), F(1, 2), F(1)):
            assert limit_measure(LambdaFamily(lam)) == 1 - lam

    def test_thin_families_are_null(self):
        for alpha in (F(1, 3), F(1, 2), F(1, 4), F(3, 4)):
            assert limit_measure(Proportional(alpha)) == 0
        assert limit_measure(ODD_FIFTHS) == 0

    def test_is_limit_of_stage_measures(self):
        for f in (VOLTERRA, LambdaFamily(F(1, 2)), LambdaFamily(F(1, 4))):
            target = limit_measure(f)
            gaps = [measure_at_depth(f, k) - target for k in range(25)]
            assert all(g > 0 for g in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
            assert gaps[24] < F(1, 1000)


class TestSimilarityDimension:
    def test_middle_thirds(self):
        report = similarity_dimension(MIDDLE_THIRDS)
        assert report.kind == EXACT_SIMILARITY
        assert report.value == pytest.approx(0.630930, abs=1e-6)
        assert report.count_base == 2 and report.scale == 3

    def test_middle_half(self):
        assert similarity_dimension(Proportional(F(1, 2))).value == pytest.approx(0.5, abs=1e-12)

    def test_middle_fourth(self):
        assert similarity_dimension(Proportional(F(1, 4))).value == pytest.approx(
            0.706695, abs=1e-6
        )

    def test_middle_three_fourths_is_one_third(self):
        # the dilation factor is 8, so the dimension is ln2/ln8 = 1/3
        report = similarity_dimension(Proportional(F(3, 4)))
        assert report.value == pytest.approx(1 / 3, abs=1e-12)
        assert report.scale == 8

    def test_odd_fifths(self):
        report = similarity_dimension(ODD_FIFTHS)
        assert report.value == pytest.approx(0.6826, abs=1e-4)
        assert report.value == pytest.approx(math.log(3) / math.log(5), abs=1e-12)

    def test_volterra_is_estimate_only(self):
        report = similarity_dimension(VOLTERRA)
        assert report.kind == ESTIMATE_SEQUENCE
        assert report.value == pytest.approx(0.706695, abs=1e-6)

    def test_lambda_is_estimate_only(self):
        report = similarity_dimension(LambdaFamily(F(1, 2)))
        assert report.kind == ESTIMATE_SEQUENCE
        assert report.value == pytest.approx(
            math.log(2) / (math.log(6) - math.log(2.5)), abs=1e-12
        )

    def test_lambda_one_matches_middle_thirds(self):
        assert similarity_dimension(LambdaFamily(F(1))).value == pytest.approx(
            similarity_dimension(MIDDLE_THIRDS).value, abs=1e-12
        )

    def test_power_two_rejected(self):
        with pytest.raises(ValueError):
            similarity_dimension(Power(2))


class TestDimensionEstimates:
    def test_volterra_first_three(self):
        seq = dimension_estimates(VOLTERRA, 3).sequence
        expected = [0.706695, 0.746806, 0.783274]
        assert [k for k, _ in seq] == [1, 2, 3]
        for (_, got), want in zip(seq, expected):
            assert got == pytest.approx(want, abs=1e-6)

    def test_self_similar_sequences_are_constant(self):
        for f in (MIDDLE_THIRDS, ODD_FIFTHS, Proportional(F(1, 2))):
            exact = similarity_dimension(f).value
            for _, d in dimension_estimates(f, 6).sequence:
                assert d == pytest.approx(exact, abs=1e-12)

    def test_volterra_increases_toward_one(self):
        seq = [d for _, d in dimension_estimates(VOLTERRA, 40).sequence]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert all(d < 1 for d in seq)
        assert seq[-1] > 0.95

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            dimension_estimates(VOLTERRA, 0)

    def test_power_two_collapse_rejected(self):
        with pytest.raises(ValueError):
            dimension_estimates(Power(2), 3)


class TestBaseExpansion:
    def test_quarter_in_ternary(self):
        assert base_expansion(F(1, 4), 3) == ExpansionRecord(3, (), (0, 2))

    def test_half_in_ternary(self):
        assert base_expansion(F(1, 2), 3) == ExpansionRecord(3, (), (1,))

    def test_zero(self):
        rec = base_expansion(F(0), 3)
        assert rec == ExpansionRecord(3, (), ())
        assert rec.period == ()

    def test_one_uses_infinite_form(self):
        assert base_expansion(F(1), 3) == ExpansionRecord(3, (), (2,))
        assert base_expansion(F(1), 10) == ExpansionRecord(10, (), (9,))

    def test_terminating_with_alternate(self):
        rec = base_expansion(F(1, 3), 3)
        assert rec == ExpansionRecord(3, (1,), ())
        assert rec.alternate_tail_form() == ExpansionRecord(3, (0,), (2,))

    def test_zero_has_no_alternate(self):
        assert base_expansion(F(0), 3).alternate_tail_form() is None

    def test_nonterminating_has_no_alternate(self):
        assert base_expansion(F(1, 7), 10).alternate_tail_form() is None

    def test_mixed_preperiod_and_period(self):
        assert base_expansion(F(1, 6), 10) == ExpansionRecord(10, (1,), (6,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            base_expansion(F(3, 2), 3)
        with pytest.raises(ValueError):
            base_expansion(F(-1, 2), 3)
        with pytest.raises(ValueError):
            base_expansion(F(1, 2), 1)

    def test_round_trip(self):
        for p in range(0, 30):
            for q in range(1, 30):
                if p > q:
                    continue
                for base in (2, 3, 5, 8, 10):
                    rec = base_expansion(F(p, q), base)
                    assert rec.to_rational() == F(p, q)
                    alt = rec.alternate_tail_form()
                    if alt is not None:
                        assert alt.to_rational() == F(p, q)

    def test_json_round_trip(self):
        for rec in (base_expansion(F(1, 6), 10), base_expansion(F(1, 4), 3), ExpansionRecord(2, (), ())):
            assert ExpansionRecord.from_json(json.loads(json.dumps(rec.to_json()))) == rec
        assert ExpansionRecord.from_json({"base": "3", "preperiod": ["1/1"], "period": [0, 2]}) == \
            ExpansionRecord(3, (1,), (0, 2))

    @pytest.mark.parametrize("obj", [
        {"base": 3.9, "preperiod": [], "period": [2]},     # was read as base 3
        {"base": True, "preperiod": [], "period": [1]},
        {"base": "3/2", "preperiod": [], "period": [1]},
        {"base": 1, "preperiod": [], "period": [0]},       # below 2
        {"base": 0, "preperiod": [], "period": []},
        {"base": 3, "preperiod": [7.5], "period": []},      # was accepted
        {"base": 3, "preperiod": "ab", "period": []},       # was accepted as ("a", "b")
        {"base": 3, "preperiod": [], "period": [3]},        # outside 0..base-1
        {"base": 3, "preperiod": [-1], "period": []},
        {"base": 10, "preperiod": [1], "period": "12"},
        {"base": 10, "preperiod": [1], "period": None},
        [], 3, None, "base",                                # not an object
        {"base": 3}, {"base": 3, "preperiod": []}, {"preperiod": [], "period": []},  # a key missing
    ], ids=repr)
    def test_json_rejects_inexact_or_out_of_range_values(self, obj):
        with pytest.raises(ValueError):
            ExpansionRecord.from_json(obj)

    def test_period_cap_bounds_every_long_division(self, monkeypatch):
        # 1/7 has the decimal period 142857 after no preperiod, 1/14 after one
        # digit; the ternary member 2/(3^6 - 1) = 0.(000002) has period 6.
        member = F(2, 3**6 - 1)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", 6)
        assert base_expansion(F(1, 7), 10).period == (1, 4, 2, 8, 5, 7)
        assert base_expansion(F(1, 14), 10).period == (7, 1, 4, 2, 8, 5)
        assert cantor_function(member) == F(1, 2**6 - 1)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", 5)
        for call in (lambda: base_expansion(F(1, 7), 10), lambda: base_expansion(F(1, 14), 10),
                     lambda: member_limit(member, CANTOR_TERNARY),
                     lambda: membership_witness(member, CANTOR_TERNARY),
                     lambda: cantor_function(member)):
            with pytest.raises(DepthCapError, match="period cap of 5 digits"):
                call()
        assert base_expansion(F(1, 8), 10).preperiod == (1, 2, 5)  # no period: no cap
        assert not member_limit(F(1, 2), CANTOR_TERNARY)  # rejected at its first digit

    def test_period_work_cap_counts_digits_times_the_bits_of_q_prime(self, monkeypatch):
        # q' is q with the base's primes divided out: 7 (3 bits) for both 1/7
        # and 1/14 in base 10, whose periods of 6 digits cost 18; 2/(3^6 - 1)
        # = 1/364 keeps its 9-bit q' = 364 in base 3 and costs 54.
        member = F(2, 3**6 - 1)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 18)
        assert base_expansion(F(1, 7), 10).period == (1, 4, 2, 8, 5, 7)
        assert base_expansion(F(1, 14), 10).period == (7, 1, 4, 2, 8, 5)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 17)
        for x in (F(1, 7), F(1, 14)):
            with pytest.raises(DepthCapError, match=r"^the base-10 period exceeds the period work cap "
                                                    r"of 17 \(digits x denominator bits\): over 5 "
                                                    r"digits of a 3-bit denominator$"):
                base_expansion(x, 10)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 54)
        assert cantor_function(member) == F(1, 2**6 - 1)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 53)
        for call in (lambda: member_limit(member, CANTOR_TERNARY),
                     lambda: membership_witness(member, CANTOR_TERNARY),
                     lambda: cantor_function(member)):
            with pytest.raises(DepthCapError, match="period work cap of 53 "):
                call()
        # The zeros that follow the window are free of the work cap, not of the digit cap:
        # 1/(3^40 - 1) is 39 zeros and a 1 over a 64-bit q'. The window's 7 digits and
        # the 1 are charged, the other 32 zeros are not.
        x = F(1, 3**40 - 1)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 64 * 8)
        assert base_expansion(x, 3).period == (0,) * 39 + (1,)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 64 * 8 - 1)
        with pytest.raises(DepthCapError, match=r"^the base-3 period exceeds the period work cap of 511 "
                                                r"\(digits x denominator bits\): over 7 digits of a "
                                                r"64-bit denominator$"):
            base_expansion(x, 3)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", 64 * 8)
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", 39)
        with pytest.raises(DepthCapError, match="^the base-3 period exceeds the period cap of 39 digits$"):
            base_expansion(x, 3)
        # Where the digit cap binds, also together with the work cap, its line is the one raised.
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", 5)
        for work in (15, 17):
            monkeypatch.setattr(analysis_module, "MAX_PERIOD_WORK", work)
            with pytest.raises(DepthCapError, match="^the base-10 period exceeds the period cap of 5 digits$"):
                base_expansion(F(1, 7), 10)


    def test_a_period_that_ends_among_the_zeros_after_the_window(self):
        # Base 10 reads t = 3 digits a step. 7000/99999 repeats 07000: its
        # window is 070, and the zeros after it run on into the next period.
        assert base_expansion(F(7000, 99999), 10) == ExpansionRecord(10, (), (0, 7, 0, 0, 0))
        assert base_expansion(F(7, 99999), 10) == ExpansionRecord(10, (), (0, 0, 0, 0, 7))


class TestMemberLimit:
    def test_quarter_is_in_ternary_set(self):
        assert member_limit(F(1, 4), CANTOR_TERNARY)

    def test_half_is_not(self):
        assert not member_limit(F(1, 2), CANTOR_TERNARY)

    def test_endpoint_via_alternate_expansion(self):
        assert member_limit(F(1, 3), CANTOR_TERNARY)
        witness = membership_witness(F(1, 3), CANTOR_TERNARY)
        assert witness == ExpansionRecord(3, (0,), (2,))

    def test_unit_endpoints(self):
        assert member_limit(F(0), CANTOR_TERNARY)
        assert member_limit(F(1), CANTOR_TERNARY)

    def test_odd_fifths_members(self):
        assert member_limit(F(2, 5), ODD_FIFTHS)   # 0.2 base 5
        assert not member_limit(F(1, 5) + F(1, 25), ODD_FIFTHS)  # digit 1 appears

    def test_requires_digit_family(self):
        with pytest.raises(TypeError):
            member_limit(F(1, 4), VOLTERRA)
        assert member_limit(F(1, 4), MIDDLE_THIRDS) is True


class TestMemberAtDepth:
    def test_quarter_survives_deep(self):
        assert member_at_depth(F(1, 4), MIDDLE_THIRDS, 20)

    def test_half_removed_at_stage_one(self):
        assert not member_at_depth(F(1, 2), MIDDLE_THIRDS, 1)

    def test_volterra_stage_two_endpoint(self):
        assert member_at_depth(F(7, 32), VOLTERRA, 2)

    def test_matches_stage_enumeration(self):
        # The digit sets with adjacent kept digits have block boundaries j/n^k
        # that two touching children share; either child holds them.
        families = (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 2)), Power(2),
                    DigitSet(5, (0, 1, 4)), DigitSet(7, (0, 1, 2, 6)))
        points = [F(p, 64) for p in range(65)] + [F(1, 3), F(7, 32), F(2, 5)]
        for f in families:
            n = moran_row(f).s
            for k in (0, 1, 2, 3, 5):
                stage = iterate(f, k)
                for x in points + [F(j, n**3) for j in range(n**3 + 1)]:
                    assert member_at_depth(x, f, k) == stage.contains_point(x)

    def test_monotone_nonincreasing_in_depth(self):
        for x in (F(1, 4), F(1, 3), F(17, 64), F(5, 9)):
            verdicts = [member_at_depth(x, MIDDLE_THIRDS, k) for k in range(15)]
            assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))

    def test_power_two_point_survives_forever(self):
        assert member_at_depth(F(1, 4), Power(2), 30)
        assert not member_at_depth(F(1, 8), Power(2), 30)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            member_at_depth(F(3, 2), MIDDLE_THIRDS, 3)


@pytest.mark.skipif(not _digit_limit(),
                    reason="this interpreter prints integers of any length")
@pytest.mark.parametrize("call", [lambda x: base_expansion(x, 3),
                                  lambda x: member_at_depth(x, MIDDLE_THIRDS, 3)],
                         ids=["base_expansion", "member_at_depth"])
def test_an_input_too_large_to_print_is_described_in_the_range_error(call):
    # str() of 10^4400 raises; its error used to replace the range message.
    with pytest.raises(ValueError, match=r"\[0,1\], got a rational of over \d+ digits$"):
        call(F(10**4400))


def forbidden_walk(*args, **kwargs):
    raise AssertionError("the walk started before the cap was checked")


class TestWalkCap:
    # Uncapped, member --alpha 1e-1000 --depth 2000 walked 6.6-million-bit
    # integers for 76 s, and --kmax 200 on Lambda(1e-1000) for 2.2 s.
    FAMILIES = (MIDDLE_THIRDS, VOLTERRA, ODD_FIFTHS, LambdaFamily(F(1, 2)),
                LambdaFamily(F(7, 1_000_003)), Power(2), DigitSet(5, (0, 1, 4)))

    @staticmethod
    def predicted(f, k, unit):
        row = moran_row(f)
        return unit.bit_length() + _live_steps(row, k) * row.s.bit_length()

    @pytest.mark.parametrize("f", FAMILIES, ids=repr)
    def test_prediction_bounds_every_integer_of_the_walk(self, f):
        x, k = F(5, 10**12 + 39), 60
        bits = self.predicted(f, k, x.denominator)
        row = moran_row(f)
        assert (x.denominator * row.s ** _live_steps(row, k)).bit_length() <= bits
        assert all(max(length, *offsets).bit_length() <= bits
                   for _, length, offsets in islice(_steps(f, x.denominator), k))

    @pytest.mark.parametrize("f", FAMILIES, ids=repr)
    def test_cap_is_exact_and_refuses_before_the_first_step(self, monkeypatch, f):
        x, k = F(1, 3), 50
        walks = [(lambda: member_at_depth(x, f, k), self.predicted(f, k, 3))]
        if f != Power(2):  # its estimates stop at the point stage, step 2
            walks.append((lambda: dimension_estimates(f, k), self.predicted(f, k, 1)))
        for walk, bits in walks:
            expected = walk()
            monkeypatch.setattr(families_module, "MAX_WALK_BITS", bits)
            assert walk() == expected
            monkeypatch.setattr(families_module, "MAX_WALK_BITS", bits - 1)
            for module in (families_module, analysis_module):  # member_at_depth's walk, dimension_estimates'
                monkeypatch.setattr(module, "_steps", forbidden_walk)
            with pytest.raises(DepthCapError, match=f"may reach {bits}-bit integers"):
                walk()
            monkeypatch.undo()

    @pytest.mark.parametrize("f", FAMILIES, ids=repr)
    def test_a_walk_of_no_steps_is_not_refused(self, f):
        # Stage 0 is [0, 1]: member at depth 0 takes no step, so no integer of
        # the walk grows past x's denominator, however large that is.
        x = F(1, 3**12000)
        assert self.predicted(f, 0, x.denominator) > families_module.MAX_WALK_BITS
        assert member_at_depth(x, f, 0) is True
        assert iterate(f, 0).contains_point(x)
        with pytest.raises(DepthCapError, match="a walk of 1 step may reach"):
            member_at_depth(x, f, 1)

    @pytest.mark.parametrize("f", (MIDDLE_THIRDS, VOLTERRA, LambdaFamily(F(1, 2)),
                                   DigitSet(5, (0, 1, 4))), ids=repr)
    def test_benchmark_point_queries_still_answer(self, f):
        # member --depth 2000 at a point over 2 s^2000, as the benchmark's
        # stage-2000 ends and gap midpoints are, and analyze --kmax 300.
        s = moran_row(f).s
        x = F(1, 2 * s**2000)
        assert self.predicted(f, 2000, x.denominator) <= families_module.MAX_WALK_BITS
        member_at_depth(x, f, 2000)
        assert len(dimension_estimates(f, 300).sequence) == 300


class TestCantorFunction:
    def test_endpoints(self):
        assert cantor_function(F(0)) == 0
        assert cantor_function(F(1)) == 1

    def test_quarter_maps_to_third(self):
        assert cantor_function(F(1, 4)) == F(1, 3)

    def test_removed_gap_endpoints_share_value(self):
        assert cantor_function(F(1, 3)) == F(1, 2)
        assert cantor_function(F(2, 3)) == F(1, 2)

    def test_deeper_gap_endpoints(self):
        # endpoints of the removed middle third of [0, 1/3]
        assert cantor_function(F(1, 9)) == F(1, 4)
        assert cantor_function(F(2, 9)) == F(1, 4)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            cantor_function(F(1, 2))
        with pytest.raises(ValueError):
            cantor_function(F(5, 4))
