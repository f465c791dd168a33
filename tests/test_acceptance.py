"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction as F

import pytest

import test_properties as props
from cantorlike.analysis import dimension_estimates, similarity_dimension
from cantorlike.families import DigitSet, LambdaFamily, Power, Proportional, limit_measure, measure_at_depth
from cantorlike.sets import ClosedInterval, IntervalSet, iterate
from cantorlike.counterexample import tail_measure

MIDDLE_THIRDS = Proportional(F(1, 3))
VOLTERRA = Power(4)


def ci(a, b):
    return ClosedInterval(F(a), F(b))


def iset(*pairs):
    return IntervalSet([ci(a, b) for a, b in pairs])


class _criterion:
    def __init__(self, number, title):
        self.label = f"ACCEPTANCE {number} ({title})"

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.label}: {verdict}  [{self.elapsed:.3f}s]", flush=True)
        return False


def test_criterion_1_stage_regression():
    with _criterion(1, "stage regression") as c:
        assert iterate(MIDDLE_THIRDS, 3) == iset(
            ("0", "1/27"), ("2/27", "1/9"), ("2/9", "7/27"), ("8/27", "1/3"),
            ("2/3", "19/27"), ("20/27", "7/9"), ("8/9", "25/27"), ("26/27", "1"),
        )
        assert iterate(VOLTERRA, 2) == iset(
            ("0", "5/32"), ("7/32", "3/8"), ("5/8", "25/32"), ("27/32", "1")
        )
        # seventh interval is [27/32, 117/128] by centered removal of 1/64
        assert iterate(VOLTERRA, 3) == iset(
            ("0", "9/128"), ("11/128", "5/32"), ("7/32", "37/128"), ("39/128", "3/8"),
            ("5/8", "89/128"), ("91/128", "25/32"), ("27/32", "117/128"), ("119/128", "1"),
        )
        assert c.elapsed < 1.0


def test_criterion_2_measures():
    with _criterion(2, "exact measures") as c:
        assert limit_measure(VOLTERRA) == F(1, 2)
        for n in (3, 4, 5, 6):
            assert limit_measure(Power(n)) == F(n - 3, n - 2)
        for lam in (F(1, 4), F(1, 2), F(1)):
            assert limit_measure(LambdaFamily(lam)) == 1 - lam
        for alpha in (F(1, 3), F(1, 2), F(1, 4), F(3, 4)):
            assert limit_measure(Proportional(alpha)) == 0
        assert limit_measure(DigitSet(5, (0, 2, 4))) == 0
        assert c.elapsed < 1.0


def test_criterion_3_dimensions():
    with _criterion(3, "dimensions") as c:
        assert similarity_dimension(MIDDLE_THIRDS).value == pytest.approx(0.630930, abs=1e-6)
        assert similarity_dimension(Proportional(F(1, 2))).value == pytest.approx(0.5, abs=1e-6)
        assert similarity_dimension(Proportional(F(1, 4))).value == pytest.approx(
            0.706695, abs=1e-6
        )
        # dilation factor 8 gives ln2/ln8 = 1/3 exactly
        assert similarity_dimension(Proportional(F(3, 4))).value == pytest.approx(
            1 / 3, abs=1e-12
        )
        fifth = similarity_dimension(DigitSet(5, (0, 2, 4))).value
        assert fifth == pytest.approx(math.log(3) / math.log(5), abs=1e-12)
        assert fifth == pytest.approx(0.6826, abs=1e-4)

        seq3 = [d for _, d in dimension_estimates(VOLTERRA, 3).sequence]
        for got, want in zip(seq3, [0.706695, 0.746806, 0.783274]):
            assert got == pytest.approx(want, abs=1e-6)

        seq40 = [d for _, d in dimension_estimates(VOLTERRA, 40).sequence]
        assert all(a < b for a, b in zip(seq40, seq40[1:]))
        assert all(d < 1 for d in seq40)
        assert seq40[-1] > 0.95
        assert c.elapsed < 1.0


def test_criterion_4_counterexample_table():
    with _criterion(4, "counterexample tails") as c:
        assert tail_measure(VOLTERRA, 0) == F(1, 2)
        for g in range(1, 11):
            assert tail_measure(VOLTERRA, 2**g - 1) == F(1, 2 ** (g + 1))
        # removed mass + surviving stage measure partitions [0,1] exactly
        for g in range(11):
            n = 2**g - 1
            removed_prefix = (1 - limit_measure(VOLTERRA)) - tail_measure(VOLTERRA, n)
            assert removed_prefix + measure_at_depth(VOLTERRA, g) == 1
        assert c.elapsed < 1.0


def test_criterion_5_property_suites():
    with _criterion(5, "randomized property suites") as c:
        props.test_nesting_and_endpoint_persistence()
        props.test_symmetry_about_one_half()
        props.test_digit_proportional_stage_equality()
        props.test_digit_proportional_membership_agreement()
        props.test_ifs_step_advances_stage()
        props.test_member_limit_agrees_with_deep_stage_verdict()
        props.test_member_at_depth_monotone_nonincreasing()
        props.test_base_expansion_round_trip_randomized()
        props.test_cantor_function_monotone_on_sorted_members()
        props.test_cantor_function_pinned_values()
        assert c.elapsed < 30.0


def test_criterion_6_scale_check():
    with _criterion(6, "scale check") as c:
        start = time.perf_counter()
        stage = iterate(MIDDLE_THIRDS, 20)
        enumerate_seconds = time.perf_counter() - start
        assert len(stage) == 2**20
        assert (stage.ends[0], F(stage.ends[1], stage.denom)) == (0, F(1, 3**20))
        assert stage.ends[-1] == stage.denom
        assert enumerate_seconds < 10.0

        measure_at_depth(MIDDLE_THIRDS, 20)  # warm the call path
        start = time.perf_counter()
        measure = measure_at_depth(MIDDLE_THIRDS, 20)
        recurrence_seconds = time.perf_counter() - start
        assert measure == F(2, 3) ** 20 == stage.total_length
        assert recurrence_seconds < 0.001
