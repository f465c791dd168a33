"""Randomized invariant suites: fixed seeds, independent oracles."""

import math
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from cantorlike.analysis import (
    ExpansionRecord,
    base_expansion,
    cantor_function,
    member_at_depth,
    member_limit,
    membership_witness,
)
from cantorlike.families import (
    DigitSet,
    LambdaFamily,
    Power,
    Proportional,
    digit_form,
)
from cantorlike.sets import ClosedInterval, IntervalSet, ifs_maps, ifs_step, iterate, removed_by_generation

SEED = 20260823


def fractions(low, high, max_denominator):
    """The rationals in [low, high] with denominator at most max_denominator,
    the values of st.fractions, drawn as q, then p in range, then F(p, q):
    st.fractions takes about twice as long to draw the same values."""
    low, high = F(low), F(high)
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(math.ceil(low * q), math.floor(high * q)).map(lambda p: F(p, q)))


rationals = fractions(-100, 100, 10**6)
unit_rationals = fractions(0, 1, 10**4)


def interval_strategy():
    return st.tuples(unit_rationals, unit_rationals).map(
        lambda ab: ClosedInterval(min(ab), max(ab))
    )


def random_family(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        q = rng.randrange(2, 12)
        p = rng.randrange(1, q)
        return Proportional(F(p, q))
    if kind == 1:
        return Power(rng.randrange(2, 8))
    if kind == 2:
        n = rng.randrange(3, 9)
        inner = [d for d in range(1, n - 1) if rng.random() < 0.5]
        if len(inner) == n - 2:
            inner.remove(rng.choice(inner))  # must remove at least one block
        return DigitSet(n, tuple([0] + inner + [n - 1]))
    q = rng.randrange(1, 10)
    p = rng.randrange(1, q + 1)
    return LambdaFamily(F(p, q))


def random_unit_rational(rng: random.Random, max_den: int = 10**6) -> F:
    den = rng.randrange(1, max_den + 1)
    return F(rng.randrange(0, den + 1), den)


def random_depth(rng: random.Random, f, budget: int = 4096) -> int:
    # keep the enumerated stage below ~budget intervals whatever the branching
    branching = len(f.digits) if isinstance(f, DigitSet) else 2
    cap = 1
    while branching ** (cap + 1) <= budget and cap < 6:
        cap += 1
    return rng.randrange(0, cap + 1)


# --- exact arithmetic ------------------------------------------------------

@settings(max_examples=500, derandomize=True, deadline=None)
@given(rationals, rationals)
def test_rational_add_sub_round_trip(a, b):
    assert (a + b) - b == a
    assert (a * b) / b == a if b != 0 else True


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(interval_strategy(), max_size=12))
def test_normalize_idempotent(intervals):
    once = IntervalSet(intervals)
    assert IntervalSet(tuple(once)) == once


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(interval_strategy(), max_size=12),
       fractions("1/100", 50, 100),
       rationals)
def test_affine_image_scales_length(intervals, scale, shift):
    s = IntervalSet(intervals)
    assert s.affine_image(scale, shift).total_length == scale * s.total_length


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.one_of(interval_strategy(), unit_rationals.map(lambda x: ClosedInterval(x, x))),
                max_size=12),
       unit_rationals)
def test_contains_point_matches_linear_scan(intervals, x):
    # A random unit rational almost never lands on an end of the set, and an
    # end is where the parity rule's exact check decides (a right end, and
    # both ends of a point interval). So every end is queried too, with the
    # points a third of a unit of the set's denominator either side of it.
    s = IntervalSet(intervals)
    ivs = tuple(s)
    ends = [F(e, s.denom) for e in s.ends]
    near = F(1, 3 * s.denom)
    for y in [x, *ends, *(e + d for e in ends for d in (-near, near))]:
        assert s.contains_point(y) == any(i.a <= y <= i.b for i in ivs), y


# --- stage invariants --------------------------------------------------------

def test_nesting_and_endpoint_persistence():
    rng = random.Random(SEED)
    for _ in range(500):
        f = random_family(rng)
        k = random_depth(rng, f)
        stage, finer = iterate(f, k), iterate(f, k + 1)
        assert stage.covers(finer)
        for interval in stage:
            assert finer.contains_point(interval.a)
            assert finer.contains_point(interval.b)


def test_symmetry_about_one_half():
    rng = random.Random(SEED + 1)
    cases = 0
    while cases < 500:
        f = random_family(rng)
        if isinstance(f, DigitSet) and any(
            (f.n - 1 - d) not in f.digits for d in f.digits
        ):
            continue  # asymmetric digit choice: symmetry not expected
        k = random_depth(rng, f)
        stage = iterate(f, k)
        x = random_unit_rational(rng, 10**4)
        assert stage.contains_point(x) == stage.contains_point(1 - x)
        cases += 1


def test_partition_identity_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(500):
        f = random_family(rng)
        k = random_depth(rng, f)
        removed = sum((g.length for gen in removed_by_generation(f, k) for g in gen), F(0))
        assert iterate(f, k).total_length + removed == 1


def test_digit_proportional_stage_equality():
    for alpha in (F(1, 3), F(1, 2), F(3, 4)):
        equivalent = digit_form(Proportional(alpha))
        assert equivalent is not None
        for k in range(9):
            assert iterate(Proportional(alpha), k) == iterate(equivalent, k)


def test_digit_proportional_membership_agreement():
    rng = random.Random(SEED + 3)
    alphas = (F(1, 3), F(1, 2), F(3, 4))
    for _ in range(500):
        alpha = rng.choice(alphas)
        x = random_unit_rational(rng, 10**4)
        k = rng.randrange(0, 9)
        assert member_at_depth(x, Proportional(alpha), k) == member_at_depth(
            x, digit_form(Proportional(alpha)), k
        )


def test_ifs_step_advances_stage():
    maps = ifs_maps(Proportional(F(1, 3)))
    for k in range(11):
        assert ifs_step(iterate(Proportional(F(1, 3)), k), maps) == iterate(
            Proportional(F(1, 3)), k + 1
        )


def test_ifs_step_advances_random_self_similar_families():
    rng = random.Random(SEED + 4)
    cases = 0
    while cases < 500:
        f = random_family(rng)
        if isinstance(f, (Power, LambdaFamily)):
            continue
        if isinstance(f, DigitSet) and any(
            b == a + 1 for a, b in zip(f.digits, f.digits[1:])
        ):
            continue  # touching blocks merge, so stages are not pure IFS images
        k = random_depth(rng, f, budget=2048)
        assert ifs_step(iterate(f, k), ifs_maps(f)) == iterate(f, k + 1)
        cases += 1


def test_lambda_one_equals_power_three():
    for k in range(11):
        assert iterate(LambdaFamily(F(1)), k) == iterate(Power(3), k)


# --- membership oracles ---------------------------------------------------------

digit_families = st.integers(3, 9).flatmap(lambda n: st.builds(
    lambda inner: DigitSet(n, (0, *inner, n - 1)),
    st.sets(st.integers(1, n - 2), max_size=n - 3),
))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(digit_families, st.data())
def test_membership_witness_exists_exactly_for_members(f, data):
    # Plain rationals, some outside [0,1], and n-adic points, whose second
    # expansion (a tail of n-1 digits) may be the only witness.
    x = data.draw(st.one_of(
        st.fractions(min_value=-1, max_value=2, max_denominator=10**4),
        st.integers(0, 6).flatmap(lambda m: st.integers(0, f.n**m).map(lambda k: F(k, f.n**m))),
    ))
    witness = membership_witness(x, f)
    assert (witness is None) == (not member_limit(x, f))
    if witness is not None:
        assert witness.base == f.n and set(witness.preperiod + witness.period) <= set(f.digits)
        assert witness.to_rational() == x


def test_member_limit_agrees_with_deep_stage_verdict():
    rng = random.Random(SEED + 5)
    families = [DigitSet(3, (0, 2)), DigitSet(4, (0, 3)), DigitSet(5, (0, 2, 4))]
    for _ in range(1000):
        f = rng.choice(families)
        x = random_unit_rational(rng)
        deep = member_at_depth(x, f, 40)
        if not deep:
            assert not member_limit(x, f)  # rejection at depth 40 is decisive
        if member_limit(x, f):
            assert deep


def test_member_at_depth_monotone_nonincreasing():
    rng = random.Random(SEED + 6)
    for _ in range(500):
        f = random_family(rng)
        x = random_unit_rational(rng, 10**4)
        verdicts = [member_at_depth(x, f, k) for k in range(12)]
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def test_known_members_survive_every_depth():
    rng = random.Random(SEED + 7)
    f = DigitSet(3, (0, 2))
    for _ in range(500):
        digits = [rng.choice((0, 2)) for _ in range(rng.randrange(1, 12))]
        x = sum(F(d, 3**i) for i, d in enumerate(digits, start=1))
        assert member_limit(x, f)
        assert member_at_depth(x, Proportional(F(1, 3)), 40)


# --- expansions and the staircase -------------------------------------------------

def test_base_expansion_round_trip_randomized():
    rng = random.Random(SEED + 8)
    for _ in range(500):
        x = random_unit_rational(rng, 3000)  # keeps period lengths reconstruction-friendly
        base = rng.randrange(2, 17)
        rec = base_expansion(x, base)
        assert rec.to_rational() == x
        assert all(0 <= d < base for d in rec.preperiod + rec.period)
        alt = rec.alternate_tail_form()
        if alt is not None:
            assert alt.to_rational() == x


@st.composite
def expansion_records(draw):
    """Any record the JSON reader accepts: trailing zeros and all-zero digits
    included, which long division never gives."""
    base = draw(st.one_of(st.integers(2, 12), st.just(4097)))
    digits = st.lists(st.one_of(st.just(0), st.integers(0, base - 1)), max_size=6)
    obj = {"base": base, "preperiod": draw(digits), "period": draw(digits)}
    return ExpansionRecord.from_json(obj)


@settings(max_examples=300, deadline=None)
@given(expansion_records())
def test_alternate_tail_form_is_an_expansion_of_the_same_value(rec):
    alt = rec.alternate_tail_form()
    if alt is None:
        assert rec.period or rec.to_rational() == 0
        return
    assert all(0 <= d < rec.base for d in alt.preperiod + alt.period)
    assert alt.to_rational() == rec.to_rational()
    assert alt.period == (rec.base - 1,)


def cantor_members(count: int, rng: random.Random) -> list[F]:
    members = set()
    while len(members) < count:
        pre = tuple(rng.choice((0, 2)) for _ in range(rng.randrange(0, 10)))
        per = tuple(rng.choice((0, 2)) for _ in range(rng.randrange(1, 8)))
        from cantorlike.analysis import ExpansionRecord

        members.add(ExpansionRecord(3, pre, per).to_rational())
    return sorted(members)


def test_cantor_function_monotone_on_sorted_members():
    rng = random.Random(SEED + 9)
    xs = cantor_members(200, rng)
    values = [cantor_function(x) for x in xs]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0 <= v <= 1 for v in values)


def test_cantor_function_pinned_values():
    assert cantor_function(F(1, 4)) == F(1, 3)
    assert cantor_function(F(1, 3)) == F(1, 2)
    assert cantor_function(F(2, 3)) == F(1, 2)


def test_cantor_function_constant_across_removed_gaps():
    # closure endpoints of each removed interval share one dyadic value
    gens = removed_by_generation(Proportional(F(1, 3)), 6)
    for gap in (gap for gen in gens for gap in gen):
        left, right = cantor_function(gap.a), cantor_function(gap.b)
        assert left == right
        assert left.denominator & (left.denominator - 1) == 0  # a dyadic rational
