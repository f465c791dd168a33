"""Dimensions, digit expansions, limit-set membership, staircase map.

Dimension values are floats (53-bit doubles) derived from exact interval
counts and lengths; logarithms of huge integers are taken term-by-term so
deep stages do not lose precision to overflow.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from .exact import _Frozen, _echo, _json_int, _json_ints, _json_shape, format_rational
from .families import (
    DepthCapError,
    DigitSet,
    FamilySpec,
    _check_walk,
    _closed_form,
    _steps,
    digit_form,
    member_at_depth,  # families' point descent, still read as analysis.member_at_depth
    moran_row,
)

CANTOR_TERNARY = DigitSet(3, (0, 2))

MAX_PERIOD_DIGITS = 1_000_000
"""Longest period, in digits, that a long division follows before it gives
up with DepthCapError: the period of 1/p can be p - 1 digits long."""

MAX_PERIOD_WORK = 1 << 32
"""Largest period, in digits times bits of q' (q with the primes of the base
divided out), that a long division follows before it gives up with
DepthCapError: each digit divides a remainder of about that many bits."""


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


# --- digit expansions -------------------------------------------------------

class ExpansionRecord(_Frozen):
    """Eventually periodic base-n expansion: 0.(preperiod)(period)(period)...

    An empty period means the expansion terminates (implicit all-zero tail).
    Both parts are minimal: the preperiod stops at the first repeated
    long-division remainder and the period holds distinct remainders only.
    """

    __slots__ = ("base", "preperiod", "period")

    def __init__(self, base: int, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def to_rational(self) -> Fraction:
        """Exact value of the represented expansion."""
        b, m = self.base, len(self.preperiod)
        value = Fraction(_digits_value(self.preperiod, b), b**m)
        if self.period:
            value += Fraction(_digits_value(self.period, b), b**m * (b ** len(self.period) - 1))
        return value

    def alternate_tail_form(self) -> ExpansionRecord | None:
        """The second representation of a terminating expansion, if any.

        k/n^m also equals (k-1)/n^m followed by an all-(n-1) tail; nonzero
        terminating values therefore have exactly two base-n expansions.
        Trailing zeros are dropped first; the value 0 has no second expansion.
        """
        pre, end = self.preperiod, len(self.preperiod)
        while end and not pre[end - 1]:
            end -= 1
        if self.period or not end:
            return None
        return ExpansionRecord(self.base, pre[:end - 1] + (pre[end - 1] - 1,), (self.base - 1,))

    def to_json(self) -> dict:
        return {"base": self.base, "preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_json(cls, obj: dict) -> "ExpansionRecord":
        """Exact values only, as in the family JSON: else ValueError."""
        _json_shape(obj, "expansion", ("base", "preperiod", "period"))
        base = _json_int(obj["base"], "base")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {_echo(base, str)}")
        pre, period = _json_ints(obj["preperiod"], "preperiod"), _json_ints(obj["period"], "period")
        if not all(0 <= d < base for d in pre + period):
            raise ValueError(f"digits must lie in 0..{_echo(base - 1, str)}")
        return cls(base, pre, period)


def _digits_value(digits: tuple[int, ...], base: int) -> int:
    """The integer with these base-n digits, by balanced splitting: a few big
    products instead of one step per digit on an ever longer integer."""
    if len(digits) <= 64:
        value = 0
        for d in digits:
            value = value * base + d
        return value
    half = len(digits) // 2
    return (_digits_value(digits[:half], base) * base ** (len(digits) - half)
            + _digits_value(digits[half:], base))


def _preperiod_length(q: int, base: int) -> int:
    """Preperiod length of any p/q in lowest terms: the least m such that the
    part of q built from the primes of the base divides base^m."""
    m = 0
    while (g := math.gcd(q, base)) > 1:
        # A step removes g (up to v_p(base) of each shared prime p), and the
        # next k steps too while g^k divides q: strip g^(2^j), largest first.
        powers = [g]
        while q % (square := powers[-1] ** 2) == 0:
            powers.append(square)
        for j in reversed(range(len(powers))):
            if q % powers[j] == 0:
                q //= powers[j]
                m += 1 << j
    return m


@lru_cache(maxsize=8)
def _chunk_table(base: int) -> tuple[int, int, tuple[tuple[int, ...], ...] | None]:
    """(t, base^t, the t digits of each quotient below base^t): t is the
    largest with base^t <= 4096, or 1 with no table past 4096. Kept per base,
    so a short expansion does not pay for a table of up to 4096 rows."""
    t = 1
    while base ** (t + 1) <= 4096:
        t += 1
    step = base**t
    return t, step, tuple(product(range(base), repeat=t)) if step <= 4096 else None


def _digit_chunks(x: Fraction, base: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(digits, remainder) chunks of the long division of x in [0,1), through
    the preperiod of m digits and one period, then stop.

    A step multiplies the remainder by base^t (see _chunk_table) and reads
    the t digits of the quotient from a table. Remainder r_j = p * base^j
    mod q is periodic from j = m with the minimal period L (0 when the
    expansion terminates), so r_{m+a} = r_{m+b} iff L divides a - b. The
    period divides S = gcd(q, base^m), the part of q built from the primes
    of the base, out of the remainder and q once (r_j is a multiple of S
    from j = m on): same digits, smaller q, here q'.

    The first t remainders r_m .. r_{m+t-1} are kept, found one digit at a
    time, so a period of at most t digits ends among them. Past them L > t.
    The z zeros that follow (a small point's leading zeros), z the largest
    with r * base^z < q', take one multiplication by base^z and join the
    window's chunk; z < L, as the period holds a nonzero digit. From there
    every chunk is t digits, and when the remainder after the chunk that
    ends at digit e of the period is r_{m+i}, L = e - i: of any t
    consecutive ends, at most one is a multiple of L. A period not closed
    within MAX_PERIOD_DIGITS digits, or within MAX_PERIOD_WORK // (bits of
    q') digits besides the z zeros when that is fewer, raises DepthCapError
    once those digits are yielded.
    """
    p, q = x.numerator, x.denominator
    t, step, table = _chunk_table(base)
    rem = p
    for _ in range(m // t):
        chunk, rem = divmod(rem * step, q)
        yield table[chunk] if table else (chunk,), rem
    for _ in range(m % t):
        digit, rem = divmod(rem * base, q)
        yield (digit,), rem
    if not rem:
        return  # terminating: no period
    smooth = math.gcd(q, base**m)
    rem, q = rem // smooth, q // smooth
    seen, first = {}, []
    while len(first) < t and rem not in seen:
        seen[rem] = len(first)
        digit, rem = divmod(rem * base, q)
        first.append(digit)
    digits, z = tuple(first), 0
    if rem not in seen:
        # A lower bound on z from the bit lengths, then at most a few steps up.
        z = max(0, int((q.bit_length() - rem.bit_length() - 1) / math.log2(base)) - 1)
        rem *= base**z
        while rem * base < q:
            rem *= base
            z += 1
        digits += (0,) * z
    work = MAX_PERIOD_WORK // q.bit_length()
    cap, done = min(MAX_PERIOD_DIGITS, work + z), len(digits)  # done: the digits through this chunk
    while (i := seen.get(rem)) is None and done <= cap:
        yield digits, rem
        chunk, rem = divmod(rem * step, q)
        digits = table[chunk] if table else (chunk,)
        done += t
    done -= len(digits)  # the period ends in this chunk, or passes the cap
    size = len(digits) - (i or 0)
    if done + size > cap:
        yield digits[:cap - done], rem
        if cap == MAX_PERIOD_DIGITS:
            raise DepthCapError(f"the base-{_echo(base, str)} period exceeds the period cap of "
                                f"{cap} digits")
        raise DepthCapError(f"the base-{_echo(base, str)} period exceeds the period work cap of "
                            f"{MAX_PERIOD_WORK} (digits x denominator bits): over {work} digits "
                            f"of a {q.bit_length()}-bit denominator")
    yield digits[:size], rem


def _expansion(x: Fraction, base: int, kept: set[int] | None) -> ExpansionRecord | None:
    """The base-n expansion of x in [0,1] by exact long division, in the digits
    of ``kept`` (every digit when None), or None if x has no such expansion.

    One pass of _digit_chunks, checked a chunk at a time: x is rejected in
    the chunk of its first digit outside ``kept``, which only the alternate
    tail form of a terminating expansion (its last chunk ends on remainder 0)
    can mend. x = 1 is 0.(n-1)(n-1)..., and n-1 is kept by every digit set.
    """
    if x == 1:
        return ExpansionRecord(base, (), (base - 1,))
    m = _preperiod_length(x.denominator, base)
    digits = []
    for chunk, rem in _digit_chunks(x, base, m):
        digits += chunk
        if kept is not None and not kept.issuperset(chunk):
            if rem:
                return None
            alternate = ExpansionRecord(base, tuple(digits), ()).alternate_tail_form()
            return alternate if kept.issuperset(alternate.preperiod + alternate.period) else None
    digits = tuple(digits)
    return ExpansionRecord(base, digits[:m], digits[m:])


def base_expansion(x: Fraction, base: int) -> ExpansionRecord:
    """Canonical base-n expansion of a rational in [0,1] by exact long division.

    x = 1 is reported in its infinite form 0.(n-1)(n-1)... since no digit
    string below the radix point can terminate at 1. Costs O(preperiod +
    period) digits at t per big-integer step (see _digit_chunks) and holds t
    remainders, no table of every remainder seen.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {_echo(base, str)}")
    if not 0 <= x <= 1:
        raise ValueError(f"expansion input must lie in [0,1], got {_echo(x, str)}")
    return _expansion(x, base, None)


# --- dimensions ---------------------------------------------------------------

EXACT_SIMILARITY = "exact_similarity"
ESTIMATE_SEQUENCE = "estimate_sequence"


class DimensionReport(_Frozen):
    """A dimension value. Exact reports add count_base (children per interval)
    and scale (the per-step dilation factor), estimates the sequence (k, d_k)."""

    __slots__ = ("value", "kind", "sequence", "count_base", "scale")

    def __init__(self, value: float, kind: str,
                 sequence: tuple[tuple[int, float], ...] | None = None,
                 count_base: int | None = None, scale: Fraction | None = None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "count_base", count_base)
        object.__setattr__(self, "scale", scale)

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "value": self.value}
        if self.kind == EXACT_SIMILARITY:
            obj["numerator_count"] = self.count_base
            obj["scale"] = format_rational(self.scale)
        else:
            obj["sequence"] = [[k, d] for k, d in (self.sequence or ())]
        return obj


def similarity_dimension(f: FamilySpec) -> DimensionReport:
    """Dimension from the one-step dilation argument: log m / log(1/alpha), exact
    for a self-similar family (B = 0 in ``_closed_form``: m maps of ratio alpha).
    A row with B != 0 (Power n >= 3, Lambda) is not proportional across steps; for
    it the step-1 dilation value log m / log(1/L_1) is an estimate only
    (dimension_estimates has the sequence)."""
    row = moran_row(f)
    a, alpha, b, beta = _closed_form(row)
    if b is None:
        raise ValueError("power n=2 collapses to finitely many points; no dimension")
    if not b:
        return DimensionReport(value=math.log(row.m) / _log(1 / alpha),
                               kind=EXACT_SIMILARITY, count_base=row.m, scale=1 / alpha)
    # 1/L_1 read as (2/beta) / (2 L_1/beta), L_1 = A alpha + B beta: for the centred removal (n, lam)
    # the terms are 2n and n - lam, so Lambda keeps its float, log 2 / (log 6 - log(3 - lam)).
    d1 = math.log(row.m) / (_log(2 / beta) - _log(2 * (a * alpha + b * beta) / beta))
    return DimensionReport(value=d1, kind=ESTIMATE_SEQUENCE, sequence=((1, d1),))


def dimension_estimates(f: FamilySpec, kmax: int) -> DimensionReport:
    """Dilation estimates d_k = ln(count_k) / ln(1/length_k) for k = 1..kmax.
    Raises DepthCapError, before the first step, for a walk over families.MAX_WALK_BITS."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {_echo(kmax, str)}")
    _check_walk(f, kmax, 1)
    seq, denom, count = [], 1, 1
    for k, (s, length, offsets) in enumerate(islice(_steps(f), kmax), 1):
        denom *= s
        count *= len(offsets)
        if length == 0:
            raise ValueError(f"stage {k} is a finite point set; dilation estimate undefined")
        seq.append((k, math.log(count) / _log(Fraction(denom, length))))
    return DimensionReport(value=seq[-1][1], kind=ESTIMATE_SEQUENCE, sequence=tuple(seq))


# --- membership ----------------------------------------------------------------

def member_limit(x: Fraction, f: FamilySpec) -> bool:
    """Exact limit-set membership for any family with a digit form (else
    TypeError): whether membership_witness finds a witness."""
    return membership_witness(x, f) is not None


def membership_witness(x: Fraction, f: FamilySpec) -> ExpansionRecord | None:
    """The expansion of x in the kept digits of ``digit_form(f)`` (see
    _expansion), or None if x is not in the limit set; TypeError when f has
    no digit form."""
    form = digit_form(f)
    if form is None:
        raise TypeError(f"limit membership needs a family with a digit form; {f!r} has none")
    if not 0 <= x <= 1:
        return None
    return _expansion(x, form.n, set(form.digits))


# --- the staircase map -----------------------------------------------------------

def cantor_function(x: Fraction) -> Fraction:
    """The devil's-staircase value of a rational point of the ternary set.

    Takes the {0,2}-witness ternary expansion of x, halves every digit and
    reads the result in base 2; the eventually periodic sum is returned in
    closed form, exactly.
    """
    witness = membership_witness(x, CANTOR_TERNARY)
    if witness is None:
        raise ValueError(f"{_echo(x, str)} is not in the ternary Cantor set")
    halved = (tuple(d // 2 for d in part) for part in (witness.preperiod, witness.period))
    return ExpansionRecord(2, *halved).to_rational()
