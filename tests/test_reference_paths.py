"""The integer paths against the Fraction implementations they replaced.

The reference functions below are the earlier implementations, kept verbatim
in substance: the per-step Fraction recurrence of ``level_stats``, the
Fraction descent of ``member_at_depth``, the per-family branches that the
Moran row replaced (the lengths of ``_steps``, ``limit_measure``,
``ifs_maps`` (with the two centred removals that remove middle thirds),
the digit form of a proportional family and of the CLI,
``similarity_dimension`` and ``family_to_json``), long division with a table of every
remainder seen (one digit per step), the preperiod length found one gcd
step at a time, the ``seen``-set ``member_limit``, the two-pass
``membership_witness`` (a membership check, then the whole expansion), the
digit-by-digit value of an expansion, the JSON that ``json.dumps`` gives for
an expansion record, the removal tail summed
over ``removed_by_generation`` restarted for every generation, the gaps of
each step built family by family, the per-family integer step that built
every stage before the step table, the ``IntervalSet`` that held every
endpoint as a Fraction (with its merge and the ``ifs_step`` built on it),
the ``generate`` listing printed from the Fractions and intervals of that
set, and the SVG that drew every rect with its own f-string. The library's
integer paths must agree with them exactly, on every family.
"""

import contextlib
import io
import json
import math
import random
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction as F
from itertools import count, islice
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlike import analysis as analysis_module
from cantorlike.analysis import (
    ESTIMATE_SEQUENCE,
    EXACT_SIMILARITY,
    DimensionReport,
    ExpansionRecord,
    _log,
    base_expansion,
    cantor_function,
    dimension_estimates,
    member_at_depth,
    member_limit,
    membership_witness,
    similarity_dimension,
)
from cantorlike import cli as cli_module
from cantorlike import counterexample as counterexample_module
from cantorlike import families as families_module
from cantorlike import render as render_module
from cantorlike import sets as sets_module
from cantorlike.counterexample import tail_measure, tail_table, tail_table_csv
from cantorlike.exact import (
    _digit_limit,
    format_rational,
    rational_decimal,
)
from cantorlike.families import (
    ConstructionError,
    DepthCapError,
    DigitSet,
    LambdaFamily,
    Power,
    Proportional,
    _check_stage,
    _closed_form,
    _length_bits,
    _stage_halves,
    _steps,
    digit_form,
    family_from_json,
    family_to_json,
    level_stats,
    limit_measure,
    measure_at_depth,
    moran_row,
    stage_ends,
)
from cantorlike.sets import (
    ClosedInterval,
    IfsMaps,
    IntervalSet,
    ifs_maps,
    ifs_step,
    iterate,
    removed_by_generation,
)
from cantorlike.render import render_svg


# --- reference implementations ---------------------------------------------------

def ref_level_stats(f, k):
    if isinstance(f, Proportional):
        ratio = (1 - f.alpha) / 2
        return (2**k, ratio**k)
    if isinstance(f, DigitSet):
        length = F(1, f.n**k)
        return (len(f.digits) ** k, length)
    if isinstance(f, Power):
        length, count = F(1), 1
        for j in range(1, k + 1):
            if length == 0:
                break
            removal = F(1, f.n**j)
            if removal > length:
                raise ConstructionError(f"power removal 1/{f.n}^{j} exceeds interval length")
            length = (length - removal) / 2
            count *= 2
        return (count, length)
    length = F(1)
    for j in range(1, k + 1):
        length = (length - f.lam / F(3**j)) / 2
    return (2**k, length)


def ref_level_stats_recurrence(f, k):
    # level_stats before its closed form: the O(k) walk of the length recurrence.
    denom, length, count = 1, 1, 1
    for s, length, count in islice(step_lengths(f, 1), k):
        denom *= s
    return (count, F(length, denom))


def ref_member_at_depth(x, f, k):
    a, b = F(0), F(1)
    for j in range(1, k + 1):
        if isinstance(f, Proportional):
            h = (b - a) * (1 - f.alpha) / 2
        elif isinstance(f, Power):
            if a == b:
                return True
            removal = F(1, f.n**j)
            if removal > b - a:
                raise ValueError(f"power removal 1/{f.n}^{j} exceeds interval length")
            h = (b - a - removal) / 2
        elif isinstance(f, LambdaFamily):
            h = (b - a - f.lam / 3**j) / 2
        else:
            h = (b - a) / f.n
            for d in f.digits:
                lo = a + d * h
                if lo <= x <= lo + h:
                    a, b = lo, lo + h
                    break
            else:
                return False
            continue
        if a <= x <= a + h:
            b = a + h
        elif b - h <= x <= b:
            a = b - h
        else:
            return False
    return True


def ref_base_expansion(x, base):
    if x == 1:
        return ExpansionRecord(base, (), (base - 1,))
    p, q = x.numerator, x.denominator
    digits, seen, rem = [], {}, p
    while rem and rem not in seen:
        seen[rem] = len(digits)
        rem *= base
        digits.append(rem // q)
        rem %= q
    if rem == 0:
        return ExpansionRecord(base, tuple(digits), ())
    cut = seen[rem]
    return ExpansionRecord(base, tuple(digits[:cut]), tuple(digits[cut:]))


def ref_preperiod_length(q, base):
    m = 0
    while (g := math.gcd(q, base)) > 1:
        q //= g
        m += 1
    return m


def ref_expansion_value(base, pre, period):
    """0.(pre)(period)(period)... in the given base, one digit per step."""
    head = 0
    for d in pre:
        head = head * base + d
    value = F(head, base ** len(pre))
    if period:
        tail = 0
        for d in period:
            tail = tail * base + d
        value += F(tail, base ** len(pre) * (base ** len(period) - 1))
    return value


def ref_expansion_json(x, base):
    """The ``expansion`` output line, from json.dumps of the record dicts."""
    rec = base_expansion(x, base)
    obj = rec.to_json()
    if (alternate := rec.alternate_tail_form()) is not None:
        obj["alternate_tail"] = alternate.to_json()
    return json.dumps(obj) + "\n"


def ref_member_limit(x, f):
    if not 0 <= x <= 1:
        return False
    base, allowed = f.n, set(f.digits)
    if x == 1:
        return True
    p, q = x.numerator, x.denominator
    seen, rem = set(), p
    while rem and rem not in seen:
        seen.add(rem)
        rem *= base
        digit, rem = divmod(rem, q)
        if digit not in allowed:
            return rem == 0 and (digit - 1) in allowed
    return True


def ref_membership_witness(x, f):
    """The two-pass witness: the membership check first (here the seen-set
    ``ref_member_limit``), then a second long division for the expansion."""
    form = digit_form(f)
    if form is None:
        raise TypeError(f"limit membership needs a family with a digit form; {f!r} has none")
    if not ref_member_limit(x, form):
        return None
    rec = base_expansion(x, form.n)
    return rec if set(rec.preperiod + rec.period) <= set(form.digits) else rec.alternate_tail_form()


def ref_first_n_removed(f, n):
    entries = []
    g = 0
    while len(entries) < n:
        g += 1
        gen = removed_by_generation(f, g)[g - 1]
        if not gen:
            break
        entries.extend(gen)
    return entries[:n]


def ref_tail_measure(f, n):
    return 1 - limit_measure(f) - sum((e.length for e in ref_first_n_removed(f, n)), F(0))


def ref_tail_table(f, n_max):
    total = 1 - limit_measure(f)
    entries = ref_first_n_removed(f, n_max)
    rows, acc = [], F(0)
    for n in range(n_max + 1):
        if 0 < n <= len(entries):
            acc += entries[n - 1].length
        rows.append((n, acc, total - acc))
    return rows


def ref_removed_by_generation(f, k):
    """Gaps per generation 1..k as (a, b) Fractions: each tree interval is cut
    into its family's blocks and loses the spaces between them."""
    tree, out = [(F(0), F(1))], []
    for j in range(1, k + 1):
        kids, gaps = [], []
        for a, b in tree:
            if isinstance(f, DigitSet):
                h = (b - a) / f.n
                blocks = [(a + d * h, a + (d + 1) * h) for d in f.digits]
            elif a == b:
                blocks = [(a, b)]  # a point stays a point
            else:
                h = ref_level_stats(f, j)[1]
                blocks = [(a, a + h), (b - h, b)]
            kids += blocks
            gaps += [(hi, lo) for (_, hi), (lo, _) in zip(blocks, blocks[1:]) if hi < lo]
        tree = kids
        out.append(gaps)
    return out


def ref_refine(f, k, denom, pairs):
    """The per-family integer step the stage engine used before the step table."""
    children: list = []
    if isinstance(f, Proportional):
        p, q = f.alpha.numerator, f.alpha.denominator
        s = 2 * q
        for a, b in pairs:
            h = (b - a) * (q - p)
            a2, b2 = a * s, b * s
            children.append((a2, a2 + h))
            children.append((b2 - h, b2))
        return denom * s, children

    if isinstance(f, Power):
        n = f.n
        s = 2 * n
        if all(a == b for a, b in pairs):
            return denom, list(pairs)  # all points already: fixpoint
        removal = 2**k  # (1/n^k) scaled by the new denominator (2n)^k
        for a, b in pairs:
            a2, b2 = a * s, b * s
            width = b2 - a2
            if width < removal:
                raise ConstructionError(
                    f"power removal 1/{n}^{k} exceeds remaining interval length"
                )
            h = (width - removal) // 2
            children.append((a2, a2 + h))
            children.append((b2 - h, b2))
        return denom * s, children

    if isinstance(f, DigitSet):
        n, digits = f.n, f.digits
        for a, b in pairs:
            h = b - a
            a2 = a * n
            for d in digits:
                children.append((a2 + d * h, a2 + (d + 1) * h))
        return denom * n, children

    if isinstance(f, LambdaFamily):
        p, q = f.lam.numerator, f.lam.denominator
        s = 6 * q
        removal = 2**k * q ** (k - 1) * p  # (lam/3^k) scaled by (6q)^k
        for a, b in pairs:
            a2, b2 = a * s, b * s
            width = b2 - a2
            if width < removal:
                raise ConstructionError(f"lambda removal {f.lam}/3^{k} exceeds interval length")
            h = (width - removal) // 2
            children.append((a2, a2 + h))
            children.append((b2 - h, b2))
        return denom * s, children

    raise TypeError(f"unknown family spec: {f!r}")


def ref_stage_pairs(f, k):
    """Stage k refined family by family from [0, 1], touching blocks merged."""
    denom, pairs = 1, [(0, 1)]
    for j in range(1, k + 1):
        denom, pairs = ref_refine(f, j, denom, pairs)
    merged = []
    for a, b in pairs:
        if merged and a == merged[-1][1]:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return denom, merged


def ref_stage_ends(f, k):
    """``ref_stage_pairs`` with its pairs flattened into one list of ends."""
    denom, pairs = ref_stage_pairs(f, k)
    return denom, [x for pair in pairs for x in pair]


class RefIntervalSet:
    """A finite union of closed intervals, stored sorted and disjoint.

    Consecutive intervals satisfy I.b < J.a strictly; the constructor merges
    anything overlapping or touching, so equality of sets is equality of
    the underlying tuples.
    """

    __slots__ = ("intervals", "_starts")

    def __init__(self, intervals: Iterable[ClosedInterval]):
        merged = ref_merge(sorted(intervals, key=lambda i: (i.a, i.b)))
        self.intervals: tuple[ClosedInterval, ...] = tuple(merged)
        self._starts = [i.a for i in self.intervals]

    @classmethod
    def _from_disjoint_sorted(cls, intervals: Sequence[ClosedInterval]) -> "RefIntervalSet":
        # Trusted constructor for generators that already produce sorted,
        # strictly-separated intervals; skips the O(n log n) merge.
        self = object.__new__(cls)
        self.intervals = tuple(intervals)
        self._starts = [i.a for i in self.intervals]
        return self

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefIntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{i.a}, {i.b}]" for i in self.intervals)
        return f"IntervalSet({parts})"

    @property
    def total_length(self) -> F:
        return sum((i.length for i in self.intervals), F(0))

    def affine_image(self, scale: F, shift: F = F(0)) -> "RefIntervalSet":
        """Map every [a,b] to [scale*a + shift, scale*b + shift]; scale > 0."""
        if scale <= 0:
            raise ValueError(f"affine scale must be positive, got {scale}")
        mapped = [ClosedInterval(scale * i.a + shift, scale * i.b + shift) for i in self.intervals]
        return RefIntervalSet._from_disjoint_sorted(mapped)

    def contains_point(self, x: F) -> bool:
        """Membership by binary search over interval starts."""
        idx = bisect_right(self._starts, x) - 1
        return idx >= 0 and x <= self.intervals[idx].b

    def covers(self, other: "RefIntervalSet") -> bool:
        """True iff every interval of ``other`` lies inside one of ours."""
        return all(
            self._covers_interval(j) for j in other.intervals
        )

    def _covers_interval(self, j: ClosedInterval) -> bool:
        idx = bisect_right(self._starts, j.a) - 1
        return idx >= 0 and j.b <= self.intervals[idx].b

    def to_json(self) -> list[dict]:
        return [i.to_json() for i in self.intervals]


def ref_merge(ordered: Sequence[ClosedInterval]) -> list[ClosedInterval]:
    out: list[ClosedInterval] = []
    for cur in ordered:
        if out and cur.a <= out[-1].b:
            prev = out[-1]
            if cur.b > prev.b:
                out[-1] = ClosedInterval(prev.a, cur.b)
        else:
            out.append(cur)
    return out


def ref_ifs_step(s, maps):
    """One application of the IFS: the union of the affine images of s."""
    images = [s.affine_image(scale, shift) for scale, shift in maps.maps]
    pieces = [i for img in images for i in img]
    result = RefIntervalSet(pieces)
    if result.total_length != sum((img.total_length for img in images), F(0)):
        raise ConstructionError("IFS images overlap; union is not disjoint")
    return result


def ref_iterate(f, k):
    """Stage k as a Fraction set, built from the per-family integer step."""
    denom, pairs = ref_stage_pairs(f, k)
    return RefIntervalSet([ClosedInterval(F(a, denom), F(b, denom)) for a, b in pairs])


def ref_generate(f, depth, fmt, decimal):
    """stdout of ``generate --format json|csv`` as it was printed from iterate."""
    stage = ref_iterate(f, depth)
    buf = io.StringIO()
    if fmt == "json":
        rows = stage.to_json()
        if decimal:
            for row, interval in zip(rows, stage):
                row["a_decimal"] = rational_decimal(interval.a)
                row["b_decimal"] = rational_decimal(interval.b)
        print(json.dumps(rows), file=buf)
    else:
        for interval in stage:
            cells = [format_rational(interval.a), format_rational(interval.b)]
            if decimal:
                cells += [rational_decimal(interval.a), rational_decimal(interval.b)]
            print(",".join(cells), file=buf)
    return buf.getvalue()


def ref_fmt(v):
    return f"{v:.3f}".rstrip("0").rstrip(".")


def ref_render_svg(f, depth, width, row_h):
    """``render_svg`` as it drew each rect with one f-string, from Fractions."""
    bar_h = max(row_h - 6, 1)
    height = (depth + 1) * row_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for stage in range(depth + 1):
        y = stage * row_h
        denom, pairs = ref_stage_pairs(f, stage)
        for a, b in pairs:
            lo, hi = F(a, denom), F(b, denom)
            x = float(lo) * width
            w = max(float(hi - lo) * width, 1.0)
            parts.append(
                f'<rect x="{ref_fmt(x)}" y="{y}" width="{ref_fmt(w)}" height="{bar_h}" fill="#1f2430"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ref_tail_table_csv(f, n_max):
    lines = ["n,sum_removed,tail,tail_decimal"]
    for n, acc, tail in ref_tail_table(f, n_max):
        lines.append(f"{n},{format_rational(acc)},{format_rational(tail)},{rational_decimal(tail)}")
    return "\n".join(lines) + "\n"


def ref_lengths(f, unit):
    """The length recurrence with its per-family constants, before the Moran row."""
    if isinstance(f, Proportional):  # children (1 - alpha)/2 of the parent
        p, q = f.alpha.numerator, f.alpha.denominator
        s, children, c, removal, g = 2 * q, 2, q - p, 0, 1
    elif isinstance(f, Power):  # (L - 1/n^j)/2, with 1/n^j = 2^j / (2n)^j
        s, children, c, removal, g = 2 * f.n, 2, f.n, unit, 2
    elif isinstance(f, LambdaFamily):  # (L - lam/3^j)/2, with lam/3^j = 2p(2q)^(j-1) / (6q)^j
        p, q = f.lam.numerator, f.lam.denominator
        s, children, c, removal, g = 6 * q, 2, 3 * q, unit * p, 2 * q
    elif isinstance(f, DigitSet):  # children 1/n of the parent
        s, children, c, removal, g = f.n, len(f.digits), 1, 0, 1
    else:
        raise TypeError(f"unknown family spec: {f!r}")
    length, intervals = unit, 1
    for j in count(1):
        length = c * length - removal
        if length < 0:
            raise ConstructionError(f"{f!r}: removal at step {j} exceeds interval length")
        intervals *= children
        yield s, length, intervals
        if length == 0:
            return  # all intervals are points: no further step changes the stage
        removal *= g


def ref_limit_measure(f):
    if isinstance(f, (Proportional, DigitSet)):
        return F(0)
    if isinstance(f, Power):
        if f.n == 2:
            return F(0)  # collapses to finitely many points
        return F(f.n - 3, f.n - 2)
    if isinstance(f, LambdaFamily):
        return 1 - f.lam
    raise TypeError(f"unknown family spec: {f!r}")


def ref_ifs_maps(f):
    if isinstance(f, Proportional):
        scale = (1 - f.alpha) / 2
        return IfsMaps(((scale, F(0)), (scale, 1 - scale)))
    if isinstance(f, DigitSet):
        scale = F(1, f.n)
        return IfsMaps(tuple((scale, F(d, f.n)) for d in f.digits))
    if isinstance(f, (Power, LambdaFamily)):
        # A centred removal (n, lam) keeps 2 children of L_1 = (1 - lam/n)/2, then of
        # L_2 = (L_1 - lam/n^2)/2. Its lengths solve a second-order linear recurrence
        # (roots 1/2 and 1/n) from L_0 = 1, so they are L_1^j, one ratio at every step,
        # iff L_2 = L_1^2: only at n = 3, lam = 1, where Power(3) and Lambda(1) both
        # remove middle thirds.
        n, lam = (f.n, 1) if isinstance(f, Power) else (3, f.lam)
        scale = (1 - F(lam, n)) / 2
        if (scale - F(lam, n**2)) / 2 == scale**2:
            return IfsMaps(((scale, F(0)), (scale, 1 - scale)))
    raise ValueError(f"{type(f).__name__} families are not self-similar; no IFS form")


def ref_digit_equivalent(alpha):
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    m = 2 / (1 - alpha)
    if m.denominator != 1 or m < 3:
        return None
    return DigitSet(int(m), (0, int(m) - 1))


def ref_digit_form(family):
    """The CLI's digit form for ``member --limit``, with None for its exit 4: a
    family with two IFS maps of ratio (1 - alpha)/2 has the digit form of
    Proportional(alpha)."""
    if isinstance(family, DigitSet):
        return family
    try:
        (scale, _), _ = ref_ifs_maps(family).maps
    except ValueError:
        return None
    return ref_digit_equivalent(1 - 2 * scale)


def ref_similarity_dimension(f):
    if isinstance(f, Proportional):
        scale = 2 / (1 - f.alpha)
        return DimensionReport(
            value=math.log(2) / _log(scale),
            kind=EXACT_SIMILARITY, count_base=2, scale=scale,
        )
    if isinstance(f, DigitSet):
        return DimensionReport(
            value=math.log(len(f.digits)) / math.log(f.n),
            kind=EXACT_SIMILARITY, count_base=len(f.digits), scale=F(f.n),
        )
    if isinstance(f, (Power, LambdaFamily)):
        # One centred removal (n, lam): 2 children of 1/2 - lam/(2n), so the
        # step-1 value is log 2 / log(2n / (n - lam)).
        n, lam = (f.n, 1) if isinstance(f, Power) else (3, f.lam)
        if n == 2:
            raise ValueError("power n=2 collapses to finitely many points; no dimension")
        value = math.log(2) / (_log(F(2 * n)) - _log(n - lam))
        return DimensionReport(value=value, kind=ESTIMATE_SEQUENCE, sequence=((1, value),))
    raise TypeError(f"unknown family spec: {f!r}")


def ref_family_to_json(f):
    if isinstance(f, Proportional):
        return {"family": "proportional", "alpha": format_rational(f.alpha)}
    if isinstance(f, Power):
        return {"family": "power", "n": f.n}
    if isinstance(f, DigitSet):
        return {"family": "digit", "n": f.n, "digits": list(f.digits)}
    if isinstance(f, LambdaFamily):
        return {"family": "lambda", "lambda": format_rational(f.lam)}
    raise TypeError(f"unknown family spec: {f!r}")


# --- inputs ------------------------------------------------------------------------

FIXED_FAMILIES = (
    Proportional(F(1, 3)),
    Proportional(F(999_999, 1_000_003)),   # alpha with a large q
    Power(2),                              # collapses to four points at stage 2
    Power(3),
    Power(4),
    DigitSet(5, (0, 1, 4)),                # kept blocks 0 and 1 touch
    DigitSet(3, (0, 2)),
    LambdaFamily(F(1)),
    LambdaFamily(F(1, 2)),
    LambdaFamily(F(7, 1_000_003)),
)

proportionals = st.builds(
    lambda q, p: Proportional(F(p % (q - 1) + 1, q)),
    st.integers(2, 10**6), st.integers(0, 10**6))
powers = st.builds(Power, st.integers(2, 9))
lambdas = st.builds(
    lambda q, p: LambdaFamily(F(p % q + 1, q)),
    st.integers(1, 10**6), st.integers(0, 10**6))
digit_sets = st.integers(3, 12).flatmap(lambda n: st.builds(
    lambda inner: DigitSet(n, (0, n - 1, *inner)),
    st.sets(st.integers(1, n - 2), max_size=n - 3)))
families = st.one_of(st.sampled_from(FIXED_FAMILIES), proportionals, powers, lambdas, digit_sets)


def descend(f, depth, rng):
    """A random stage-``depth`` interval [a, b] and the gaps its ancestors left,
    following the construction with the reference lengths."""
    a, b, gaps = F(0), F(1), []
    for j in range(1, depth + 1):
        if isinstance(f, DigitSet):
            h = (b - a) / f.n
            kids = [(a + d * h, a + (d + 1) * h) for d in f.digits]
            gaps += [(hi0, lo1) for (_, hi0), (lo1, _) in zip(kids, kids[1:]) if hi0 < lo1]
        else:
            h = ref_level_stats(f, j)[1]
            kids = [(a, a + h), (b - h, b)]
            if a + h < b - h:
                gaps.append((a + h, b - h))
        a, b = rng.choice(kids)
    return a, b, gaps


def query_points(f, depth, rng):
    a, b, gaps = descend(f, depth, rng)
    points = [a, b, (a + b) / 2]
    points += [(lo + hi) / 2 for lo, hi in rng.sample(gaps, min(3, len(gaps)))]
    points += [F(rng.randrange(q + 1), q) for q in (rng.randrange(1, 50), rng.randrange(1, 10**12))]
    return points


# --- the Moran row against the per-family branches --------------------------------------

def outcome(call, *args):
    """The value of call(*args), or the type and text of what it raised."""
    try:
        return call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def step_lengths(f, unit):
    # (s, length_j, m^j) off _steps(f, unit): its lengths and the running
    # product of its offset counts, as ref_lengths yields them.
    count = 1
    for s, length, offsets in _steps(f, unit):
        count *= len(offsets)
        yield s, length, count


def assert_row_paths_match_references(f, unit):
    for u in (1, unit):
        assert list(islice(step_lengths(f, u), 40)) == list(islice(ref_lengths(f, u), 40))
    assert limit_measure(f) == ref_limit_measure(f)
    assert outcome(ifs_maps, f) == outcome(ref_ifs_maps, f)
    assert digit_form(f) == ref_digit_form(f)
    # DimensionReport equality compares value and every sequence float by ==.
    assert outcome(similarity_dimension, f) == outcome(ref_similarity_dimension, f)
    wire = family_to_json(f)
    assert json.dumps(wire) == json.dumps(ref_family_to_json(f))
    assert family_from_json(json.loads(json.dumps(wire))) == f


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_row_paths_match_per_family_references(f):
    assert_row_paths_match_references(f, 10**12 + 39)


@settings(max_examples=300, deadline=None)
@given(families, st.integers(1, 10**30))
def test_row_paths_match_per_family_references_on_random_families(f, unit):
    assert_row_paths_match_references(f, unit)


def test_digit_equivalent_out_of_range_rejected():
    for alpha in (F(0), F(1), F(2), F(-1, 3)):
        assert outcome(ref_digit_equivalent, alpha)[0] is ValueError
        with pytest.raises(ValueError):
            digit_form(Proportional(alpha))


@settings(max_examples=200, deadline=None)
@given(families)
def test_every_length_is_nonnegative(f):
    # Why _steps needs no check: r = 0, or r <= c - g (both terms of the
    # closed form are then nonnegative), or the Power(2) collapse (c = g).
    s, m, c, r, g, _ = moran_row(f)
    assert r == 0 or r <= c - g or c == g
    assert all(length >= 0 for _, length, _ in islice(_steps(f, 1), 64))
    assert all(length >= 0 for _, length, _ in islice(_steps(f, 7), 64))


# --- the length recurrence -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(families, st.integers(0, 64))
def test_level_stats_matches_fraction_recurrence(f, k):
    assert tuple(level_stats(f, k)) == ref_level_stats(f, k)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_level_stats_every_depth(f):
    for k in range(65):
        assert tuple(level_stats(f, k)) == ref_level_stats(f, k)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_level_stats_closed_form_matches_the_recurrence(f):
    for k in [*range(65), 100, 333, 1000, 2000]:
        assert tuple(level_stats(f, k)) == ref_level_stats_recurrence(f, k)


@settings(max_examples=60, deadline=None)
@given(families, st.integers(0, 2000))
def test_level_stats_closed_form_matches_the_recurrence_on_random_families(f, k):
    assert tuple(level_stats(f, k)) == ref_level_stats_recurrence(f, k)


def test_level_stats_reads_the_row_not_the_recurrence(monkeypatch):
    # Lambda(1e-1000) at depth 400 used to walk the length recurrence over integers of up
    # to 1.3 million bits for about 3 s, and depth 2000 for about a minute. For
    # Lambda p/q the row gives L_k = (1 - lam) / 2^k + lam / 3^k, whose
    # denominator is small.
    def forbidden(*args, **kwargs):
        raise AssertionError("level_stats walked the length recurrence")

    lam = F(1, 10**1000)
    monkeypatch.setattr(families_module, "_steps", forbidden)
    for k in (400, 2000):
        length = (1 - lam) / 2**k + lam / 3**k
        assert level_stats(LambdaFamily(lam), k) == (2**k, length)


@settings(max_examples=100, deadline=None)
@given(families)
def test_closed_form_gives_the_recurrences_lengths(f):
    s, _, c, r, g, _ = row = moran_row(f)
    a, alpha, b, beta = _closed_form(row)
    assert (alpha, beta) == (F(c, s), F(g, s))
    assert (b is None) == (f == Power(2))
    lengths = [ref_level_stats_recurrence(f, j)[1] for j in range(41)]
    if b is None:  # L_j = alpha^j (c - j r) / c, 0 from step c // r on, and no measure left
        assert a == 0 and lengths == [alpha**j * F(c - j * r, c) if j <= c // r else 0 for j in range(41)]
    else:
        assert b == (F(r, c - g) if r else 0) and a == 1 - b
        assert lengths == [a * alpha**j + b * beta**j for j in range(41)]


@settings(max_examples=100, deadline=None)
@given(families, st.integers(0, 60))
def test_length_floor_is_at_most_the_length_bits(f, k):
    assert _length_bits(moran_row(f), k) <= level_stats(f, k).length.denominator.bit_length()


@pytest.mark.parametrize("f", [Power(10**30), Power(2**61 - 1), LambdaFamily(F(1, 10**1000))], ids=repr)
def test_length_floor_is_at_most_the_length_bits_on_large_rows(f):
    for k in [*range(61), 200, 1000]:
        floor, bits = _length_bits(moran_row(f), k), level_stats(f, k).length.denominator.bit_length()
        assert floor <= bits
        if isinstance(f, Power) and k >= 60:  # and not vacuous: within a tenth of it
            assert floor >= 0.9 * bits


@pytest.mark.skipif(not _digit_limit(),
                    reason="this interpreter prints integers of any length")
def test_length_floor_refuses_an_r_row_before_its_length_is_computed(capsys, monkeypatch):
    # r != 0: Power(10^1000) at depth 14000 spent 28-32 s in level_stats before the
    # interpreter's own exit 2; its count, 2^14000, has fewer than 4300 digits.
    def forbidden(*args, **kwargs):
        raise AssertionError("analyze computed a length it cannot print")

    monkeypatch.setattr(cli_module, "level_stats", forbidden)
    monkeypatch.setattr(cli_module, "measure_at_depth", forbidden)
    with pytest.raises(SystemExit) as exc:
        cli_module.main(["analyze", "--family", "power", "--n", str(10**1000), "--depth", "14000",
                         "--kmax", "1"])
    limit = sys.get_int_max_str_digits()
    assert (exc.value.code, capsys.readouterr()) == (2, ("", (
        f"result too large to print: the stage-14000 length has over {limit} digits "
        "(sys.get_int_max_str_digits())\n")))


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_analyze_prints_the_one_stage_length_under_both_length_keys(capsys, f):
    # A stage of a homogeneous Moran row has one interval length, which analyze
    # prints as both min_length and max_length, in the report's key order.
    spec = json.dumps(family_to_json(f))
    dimension = ["dimension_note"] if f == Power(2) else ["similarity_dimension", "dimension_estimates"]
    for k in (0, 1, 2, 7):
        assert cli_module.main(["analyze", "--family-json", spec, "--depth", str(k), "--kmax", "1"]) == 0
        report, stats = json.loads(capsys.readouterr().out), level_stats(f, k)
        assert list(report) == ["family", "depth", "measure_at_depth", "limit_measure", "level_stats",
                                *dimension]
        length = format_rational(stats.length)
        assert list(report["level_stats"].items()) == [("count", stats.count), ("min_length", length),
                                                       ("max_length", length)]
        assert measure_at_depth(f, k) == stats.count * stats.length
        assert report["measure_at_depth"] == format_rational(stats.count * stats.length)


def test_power_two_fixpoint_keeps_four_points():
    assert level_stats(Power(2), 64) == (4, 0)
    assert member_at_depth(F(1, 4), Power(2), 64)
    assert not member_at_depth(F(1, 8), Power(2), 64)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([f for f in FIXED_FAMILIES if f != Power(2)]),
                 proportionals, st.builds(Power, st.integers(3, 9)), lambdas, digit_sets),
       st.integers(1, 40))
def test_estimate_sequence_floats_match_per_k_formula(f, kmax):
    expected = []
    for k in range(1, kmax + 1):
        count, length = ref_level_stats(f, k)
        expected.append((k, math.log(count) / _log(1 / length)))
    assert dimension_estimates(f, kmax).sequence == tuple(expected)


def test_point_set_has_no_estimates():
    assert dimension_estimates(Power(2), 1).sequence == ((1, 0.5),)
    for kmax in (2, 3, 10):
        with pytest.raises(ValueError, match="finite point set"):
            dimension_estimates(Power(2), kmax)


# --- the point descent ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(families, st.integers(0, 64), st.integers(0, 2**32))
def test_member_at_depth_matches_fraction_descent(f, depth, seed):
    rng = random.Random(seed)
    for x in query_points(f, depth, rng) + [F(0), F(1)]:
        for k in {depth, max(depth - 1, 0), depth + 1}:
            assert member_at_depth(x, f, k) == ref_member_at_depth(x, f, k), (x, k)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_member_at_depth_stage_ends_and_gap_midpoints(f):
    rng = random.Random(7)
    for depth in (0, 1, 2, 5, 17, 64):
        a, b, gaps = descend(f, depth, rng)
        assert member_at_depth(a, f, depth) and member_at_depth(b, f, depth)
        for lo, hi in gaps:
            assert not member_at_depth((lo + hi) / 2, f, depth)
        for x in query_points(f, depth, rng):
            assert member_at_depth(x, f, depth) == ref_member_at_depth(x, f, depth)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_out_of_range_queries_rejected(f):
    with pytest.raises(ValueError):
        member_at_depth(F(3, 2), f, 2)
    with pytest.raises(ValueError):
        member_at_depth(F(-1, 2), f, 2)
    with pytest.raises(ValueError):
        member_at_depth(F(1, 2), f, -1)
    with pytest.raises(ValueError):
        level_stats(f, -1)


# --- expansions -------------------------------------------------------------------------

def smooth_part(base, rng):
    """A random product of powers of the primes of ``base``."""
    primes = [p for p in range(2, base + 1) if base % p == 0 and all(p % r for r in range(2, p))]
    out = 1
    for p in primes:
        out *= p ** rng.randrange(0, 6)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32))
def test_base_expansion_matches_dict_long_division(base, seed):
    rng = random.Random(seed)
    q = smooth_part(base, rng) * rng.choice((1, rng.randrange(1, 2000)))
    x = F(rng.randrange(q + 1), q)
    rec = base_expansion(x, base)
    assert rec == ref_base_expansion(x, base)
    assert rec.to_rational() == x


@pytest.mark.parametrize("base", range(2, 41))
def test_base_expansion_ends_and_terminating_points(base):
    for x in (F(0), F(1), F(1, base), F(base - 1, base**3), F(7, base**4 * 3)):
        if 0 <= x <= 1:
            assert base_expansion(x, base) == ref_base_expansion(x, base)


digit_families = st.one_of(st.sampled_from((DigitSet(5, (0, 1, 4)), DigitSet(3, (0, 2)))), digit_sets)


@settings(max_examples=200, deadline=None)
@given(digit_families, st.integers(0, 2**32))
def test_member_limit_matches_seen_set(f, seed):
    rng = random.Random(seed)
    kept = list(f.digits)
    pre = tuple(rng.choice(kept) for _ in range(rng.randrange(0, 6)))
    period = tuple(rng.choice(kept) for _ in range(rng.randrange(0, 8)))
    x = ExpansionRecord(f.n, pre, period).to_rational()
    q = smooth_part(f.n, rng) * rng.randrange(1, 500)
    candidates = [x, F(0), F(1), F(rng.randrange(q + 1), q), x + F(1, f.n**7), F(3, 2), F(-1, 3)]
    for y in candidates:
        assert member_limit(y, f) == ref_member_limit(y, f), y


# Proportional((n - 2)/n) is the digit family {0, n - 1} in base n; few drawn
# proportions have that form.
digit_proportionals = st.integers(3, 12).map(lambda n: Proportional(F(n - 2, n)))
unit_points = st.integers(1, 10**4).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(families, digit_proportionals), unit_points, st.data())
def test_limit_membership_reads_the_digit_form(f, x, data):
    form = digit_form(f)
    if form is None:
        for call in (member_limit, membership_witness):
            with pytest.raises(TypeError, match="has none"):
                call(x, f)
        return
    # A member too: an expansion in kept digits only.
    digits = st.lists(st.sampled_from(form.digits), max_size=6)
    member = ExpansionRecord(form.n, tuple(data.draw(digits)), tuple(data.draw(digits))).to_rational()
    assert member_limit(member, f)
    for y in (x, member):
        assert member_limit(y, f) == member_limit(y, form)
        assert membership_witness(y, f) == membership_witness(y, form)


@settings(max_examples=300, deadline=None)
@given(families, st.data())
def test_membership_witness_matches_two_passes(f, data):
    form = digit_form(f)
    if form is None:
        for call in (membership_witness, ref_membership_witness):
            with pytest.raises(TypeError, match="has none"):
                call(F(1, 3), f)
        return
    n = form.n
    kept = st.sampled_from(form.digits)
    pre, period = data.draw(st.lists(kept, max_size=8)), data.draw(st.lists(kept, max_size=8))
    member = ExpansionRecord(n, tuple(pre), tuple(period)).to_rational()
    # n-adic points: a terminating kept expansion whose last digit d is
    # nonzero, so it has an alternate tail ending in d - 1 (kept or not),
    # and any k/n^j.
    last = data.draw(st.integers(1, n - 1))
    n_adic = ExpansionRecord(n, (*pre, last), ()).to_rational()
    j = data.draw(st.integers(0, 6))
    points = (member, n_adic, F(data.draw(st.integers(0, n**j)), n**j), data.draw(unit_points),
              F(0), F(1), F(-1, 3), F(3, 2), 1 + F(1, n))
    for x in points:
        witness = membership_witness(x, f)
        assert witness == ref_membership_witness(x, f), x
        assert member_limit(x, f) == (witness is not None)
        if witness is not None:
            assert set(witness.preperiod + witness.period) <= set(form.digits)
            assert witness.to_rational() == x


@pytest.mark.parametrize("f, x", [
    (DigitSet(3, (0, 2)), ExpansionRecord(3, (0, 2), (2, 0, 0)).to_rational()),  # member
    (DigitSet(3, (0, 2)), F(1, 3)),                       # member by its alternate tail
    (DigitSet(3, (0, 2)), F(1, 2)),                       # non-member
    (DigitSet(5, (0, 1, 4)), F(2, 25)),                   # non-member, n-adic
    (Proportional(F(1, 3)), F(1, 4)),                     # member through the digit form
])
def test_limit_queries_run_one_long_division(monkeypatch, f, x):
    calls = []
    chunks = analysis_module._digit_chunks

    def counted(*args):
        calls.append(args)
        return chunks(*args)

    monkeypatch.setattr(analysis_module, "_digit_chunks", counted)
    for read in (membership_witness, member_limit):
        calls.clear()
        read(x, f)
        assert len(calls) == 1, read
    if digit_form(f) == DigitSet(3, (0, 2)):
        calls.clear()
        with contextlib.suppress(ValueError):
            cantor_function(x)
        assert len(calls) == 1


def family_flags(f):
    """The --family flags of f, from its JSON: rationals as p/q, digits joined by commas."""
    wire = family_to_json(f)
    flags = ["--family", wire.pop("family")]
    for name, value in wire.items():
        flags += [f"--{name}", ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return flags


@settings(max_examples=300, deadline=None)
@given(families)
def test_family_flags_build_the_family(f):
    args = cli_module.build_parser().parse_args(["member", "--x", "0", *family_flags(f)])
    assert cli_module._build_family(args) == f


# --- removal tails ---------------------------------------------------------

TAIL_FAMILIES = (
    Power(2),                              # three gaps, then a fixpoint
    Power(3),
    Power(4),
    Proportional(F(1, 3)),
    Proportional(F(2, 7)),
    DigitSet(5, (0, 1, 4)),                # kept blocks 0 and 1 touch
    DigitSet(7, (0, 2, 4, 6)),             # three gaps per parent
    LambdaFamily(F(1)),
    LambdaFamily(F(3, 7)),
)


# (base, t): the long division steps by base^t, the largest power up to 4096.
CHUNK_WIDTHS = ((2, 12), (3, 7), (10, 3), (4096, 1), (4097, 1), (10**9, 1))


def chunk_ends(base, t):
    """Digit counts around the chunk ends t*J for J = 1, 2 and the first J
    whose t*J - 1 digits make a denominator of over 4,000 bits."""
    big = 3
    while base ** (t * big - 1) < 1 << 4000:
        big += 1
    return sorted({t * j + e for j in (1, 2, big) for e in (-1, 0, 1)})


def minimal_expansion(base, m, length, rng):
    """Random digits of a minimal expansion with m preperiod and ``length``
    period digits: the period 0..0d is primitive for any nonzero d, and a
    preperiod ending in 0 before it, or in a nonzero digit when the
    expansion terminates, cannot be shortened."""
    period = (0,) * (length - 1) + (rng.randrange(1, base),) if length else ()
    pre = tuple(rng.randrange(base) for _ in range(m - 1))
    return pre + ((0 if period else rng.randrange(1, base)),) * (m > 0), period


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4, 6, 8, 10, 12, 18, 36, 4096, 4097, 2016, 10**9)),
       st.lists(st.integers(0, 300), min_size=5, max_size=5), st.integers(1, 10**6))
def test_preperiod_length_matches_gcd_steps(base, exponents, other):
    # Powers of 2, 3, 5, 7 and 17 (4097 = 17 * 241): saturated and unsaturated
    # primes of the base, and primes it lacks.
    q = other * math.prod(p**e for p, e in zip((2, 3, 5, 7, 17), exponents))
    assert analysis_module._preperiod_length(q, base) == ref_preperiod_length(q, base)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 6, 10, 12, 4096, 4097)), st.integers(0, 2**32))
def test_period_remainders_lie_below_the_coprime_part(base, seed):
    # q = S * q' with S built from the primes of the base and q' > 1 prime to
    # it: past the preperiod, the long division runs modulo q' = q / S.
    rng = random.Random(seed)
    coprime = rng.choice((7, 11, 13, 101, 7 * 101, 13**2, 101**2, 10007))
    q = smooth_part(base, rng) * base * coprime
    x = F(rng.randrange(1, q), q)
    q = x.denominator
    m, bound = ref_preperiod_length(q, base), q
    while (g := math.gcd(bound, base)) > 1:
        bound //= g
    digits, period_chunks = 0, 0
    for chunk, rem in analysis_module._digit_chunks(x, base, m):
        digits += len(chunk)
        if digits > m:
            period_chunks += 1
            assert 0 < rem < bound, (digits, rem, bound)
    assert period_chunks or bound == 1
    assert base_expansion(x, base) == ref_base_expansion(x, base)


@pytest.mark.parametrize("base, t", CHUNK_WIDTHS, ids=str)
def test_base_expansion_at_chunk_ends(base, t):
    rng = random.Random(base)
    ends = chunk_ends(base, t)
    assert ends[-1] * math.log2(base) > 4000  # the widest q is over 4,000 bits
    for m in ends:
        for length in ends:
            pre, period = minimal_expansion(base, m, length, rng)
            x = ref_expansion_value(base, pre, period)
            rec = base_expansion(x, base)
            assert rec == ref_base_expansion(x, base) == ExpansionRecord(base, pre, period)
            assert rec.to_rational() == x


@pytest.mark.parametrize("base, t", [(b, t) for b, t in CHUNK_WIDTHS if b > 2], ids=str)
def test_member_limit_at_chunk_ends(base, t):
    # Kept digits {0, n-1}: members of 0/(n-1) digits, and the same with one
    # digit set to 1 or to n-2 at a chunk end, the first digit or the last.
    f = DigitSet(base, (0, base - 1))
    rng = random.Random(base)
    ends = chunk_ends(base, t)[:6]
    for m in ends:
        for length in (0, *ends):
            pre = tuple(rng.choice((0, base - 1)) for _ in range(m - 1)) + (base - 1,) * (m > 0)
            period = (0,) * (length - 1) + (base - 1,) if length else ()
            for where in {0, t - 1, t, m - 1, m + t - 1, m + length - 1} - {-1}:
                for digit in (1, base - 2):
                    digits = list(pre + period)
                    if where < len(digits):
                        digits[where] = digit
                    x = ref_expansion_value(base, digits[:m], digits[m:])
                    assert member_limit(x, f) == ref_member_limit(x, f), (m, length, where)
                    witness = membership_witness(x, f)
                    assert (witness is None) != ref_member_limit(x, f)
                    if witness is not None:
                        assert set(witness.preperiod + witness.period) <= {0, base - 1}
                        assert ref_expansion_value(base, witness.preperiod, witness.period) == x


@pytest.mark.parametrize("base, t", CHUNK_WIDTHS, ids=str)
def test_period_cap_at_every_chunk_width(monkeypatch, base, t):
    # Periods of L digits with L not a multiple of t (any L when t = 1):
    # accepted under a cap of L, refused under a cap of L - 1, for every
    # preperiod alignment and for every reader of the digit stream.
    for length in sorted({2, t - 1, t + 1, 2 * t + 1, 3 * t - 1} - {0, 1}):
        assert length % t or t == 1
        for m in (0, 1, t - 1, t + 2):
            pre = ((base - 1,) * m)[1:] + (0,) * (m > 0)
            period = (0,) * (length - 1) + (base - 1,)
            x = ref_expansion_value(base, pre, period)
            readers = [lambda: base_expansion(x, base)]
            if base > 2:
                f = DigitSet(base, (0, base - 1))
                readers += [lambda: member_limit(x, f), lambda: membership_witness(x, f)]
            if base == 3:
                readers.append(lambda: cantor_function(x))
            monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", length)
            assert base_expansion(x, base) == ExpansionRecord(base, pre, period)
            for read in readers:
                read()
            monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", length - 1)
            for read in readers:
                with pytest.raises(DepthCapError, match=f"period cap of {length - 1} digits"):
                    read()


@pytest.mark.parametrize("t", (1, 7), ids=str)
def test_period_cap_yields_its_digits_first(monkeypatch, t):
    # A non-member whose first disallowed digit is digit k of a period too
    # long for the cap: rejected when k is within the cap, refused when k is
    # the first digit past it, wherever the cap falls in a chunk.
    base = 3 if t == 7 else 4097
    f = DigitSet(base, (0, base - 1))
    length = 4 * t + 3
    for cap in range(1, length):
        monkeypatch.setattr(analysis_module, "MAX_PERIOD_DIGITS", cap)
        for k in (cap, cap + 1):
            period = [0] * (length - 1) + [base - 1]
            period[k - 1] = 1
            x = ref_expansion_value(base, (), period)
            if k <= cap:
                assert not member_limit(x, f)
            else:
                with pytest.raises(DepthCapError, match=f"period cap of {cap} digits"):
                    member_limit(x, f)


def test_expansion_value_matches_digit_steps():
    rng = random.Random(5)
    for base in (2, 3, 10, 4097):
        for length in (0, 1, 63, 64, 65, 129, 1000, 5001):
            pre = tuple(rng.randrange(base) for _ in range(length // 3))
            period = tuple(rng.randrange(base) for _ in range(length))
            rec = ExpansionRecord(base, pre, period)
            assert rec.to_rational() == ref_expansion_value(base, pre, period)


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_module.main(list(argv)) == 0
    return out.getvalue()


expansion_bases = st.one_of(st.integers(2, 40), st.just(4097))


@settings(max_examples=300, deadline=None)
@given(expansion_bases, unit_points, st.integers(0, 8))
def test_expansion_stdout_is_json_dumps(base, x, e):
    # x / base^e has a preperiod (terminating when x does) unless x is 0
    for y in (x, x / base**e):
        assert cli_stdout("expansion", "--x", str(y), "--base", str(base)) == ref_expansion_json(y, base)


@pytest.mark.parametrize("base", [2, 3, 10, 40, 4097, 10**9])
def test_expansion_stdout_is_json_dumps_at_the_ends(base):
    # 0, 1, terminating points (with an alternate tail), an empty preperiod,
    # and a period of a few thousand digits.
    for x in (F(0), F(1), F(1, base), F(base - 1, base**2), F(1, base**3 * 7), F(1, base + 1),
              F(2, 3), F(1, 7919)):
        if 0 <= x <= 1:
            assert cli_stdout("expansion", "--x", str(x), "--base", str(base)) == ref_expansion_json(x, base)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.sampled_from((DigitSet(5, (0, 1, 4)), DigitSet(3, (0, 2)), DigitSet(4097, (0, 7, 4096)))),
    digit_sets), st.data())
def test_member_limit_witness_is_json_dumps(f, data):
    digits = st.lists(st.sampled_from(f.digits), max_size=12)
    member = ExpansionRecord(f.n, tuple(data.draw(digits)), tuple(data.draw(digits))).to_rational()
    for x in (member, F(0), F(1), F(1, f.n), F(f.n - 1, f.n**2)):
        witness = membership_witness(x, f)
        out = cli_stdout("member", *family_flags(f), "--x", str(x), "--limit")
        assert out == f"true\nwitness: {json.dumps(witness.to_json())}\n"


def generation_ends(f, generations):
    """n at the end of each generation 1..generations (fewer after a fixpoint)."""
    ends, n = [], 0
    for gen in removed_by_generation(f, generations):
        if not gen:
            break
        n += len(gen)
        ends.append(n)
    return ends


@pytest.mark.parametrize("f", TAIL_FAMILIES, ids=repr)
def test_tail_table_matches_restarted_generations(f):
    ends = generation_ends(f, 5 if isinstance(f, DigitSet) else 7)
    n_max = ends[-1] + 5  # past the end for Power(2), mid-generation for the rest
    assert tail_table(f, n_max) == ref_tail_table(f, n_max)
    assert tail_table_csv(f, n_max) == ref_tail_table_csv(f, n_max)
    for n in {0, 1, 2, *ends, *(e + 1 for e in ends), *(e - 1 for e in ends)}:
        assert tail_measure(f, n) == ref_tail_measure(f, n), n
        assert tail_table(f, n) == ref_tail_table(f, n), n
        assert tail_table_csv(f, n) == ref_tail_table_csv(f, n), n


def test_power_two_tail_past_exhaustion():
    assert generation_ends(Power(2), 5) == [1, 3]
    for n in (3, 4, 50):
        assert tail_measure(Power(2), n) == 0
        assert tail_table_csv(Power(2), n) == ref_tail_table_csv(Power(2), n)


@settings(max_examples=40, deadline=None)
@given(families, st.integers(0, 300))
def test_tail_table_csv_matches_reference(f, n_max):
    assert tail_table_csv(f, n_max) == ref_tail_table_csv(f, n_max)


@settings(max_examples=40, deadline=None)
@given(families, st.integers(0, 300))
def test_tail_measure_matches_reference(f, n):
    assert tail_measure(f, n) == ref_tail_measure(f, n)


# The tail table goes out in blocks of 4096 rows, row 0 in the first, each made
# from the pieces of generations cut at the block ends.
SEAM_N_MAX = (0, 1, 4095, 4096, 4097, 8191, 8192, 8193, 12289)
SEAM_FAMILIES = (
    DigitSet(7, (0, 2, 4, 6)),  # generation 7 starts at row 4096: its seam at 8192 falls mid-cycle
    DigitSet(7, (0, 1, 4, 6)),  # gaps 2 and 1 a parent: generation 7 runs from row 2731, past 4096 mid-cycle
    Power(2),                   # three removals, then fixpoint rows across every seam
    Power(4),
    LambdaFamily(F(1, 2)),
)


@pytest.mark.parametrize("f", SEAM_FAMILIES, ids=repr)
def test_tail_table_blocks_meet_at_their_seams(capsys, f):
    # A table to n_max is the first n_max + 2 lines of any longer one.
    lines = ref_tail_table_csv(f, max(SEAM_N_MAX)).splitlines(keepends=True)
    argv = ["counterexample", "--family-json", json.dumps(family_to_json(f)), "--n-max"]
    for n_max in SEAM_N_MAX:
        expected = "".join(lines[:n_max + 2])
        assert tail_table_csv(f, n_max) == expected, n_max
        assert cli_module.main([*argv, str(n_max)]) == 0
        assert capsys.readouterr().out == expected, n_max
        head, *blocks = counterexample_module.tail_table_rows(f, n_max)
        assert head == "n,sum_removed,tail,tail_decimal\n"
        assert [block.count("\n") for block in blocks] == [4096] * ((n_max + 1) // 4096) + (
            [(n_max + 1) % 4096] if (n_max + 1) % 4096 else []), n_max


# --- one pass over the step table -------------------------------------------------------

def count_steps(monkeypatch):
    """Route families._steps through a recorder of the steps drawn, and forbid
    every path that builds a stage."""
    calls, steps = [], families_module._steps

    def counted(f):
        for step in steps(f):
            calls.append(step[0])
            yield step

    def forbidden(*args, **kwargs):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(families_module, "_steps", counted)
    for name in ("stage_ends", "iterate", "removed_by_generation"):
        for module in (families_module, counterexample_module):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    return calls


def test_tail_table_csv_draws_one_step_per_generation(monkeypatch):
    calls = count_steps(monkeypatch)
    tail_table_csv(Power(4), 2**12)
    assert len(calls) == 13  # generations 1..12 remove 2^12 - 1 gaps
    calls.clear()
    with pytest.raises(DepthCapError, match="exceeds the table size cap"):
        next(counterexample_module.tail_table_rows(Power(4), 2982616))
    assert len(calls) == 22  # the generation row 2,982,616 reaches, before any row
    calls.clear()
    with pytest.raises(DepthCapError, match="exceeds the table size cap"):
        next(counterexample_module.tail_table_rows(Power(4), 10**12))
    assert len(calls) == 1  # 10^12 rows pass the cap at the first generation's bound


def test_tail_measure_sums_whole_generations(monkeypatch):
    calls = count_steps(monkeypatch)
    assert tail_measure(Power(4), 2**40 - 1) == F(1, 2**41)  # removed: 1/2 - 2^-41 of 1/2
    assert len(calls) == 40
    calls.clear()
    assert tail_measure(Power(2), 10**18) == 0
    assert len(calls) == 2  # two generations, then the step table ends
    calls.clear()
    assert tail_measure(Power(4), 0) == F(1, 2)
    assert calls == []


@pytest.mark.parametrize("f", (*FIXED_FAMILIES, LambdaFamily(F(1, 10**40))), ids=repr)
def test_each_generation_of_a_tail_table_is_kept_reduced(f):
    # (D_j, lengths, N, parents) divided by g = gcd(D_j, N, *lengths), so every row's
    # gcds are taken on reduced integers.
    gens, _ = counterexample_module._generations(f, 300, 1 - limit_measure(f))
    assert gens
    for denom, lengths, num, parents in gens:
        assert math.gcd(denom, num, *lengths) == 1


# --- stage listings and gaps straight from the integer stages ---------------------------

def tree_depth(f, limit=4000):
    """The deepest stage, at most 6, whose construction tree has at most ``limit`` intervals."""
    per_step = len(f.digits) if isinstance(f, DigitSet) else 2
    return min(6, int(math.log(limit) / math.log(per_step)))


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_removed_gaps_match_blocks_cut_per_family(f):
    k = tree_depth(f)
    got = [[(g.a, g.b) for g in gen] for gen in removed_by_generation(f, k)]
    assert got == ref_removed_by_generation(f, k)


@settings(max_examples=40, deadline=None)
@given(families)
def test_removed_gaps_match_reference_on_random_families(f):
    k = tree_depth(f, 1000)
    got = [[(g.a, g.b) for g in gen] for gen in removed_by_generation(f, k)]
    assert got == ref_removed_by_generation(f, k)


def lowest(stage):
    """``(denom, ends)`` divided by the gcd of denom and every end."""
    denom, ends = stage
    g = math.gcd(denom, *ends)
    return denom // g, [x // g for x in ends]


def has_touching_blocks(f):
    return isinstance(f, DigitSet) and any(b - a == 1 for a, b in zip(f.digits, f.digits[1:]))


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_stage_ends_match_refined_stages(f):
    # Depths 0..6 cover both halves of the fold: the empty outer half at k = 1,
    # odd and even k, the Power(2) collapse and touching digit blocks. The
    # reference stays over s^k; the engine emits a smaller denominator, so
    # both sides are compared in lowest terms.
    for k in range(tree_depth(f) + 1):
        expected = lowest(ref_stage_ends(f, k))
        assert lowest(stage_ends(f, k)) == expected, k


def test_power_two_stage_stays_at_its_fixpoint():
    four_points = (4, [0, 0, 1, 1, 3, 3, 4, 4])
    assert stage_ends(Power(2), 5) == lowest(ref_stage_ends(Power(2), 5)) == four_points


@settings(max_examples=40, deadline=None)
@given(families)
def test_stage_ends_match_refined_stages_on_random_families(f):
    k = tree_depth(f, 1000)
    expected = lowest(ref_stage_ends(f, k))
    assert lowest(stage_ends(f, k)) == expected


@settings(max_examples=60, deadline=None)
@given(families, st.integers(0, 6))
def test_stage_ends_are_over_the_least_denominator(f, k):
    # The stage's denominator divides s^k, and without touching blocks (whose
    # merge drops endpoints) no factor is left for iterate to take out. The
    # engine's own ends are read here, before iterate's _reduced.
    k = min(k, tree_depth(f, 1000))
    denom, ends = stage_ends(f, k)
    assert ref_stage_pairs(f, k)[0] % denom == 0
    if not has_touching_blocks(f):
        assert math.gcd(denom, *ends) == 1


@settings(max_examples=60, deadline=None)
@given(families, st.integers(0, 6))
@example(DigitSet(5, (0, 1, 2, 4)), 2)  # the middle block of a run of three keeps no interval
@example(DigitSet(7, (0, 1, 2, 6)), 3)
def test_outer_blocks_meet_only_where_kept_digits_are_adjacent(f, k):
    # _stage_halves joins two outer blocks whose left ends lie one span apart
    # with a block (a, n, n + 1), n the count of merged inner intervals. Each
    # step cuts a gap of positive length between siblings, so that happens
    # only for adjacent kept digits, and then once the outer half has a step.
    # No block is empty, even between two joins.
    k = min(k, tree_depth(f, 1000))
    _, inner, blocks = _stage_halves(f, k)
    n = len(inner) // 2 - 1
    assert all(i < j for _, i, j in blocks)
    meet = any((i, j) == (n, n + 1) for _, i, j in blocks)
    assert meet == (has_touching_blocks(f) and k >= 2)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_stage_size_cap_is_tree_count_times_denominator_bits(monkeypatch, f):
    # The prediction is exact: a cap equal to the stage's size admits it, one
    # below refuses it before anything is built.
    for k in range(1, tree_depth(f) + 1):
        # The cap reads the bits of s^k, the reference's denominator, whatever
        # the denominator the stage is emitted over.
        size = level_stats(f, k).count * ref_stage_pairs(f, k)[0].bit_length()
        monkeypatch.setattr(families_module, "STAGE_SIZE_CAP", size)
        assert lowest(stage_ends(f, k)) == lowest(ref_stage_ends(f, k))
        monkeypatch.setattr(families_module, "STAGE_SIZE_CAP", size - 1)
        with pytest.raises(DepthCapError, match="exceeds the stage size cap"):
            stage_ends(f, k)
        with pytest.raises(DepthCapError):  # the CLI's exit 3
            iterate(f, k)
        monkeypatch.undo()


@settings(max_examples=200, deadline=None)
@given(families)
def test_only_power_two_reaches_the_depth_cap(f):
    # Why the depth cap is a fixed constant: with it lifted, the size cap alone
    # refuses stage 22 of every family but Power(2). m >= 2 and s >= 3 always,
    # and 2^22 x (3^22).bit_length() = 2^22 x 35 > 2^27; Power(2)'s stage is
    # four points from step 2 on.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families_module, "DEFAULT_DEPTH_CAP", 10**6)
        if f == Power(2):
            _check_stage(f, 22)
        else:
            with pytest.raises(DepthCapError, match="exceeds the stage size cap"):
                _check_stage(f, 22)


def test_stage_size_guard_reads_the_row_not_the_recurrence(monkeypatch):
    # At the parse limit, lambda = 1e-100000 gives s = 6 * 10^100000 (332,195
    # bits), and stage 20 is refused on the lower bound 2^20 x (20 x 332,194
    # + 1) bits of s^20, with no step of the length recurrence taken (it used
    # to multiply 332,000-bit integers for about a second first).
    def forbidden(*args, **kwargs):
        raise AssertionError("the guard walked the length recurrence")

    f = LambdaFamily(F(1, 10**100000))
    monkeypatch.setattr(families_module, "_steps", forbidden)
    for build in (stage_ends, removed_by_generation, iterate):
        with pytest.raises(DepthCapError, match="^stage 20 exceeds the stage size cap"):
            build(f, 20)
    monkeypatch.undo()
    # The Power(2) tree count stops growing at its collapse: depth 24 stays admitted.
    assert stage_ends(Power(2), 24) == (4, [0, 0, 1, 1, 3, 3, 4, 4])


GENERATE_CASES = (
    (Proportional(F(1, 3)), 4),
    (Proportional(F(1, 3)), 13),              # 8192 rows: output spans several write chunks
    (Proportional(F(999_999, 1_000_003)), 5),  # alpha with a large q
    (Power(4), 6),
    (Power(2), 5),                             # past the four-point fixpoint
    (DigitSet(5, (0, 1, 4)), 4),               # touching blocks 0 and 1
    (DigitSet(7, (0, 1, 2, 6)), 3),            # a run of three touching blocks
    (DigitSet(5, (0, 1, 2, 4)), 2),            # the middle block of a run of three keeps no pair
    (DigitSet(5, (0, 1, 4)), 9),               # 9842 rows: write chunks end inside joined blocks
    (DigitSet(3, (0, 2)), 5),
    (LambdaFamily(F(1)), 5),
    (LambdaFamily(F(1, 2)), 6),
    (LambdaFamily(F(7, 1_000_003)), 4),
    (LambdaFamily(F(1, 5)), 13),               # 8192 rows, and no end's gcd is fixed across blocks
    (Power(4), 0),
    (DigitSet(5, (0, 1, 4)), 0),
)


def generate_argv(f, depth, fmt, decimal):
    return ["generate", "--family-json", json.dumps(family_to_json(f)),
            "--depth", str(depth), "--format", fmt] + ["--decimal"] * decimal


def generate_stdout(capsys, f, depth, fmt, decimal):
    assert cli_module.main(generate_argv(f, depth, fmt, decimal)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("decimal", (False, True))
@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("f, depth", GENERATE_CASES, ids=repr)
def test_generate_matches_iterate_listing(capsys, f, depth, fmt, decimal):
    assert generate_stdout(capsys, f, depth, fmt, decimal) == ref_generate(f, depth, fmt, decimal)


def generate_text(f, depth, fmt, decimal):
    # generate_stdout without a fixture, for hypothesis to call per example.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_module.main(generate_argv(f, depth, fmt, decimal)) == 0
    return buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(families, st.integers(0, 8))
def test_generate_matches_iterate_listing_on_random_families(f, depth):
    # Each end is reduced by the gcd its inner endpoint fixes for every outer
    # block, or by its own gcd where none is fixed; either way as the listing
    # printed from the Fraction set.
    depth = min(depth, tree_depth(f))
    for fmt in ("json", "csv"):
        for decimal in (False, True):
            assert generate_text(f, depth, fmt, decimal) == ref_generate(f, depth, fmt, decimal)


def keeps_a_prime_the_outer_ends_lack(f, k):
    denom, _, blocks = _stage_halves(f, k)
    m = math.gcd(denom, *(a for a, _, _ in blocks))
    return denom // math.gcd(denom, m ** denom.bit_length()) > 1


@pytest.mark.parametrize("f", [LambdaFamily(F(1, 5)), LambdaFamily(F(2, 7)), LambdaFamily(F(1, 35)),
                               LambdaFamily(F(3, 10))], ids=repr)
def test_generate_reduces_unplanned_ends_by_their_part_of_the_denominator(capsys, f):
    # From stage 2 on, these denominators keep a prime the outer ends lack, so
    # some ends have no planned gcd: each is reduced by gcd(x, h * rest), rest
    # the part of denom / h prime to m / h, in place of gcd(x, denom).
    assert all(keeps_a_prime_the_outer_ends_lack(f, depth) for depth in range(2, 9))
    for depth in range(1, 9):
        for fmt in ("json", "csv"):
            for decimal in (False, True):
                assert generate_stdout(capsys, f, depth, fmt, decimal) == ref_generate(f, depth, fmt,
                                                                                       decimal), depth


@pytest.mark.parametrize("f, depth", [(LambdaFamily(F(1, 5)), 4), (Power(2), 5)], ids=repr)
def test_generate_where_the_denominator_keeps_a_prime_the_outer_ends_lack(capsys, f, depth):
    # Lambda(1/5): stage 4 is over 1620 = 2^2 3^4 5 and every outer left end
    # is a multiple of 36, so no end's gcd is fixed across outer blocks.
    # Power(2): stage 5 is over 4 and M = gcd(4, 0, 3) = 1.
    assert keeps_a_prime_the_outer_ends_lack(f, depth)
    for fmt in ("json", "csv"):
        for decimal in (False, True):
            assert generate_stdout(capsys, f, depth, fmt, decimal) == ref_generate(f, depth, fmt,
                                                                                   decimal)


class Sink:
    """A stdout that keeps only the byte count of what is written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("f, depth", [(Proportional(F(1, 3)), 16), (DigitSet(5, (0, 1, 4)), 10)],
                         ids=repr)
def test_generate_reduces_once_per_inner_endpoint(monkeypatch, f, depth):
    # One gcd per cell made 2^17 calls for ternary stage 16 (2^16 rows) and
    # 59,050 for the 29,525 merged rows of Digit 5{0,1,4} stage 10. The 2^8
    # (3^5) inner pairs fix the gcd of all their ends but those M divides.
    calls = []

    def counted(*args):
        calls.append(len(args))
        return math.gcd(*args)

    monkeypatch.setattr(render_module, "gcd", counted)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert cli_module.main(generate_argv(f, depth, "csv", False)) == 0
    assert sys.stdout.size == csv_listing_size(f, depth)
    assert len(calls) < 2**13, len(calls)


def csv_listing_size(f, k):
    """The length of the CSV listing of stage k, from Fractions."""
    denom, ends = stage_ends(f, k)
    return sum(len(f"{format_rational(F(a, denom))},{format_rational(F(b, denom))}\n")
               for a, b in zip(ends[::2], ends[1::2]))


@pytest.mark.parametrize("f, depth", [(Proportional(F(1, 3)), 16), (DigitSet(5, (0, 1, 4)), 10)],
                         ids=repr)
def test_generate_row_writer_holds_two_half_stages(monkeypatch, f, depth):
    # The rows of ternary stage 16 (2^16 pairs, 2.2 MB of text) are made one
    # outer block at a time from two folds of 2^8 left ends and the reduction
    # of each inner end; the digit stage runs the merge of touching blocks too.
    # The real writer holds one chunk of about 4096 rows; the stdout here
    # keeps only a count.
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        assert cli_module.main(generate_argv(f, depth, "csv", False)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys.stdout.size == csv_listing_size(f, depth)
    assert peak < 500_000, peak


@pytest.mark.parametrize("decimal", (False, True))
@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("f", (Proportional(F(1, 3)), Power(2), Power(4), LambdaFamily(F(1, 2)),
                               DigitSet(5, (0, 1, 4))), ids=repr)
def test_stage_rows_join_to_the_listing(f, fmt, decimal):
    # The pieces are the listing in order: the head, chunks of whole blocks
    # with the separator as a piece between them, the tail. Digit 5{0,1,4}
    # merges touching blocks, and its stage 8 (121 blocks of 42 rows or
    # fewer) runs over two chunks.
    head, sep, tail = ("[", ", ", "]\n") if fmt == "json" else ("", "\n", "\n")
    for depth in range(9):
        pieces = list(render_module.stage_rows(f, depth, fmt, decimal))
        assert "".join(pieces) == ref_generate(f, depth, fmt, decimal), depth
        assert (pieces[0], pieces[-1], set(pieces[2:-1:2])) == (head, tail, {sep} if len(pieces) > 3 else set())
        rows = [p.count("{") if fmt == "json" else p.count("\n") + 1 for p in pieces[1:-1:2]]
        assert max(rows) <= render_module._PIECE_ROWS + len(_stage_halves(f, depth)[1]) // 2, (depth, rows)


@pytest.mark.parametrize("depth, error", ((22, DepthCapError), (-1, ValueError)))
def test_stage_rows_refuses_on_its_first_next(depth, error):
    rows = render_module.stage_rows(Proportional(F(1, 3)), depth, "csv", False)  # a generator: nothing runs yet
    with pytest.raises(error):
        next(rows)


@pytest.mark.parametrize("module, name, argv", (
    (render_module, "stage_rows", generate_argv(Power(4), 0, "csv", False)),
    (counterexample_module, "tail_table_rows", ["counterexample", "--n-max", "0"])), ids=("generate", "counterexample"))
def test_row_writer_holds_one_chunk_at_a_time(monkeypatch, module, name, argv):
    # Three pieces of 4096 fresh 100-character rows, each ending in a line end,
    # as the tail table's blocks are made. The writer drops each piece before
    # the next is made: holding the last piece while the next one's rows were
    # made and joined held two pieces' text.
    chunk, width = render_module._PIECE_ROWS, 100

    def pieces(*args):
        tracemalloc.start()  # main has read its arguments: what is traced from here is the writer's
        for k in range(3):
            yield "".join([f"{i:0{width}d}\n" for i in range(k * chunk, (k + 1) * chunk)])

    bound = (chunk * sys.getsizeof("0" * width) + sys.getsizeof([None] * chunk)
             + sys.getsizeof("0" * (chunk * (width + 1))) + 65_536)
    monkeypatch.setattr(module, name, pieces)
    monkeypatch.setattr(sys, "stdout", Sink())
    try:
        assert cli_module.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys.stdout.size == 3 * chunk * (width + 1)
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("decimal", (False, True))
@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_generate_builds_no_interval_objects(monkeypatch, capsys, fmt, decimal):
    f = DigitSet(5, (0, 1, 4))
    expected = ref_generate(f, 3, fmt, decimal)

    def forbidden(*args, **kwargs):
        raise AssertionError("generate built a stage set or an interval object")

    # generate reads the two halves itself: it builds neither the stage's ends nor its set
    for module, name in ((sets_module, "iterate"), (families_module, "stage_ends")):
        monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(cli_module, name, forbidden, raising=False)
    monkeypatch.setattr(sets_module.ClosedInterval, "__init__", forbidden)
    assert generate_stdout(capsys, f, 3, fmt, decimal) == expected


@pytest.mark.parametrize("width, row_h", [(w, h) for w in (800, 801, 333) for h in (28, 7, 1)])
@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_render_matches_per_rect_reference(f, width, row_h):
    for depth in range(tree_depth(f) + 1):
        got = render_svg(f, depth, width_px=width, row_height_px=row_h)
        assert got == ref_render_svg(f, depth, width, row_h), depth


def test_render_refuses_a_size_under_one_pixel():
    for size in ({"width_px": 0}, {"row_height_px": 0}, {"width_px": -5}):
        with pytest.raises(ValueError, match="^pixel dimensions must be positive$"):
            render_svg(Power(4), 3, **size)
    # A width past the largest float is refused too, and before any row is built.
    with pytest.raises(ValueError, match=r"^width_px is too large for a float, got 2000"):
        render_svg(Power(4), 30, width_px=2 * 10**308)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(0, 1e40),
    st.integers(0, 10**15).map(float),                       # exact integers: the ".000" path
    st.integers(0, 10**12).map(lambda i: i + 0.5),
    st.integers(0, 10**12).map(lambda i: i + 0.05),
    st.integers(0, 10**12).map(lambda i: (2 * i + 1) / 2000),  # x.yyy5: ties at the third decimal
), min_size=1, max_size=40))
@example([float(2**53 - 1), float(2**53), float(2**53 + 1), 0.0, 1.0, 0.0005, 0.9995, 1e40])
def test_svg_x_column_equals_each_value_stripped_alone(values):
    assert render_module._decimals(tuple(values)) == tuple(map(ref_fmt, values))


@pytest.mark.parametrize("width", [1, 3**9, 10**12, 10**39])
@pytest.mark.parametrize("f, depth", [(Proportional(F(1, 3)), 9), (DigitSet(5, (0, 1, 4)), 4), (Power(4), 7)],
                         ids=repr)
def test_render_matches_per_rect_reference_at_extreme_widths(f, depth, width):
    # 3^9 px makes every ternary x integral; 10^12 and 10^39 px give x columns of 13 to 40 digits.
    if isinstance(f, DigitSet):  # touching blocks merged: the rects of a row have several widths
        denom, ends = stage_ends(f, depth)
        assert len({b - a for a, b in zip(ends[::2], ends[1::2])}) > 1
    assert render_svg(f, depth, width_px=width) == ref_render_svg(f, depth, width, 28)


# --- the integer IntervalSet against the Fraction one ------------------------------------

endpoints = st.fractions(min_value=-3, max_value=3, max_denominator=60)
closed_intervals = st.one_of(
    st.tuples(endpoints, endpoints).map(lambda ab: ClosedInterval(min(ab), max(ab))),
    endpoints.map(lambda x: ClosedInterval(x, x)),  # a single point
)
interval_lists = st.lists(closed_intervals, max_size=10)  # the empty list too
scales = st.fractions(min_value=F(1, 50), max_value=20, max_denominator=60)


def probe_points(ivs, extra):
    """Every endpoint, every midpoint and a point just outside each end."""
    out = list(extra)
    for i in ivs:
        out += [i.a, i.b, (i.a + i.b) / 2, i.a - F(1, 997), i.b + F(1, 997)]
    return out


@settings(max_examples=150, deadline=None)
@given(interval_lists, interval_lists, st.lists(endpoints, max_size=5), scales, endpoints)
def test_interval_set_matches_fraction_reference(ivs, others, points, scale, shift):
    new, ref = IntervalSet(ivs), RefIntervalSet(ivs)
    assert tuple(new) == ref.intervals
    assert [F(x, new.denom) for x in new.ends] == [x for i in ref.intervals for x in (i.a, i.b)]
    assert (new == "x") is False
    assert len(new) == len(ref)
    assert new.total_length == ref.total_length
    assert new.to_json() == ref.to_json()
    assert repr(new) == repr(ref)
    for x in probe_points(ivs + others, points):
        assert new.contains_point(x) == ref.contains_point(x), x
    other_new, other_ref = IntervalSet(others), RefIntervalSet(others)
    for a, b in ((new, other_new), (other_new, new), (new, new)):
        assert a.covers(b) == RefIntervalSet(a).covers(RefIntervalSet(b))
    assert (new == other_new) == (ref == other_ref)
    image = new.affine_image(scale, shift)
    assert tuple(image) == ref.affine_image(scale, shift).intervals
    assert image == IntervalSet(image)  # the image is in canonical form


def covers_as_reference(s, t):
    """s.covers(t), after checking that the Fraction reference agrees."""
    got = s.covers(t)
    assert got == RefIntervalSet(s).covers(RefIntervalSet(t)), (s, t)
    return got


def pieces(*pairs):
    return IntervalSet(ends(*pairs))


def test_covers_walk_matches_reference_on_sparse_and_edge_shapes():
    # Shapes a random list of ten intervals seldom draws. The walk holds one of
    # our intervals, steps to the next and bisects from there only when that
    # one ends before the pair starts too.
    stage = iterate(Proportional(F(1, 3)), 14)
    d = stage.denom
    a0, b0, a1, b1, a2, b2 = stage.ends[:6]
    last_a, last_b = stage.ends[-2:]
    empty = IntervalSet([])
    cases = [
        # one interval against 16,384: the far end, a piece of it, and one
        # that reaches back over the gap before it
        (stage, pieces((F(last_a, d), F(last_b, d))), True),
        (stage, pieces((F(3 * last_a + 1, 3 * d), F(3 * last_b - 1, 3 * d))), True),
        (stage, pieces((F(last_a - 1, d), F(last_b, d))), False),
        # a pair that straddles one of our gaps, after pairs the walk held
        (stage, pieces((F(a0, d), F(b0, d)), (F(b1 - 1, d), F(a2 + 1, d))), False),
        (stage, pieces((F(a0, d), F(b0, d)), (F(a1, d), F(b1, d)), (F(b1, d), F(b2, d))), False),
        # a pair that starts in the gap before the next interval and ends in
        # it, so the walk steps there without a bisect
        (pieces(("0", "1"), ("3", "4")), pieces(("2", "7/2")), False),
        (pieces(("0", "1"), ("3", "4")), pieces(("1/2", "1"), ("2", "7/2")), False),
        # pairs past our last interval, alone and after a covered one
        (stage, pieces(("2", "3")), False),
        (stage, pieces((F(a0, d), F(b0, d)), (F(last_b, d), F(last_b, d) + F(1, 10**9))), False),
        (stage, pieces((F(last_b, d), F(last_b, d))), True),
        (pieces(("0", "1/2")), pieces(("1/4", "1/4"), ("3/4", "1"), ("2", "3")), False),
        # pairs before our first interval, and negative ends
        (pieces(("0", "1")), pieces(("-1", "-1/2"), ("0", "1")), False),
        (pieces(("-3", "-1"), ("1", "3")), pieces(("-2", "-1"), ("1", "2")), True),
        # shared endpoints over different denominators: ours over 35, theirs
        # over 105 and 315, ending on our 1/5, 2/5, 3/7 and 4/7
        (pieces(("1/5", "2/5"), ("3/7", "4/7")), pieces(("1/5", "1/3"), ("3/7", "4/7")), True),
        (pieces(("1/5", "2/5"), ("3/7", "4/7")), pieces(("2/9", "2/5"), ("4/7", "4/7")), True),
        (pieces(("1/5", "2/5"), ("3/7", "4/7")), pieces(("2/5", "3/7")), False),
        # an empty set on either side
        (empty, empty, True),
        (stage, empty, True),
        (empty, stage, False),
        (empty, pieces(("-1", "-1")), False),
    ]
    for s, t, covered in cases:
        assert covers_as_reference(s, t) is covered, (t, covered)


@pytest.mark.parametrize("f", FIXED_FAMILIES, ids=repr)
def test_covers_walk_matches_reference_on_nested_stages(f):
    for k in range(tree_depth(f, 1000)):
        stage, finer = iterate(f, k), iterate(f, k + 1)
        assert covers_as_reference(stage, finer)
        assert covers_as_reference(finer, stage) == (stage == finer)


@settings(max_examples=100, deadline=None)
@given(interval_lists, st.integers(2, 10**6), scales)
def test_equal_sets_hash_equal_whatever_their_denominators(ivs, m, scale):
    s = IntervalSet(ivs)
    same = [
        IntervalSet._from_ends(s.denom * m, [x * m for x in s.ends]),
        s.affine_image(scale).affine_image(1 / scale),
        IntervalSet(list(ivs) + [ClosedInterval(i.a, (i.a + i.b) / 2) for i in ivs]),
        IntervalSet(reversed(list(s))),
    ]
    for t in same:
        assert t == s and hash(t) == hash(s) and (t.denom, t.ends) == (s.denom, s.ends)


def test_merged_endpoints_leave_the_denominator():
    s = IntervalSet([ClosedInterval(F(0), F(1, 7)), ClosedInterval(F(1, 7), F(1))])
    assert (s.denom, s.ends) == (1, (0, 1))
    unit = IntervalSet([ClosedInterval(F(0), F(1))])
    assert s == unit and hash(s) == hash(unit)


SELF_SIMILAR = [f for f in FIXED_FAMILIES if isinstance(f, (Proportional, DigitSet))]


@pytest.mark.parametrize("f", SELF_SIMILAR, ids=repr)
def test_ifs_step_matches_fraction_reference(f):
    maps = ifs_maps(f)
    for k in range(tree_depth(f, 1000) + 1):
        stage, ref = iterate(f, k), ref_iterate(f, k)
        assert tuple(stage) == ref.intervals
        for m in (maps, IfsMaps(maps.maps[::-1])):  # the images in either order
            assert tuple(ifs_step(stage, m)) == ref_ifs_step(ref, m).intervals


def ends(*pairs):
    return [ClosedInterval(F(a), F(b)) for a, b in pairs]


THIRDS = IfsMaps(((F(1, 3), F(0)), (F(1, 3), F(1, 3))))
MIXED_DENOMINATORS = IfsMaps(((F(1, 3), F(0)), (F(1, 4), F(3, 4))))


@pytest.mark.parametrize("maps, intervals, union", [
    # A set outside [0, 1]: its images interleave, so concatenating them in
    # shift order would leave the union unsorted.
    (THIRDS, ends(("0", "1/10"), ("19/10", "2")),
     ends(("0", "1/30"), ("1/3", "11/30"), ("19/30", "2/3"), ("29/30", "1"))),
    (MIXED_DENOMINATORS, ends(("0", "1")), ends(("0", "1/3"), ("3/4", "1"))),
    (MIXED_DENOMINATORS, ends(("0", "1/5"), ("2/7", "1")),
     ends(("0", "1/15"), ("2/21", "1/3"), ("3/4", "4/5"), ("23/28", "1"))),
], ids=["interleaved", "mixed-denominators", "mixed-denominators-two-pieces"])
def test_ifs_step_merges_interleaved_and_mixed_denominator_images(maps, intervals, union):
    for m in (maps, IfsMaps(maps.maps[::-1])):
        step = ifs_step(IntervalSet(intervals), m)
        assert tuple(step) == ref_ifs_step(RefIntervalSet(intervals), m).intervals == tuple(union)
        assert step == IntervalSet(step)  # in canonical form


def test_ifs_step_holds_only_the_union():
    # The images stream into one list in the order of the maps' shifts and
    # are merged in place; no seam of the ternary images is out of order, so
    # nothing is sorted. The peak is the result plus that list's pointer
    # array, where building each image, a rescaled copy and a sorted list of
    # every piece peaked at 2.3 times the result.
    f = Proportional(F(1, 3))
    stage, maps = iterate(f, 12), ifs_maps(f)
    tracemalloc.start()
    try:
        step = ifs_step(stage, maps)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert step == iterate(f, 13)
    assert peak <= 1.5 * size, (peak, size)


def test_stage_holds_at_most_96_bytes_per_interval():
    # A stage holds one flat tuple of ends: two ints and two tuple slots per
    # interval, about 80 bytes. A tuple of integer pairs held 127: the pair's
    # own tuple and the outer slot on top of the two ints.
    tracemalloc.start()
    try:
        stage = iterate(Proportional(F(1, 3)), 14)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stage) == 2**14
    assert size <= 96 * len(stage), size / len(stage)


def test_iterate_builds_no_interval_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an interval object was built")

    monkeypatch.setattr(sets_module.ClosedInterval, "__init__", forbidden)
    f = Proportional(F(1, 3))
    stage, finer = iterate(f, 6), iterate(f, 7)
    assert stage.total_length == F(2, 3) ** 6
    assert stage.contains_point(F(1, 4)) and not stage.contains_point(F(1, 2))
    assert stage.covers(finer) and not finer.covers(stage)
    assert ifs_step(stage, ifs_maps(f)) == finer
    assert stage.to_json()[-1] == {"a": "728/729", "b": "1/1"}
