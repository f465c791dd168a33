"""Finite unions of closed intervals, and the set-valued API of the families.

``IntervalSet`` holds a sorted, pairwise-disjoint union of closed intervals as
one flat tuple of integer ends over their least common denominator, the shape
the stage engine produces. Its measure, membership, cover and affine image work
on those integers; ``ClosedInterval`` and ``Fraction`` objects are built only
when the intervals are read out (iteration, ``repr``). The package loads this
module on first use, so only a stage drawn as SVG or a library call that builds
a set runs it; ``exact`` and ``families``, where its names lived, still resolve them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import gt, itemgetter, mul

from .exact import _Frozen, _echo, _json_rational, _json_shape, _merge, format_rational
from .families import (ConstructionError, FamilySpec, _check_stage, _fold, _self_similar, _step_gaps, _steps,
                       moran_row, stage_ends)


class ClosedInterval(_Frozen):
    """A closed interval [a, b] with exact rational endpoints.

    a == b is allowed and encodes a single point (needed by constructions
    that collapse to isolated endpoints).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        if a > b:
            raise ValueError(f"interval endpoints out of order: [{_echo(a, str)}, {_echo(b, str)}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    def to_json(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    @classmethod
    def from_json(cls, obj: dict) -> "ClosedInterval":
        _json_shape(obj, "interval", ("a", "b"))
        return cls(_json_rational(obj["a"], "a"), _json_rational(obj["b"], "b"))


class IntervalSet(_Frozen):
    """A finite union of closed intervals, stored sorted and disjoint.

    The set is the intervals [a/denom, b/denom] for the consecutive ends
    a, b of ``ends``, one flat tuple of integers a0, b0, a1, b1, ... left to
    right. Each b < a' strictly (the constructor sorts the intervals and
    merges anything overlapping or touching), and ``denom`` is the least
    common denominator of the ends, so equal sets have equal ``(denom,
    ends)`` whatever denominators they were built from; equality and hashing
    (``_Frozen``'s) compare that form.
    """

    __slots__ = ("denom", "ends")

    def __init__(self, intervals: Iterable[ClosedInterval]):
        pairs = [(i.a, i.b) for i in intervals]
        denom = lcm(*(x.denominator for pair in pairs for x in pair))
        pairs = sorted(tuple(x.numerator * (denom // x.denominator) for x in pair) for pair in pairs)
        denom, ends = _reduced(denom, _merge(list(chain.from_iterable(pairs))))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "ends", ends)

    @classmethod
    def _from_ends(cls, denom: int, ends: list) -> "IntervalSet":
        # Trusted: the ends are sorted and strictly separated, so no sort or
        # merge. The list is the caller's no longer: it is reduced in place.
        self = object.__new__(cls)
        denom, ends = _reduced(denom, ends)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "ends", ends)
        return self

    def __len__(self) -> int:
        return len(self.ends) // 2

    def __iter__(self) -> Iterator[ClosedInterval]:
        denom, it = self.denom, iter(self.ends)
        for a, b in zip(it, it):
            yield ClosedInterval(Fraction(a, denom), Fraction(b, denom))

    def __repr__(self) -> str:
        parts = ", ".join(f"[{i.a}, {i.b}]" for i in self)
        return f"IntervalSet({parts})"

    def __reduce__(self) -> tuple:
        # The constructor takes intervals, not the fields: rebuild from the ends.
        return IntervalSet._from_ends, (self.denom, list(self.ends))

    @property
    def total_length(self) -> Fraction:
        return Fraction(sum(self.ends[1::2]) - sum(self.ends[::2]), self.denom)

    def affine_image(self, scale: Fraction, shift: Fraction = Fraction(0)) -> "IntervalSet":
        """Map every [a,b] to [scale*a + shift, scale*b + shift]; scale > 0."""
        if scale <= 0:
            raise ValueError(f"affine scale must be positive, got {_echo(scale, str)}")
        m = lcm(scale.denominator, shift.denominator)
        return IntervalSet._from_ends(self.denom * m, list(_affine_ends(self, scale, shift, m)))

    def contains_point(self, x: Fraction) -> bool:
        """Membership: i ends lie at or below floor(x * denom), so x lies
        inside an interval when i is odd, and otherwise only when it is the
        end i - 1 itself (one cross-multiplied check). x must be a Fraction or
        an int: a float or a Decimal has no numerator and raises
        AttributeError rather than being answered."""
        ends, q = self.ends, x.denominator
        px = x.numerator * self.denom
        i = bisect_right(ends, px // q)
        return i % 2 == 1 or i > 0 and px == ends[i - 1] * q

    def covers(self, other: "IntervalSet") -> bool:
        """True iff every interval of ``other`` lies inside one of ours.

        One walk of ``other``'s intervals left to right, holding one of ours
        at a time, both over the lcm of the denominators. An interval that
        starts past the held one steps to the next, and only if that one ends
        before it starts too does a bisect of our ends find the next one.
        Nested stages cost about one step per interval, a sparse ``other``
        O(m log n)."""
        mine, theirs = _common(self, other), _common(other, self)
        if not mine or not theirs or theirs[0] < mine[0]:
            return not theirs
        i, n, hi, it = 0, len(mine), mine[1], iter(theirs)
        for a, b in zip(it, it):
            if a > hi:
                i += 2
                if i < n and a > mine[i + 1]:
                    j = bisect_right(mine, a, i)
                    i = j - 2 + j % 2  # the last of our starts at or below a
                if i == n or a < mine[i]:
                    return False
                hi = mine[i + 1]
            if b > hi:
                return False
        return True

    def to_json(self) -> list[dict]:
        denom, it = self.denom, iter(self.ends)
        return [{"a": format_ratio(a, denom), "b": format_ratio(b, denom)} for a, b in zip(it, it)]

    @classmethod
    def from_json(cls, obj: list[dict]) -> "IntervalSet":
        return cls(ClosedInterval.from_json(item) for item in _json_shape(obj, "interval set"))


def format_ratio(num: int, den: int) -> str:
    """Render the integer ratio num/den, den > 0, as format_rational does:
    reduced by one gcd, with no Fraction built."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _common(s: IntervalSet, other: IntervalSet):
    # The ends of s over the lcm of the two denominators.
    m = other.denom // gcd(s.denom, other.denom)
    return s.ends if m == 1 else list(map(mul, s.ends, repeat(m)))


def _affine_ends(s: IntervalSet, scale: Fraction, shift: Fraction, m: int) -> Iterator[int]:
    # The ends of s under x -> scale*x + shift, over the denominator s.denom * m,
    # where m is a multiple of both denominators: there the map sends the
    # numerator x to x * times + plus. Lazy, and sorted when scale > 0.
    times = scale.numerator * (m // scale.denominator)
    plus = shift.numerator * (m // shift.denominator) * s.denom
    return (x * times + plus for x in s.ends)


def _reduced(denom: int, ends: list) -> tuple[int, tuple]:
    # The canonical form: denom and every end divided by their gcd, the least
    # common denominator. The scan stops at the first end that brings the gcd
    # to 1; else the list is divided in place, so the peak stays at one copy.
    g = denom
    for x in ends:
        g = gcd(g, x)
        if g == 1:
            return denom, tuple(ends)
    for i, x in enumerate(ends):
        ends[i] = x // g
    return denom // g, tuple(ends)


class OpenInterval(_Frozen):
    """An open interval (a, b), a < b; a removed gap."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        if a >= b:
            raise ValueError(f"open interval needs a < b, got ({_echo(a, str)}, {_echo(b, str)})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> Fraction:
        return self.b - self.a


class IfsMaps(_Frozen):
    """Affine contraction system: a list of x -> scale*x + shift maps."""

    __slots__ = ("maps",)

    def __init__(self, maps: tuple[tuple[Fraction, Fraction], ...]) -> None:
        images = []
        for scale, shift in maps:
            if not 0 < scale < 1:
                raise ValueError(f"IFS scale must lie in (0,1), got {_echo(scale, str)}")
            images.append((shift, scale + shift))
        images.sort()
        for (a0, b0), (a1, b1) in zip(images, images[1:]):
            if a1 < b0:
                raise ValueError("IFS images of [0,1] overlap")
        object.__setattr__(self, "maps", maps)


def iterate(f: FamilySpec, k: int) -> IntervalSet:
    """The stage-k set of the construction, as an exact IntervalSet over the
    integer ends of ``stage_ends``; no interval or Fraction object is built."""
    return IntervalSet._from_ends(*stage_ends(f, k))


def removed_by_generation(f: FamilySpec, k: int) -> list[list[OpenInterval]]:
    """Removed open gaps, one list per generation 1..k, left-to-right within each.

    Raises like ``_stage_halves``, before any gap is built: generation k holds
    about as many gaps as stage k has intervals, over the same denominator."""
    _check_stage(f, k)
    out, steps = [], list(islice(_steps(f), k))
    for (s, length, offsets), (denom, lefts, _) in zip(steps, _fold(steps)):  # levels 0..k-1
        denom, gaps = denom * s, _step_gaps(length, offsets)
        out.append([OpenInterval(Fraction(a * s + g0, denom), Fraction(a * s + g1, denom))
                    for a in lefts for g0, g1 in gaps])
    return out + [[] for _ in range(k - len(out))]  # past a Power(2) collapse


def ifs_step(s: IntervalSet, maps: IfsMaps) -> IntervalSet:
    """One application of the IFS: the union of the affine images of s.

    Every image is streamed over the one denominator s.denom * L, L the lcm of
    the maps' denominators, into one flat list of ends in the order of the
    maps' shifts, which is merged in place: the peak is one list the size of
    the union. It is sorted unless the last start of one image lies past the
    first start of the next (the images interleave, as when s leaves [0, 1]),
    and only then are its intervals sorted. Overlapping images raise
    ConstructionError."""
    L = lcm(*(x.denominator for scale_shift in maps.maps for x in scale_shift))
    n, by_shift = len(s.ends), sorted(maps.maps, key=itemgetter(1))
    union = list(chain.from_iterable(_affine_ends(s, scale, shift, L) for scale, shift in by_shift))
    if n and any(map(gt, union[n - 2::n], union[n::n])):
        union = list(chain.from_iterable(sorted(zip(union[::2], union[1::2]))))
    union = IntervalSet._from_ends(s.denom * L, _merge(union))
    # The images are disjoint iff the union is as long as all of them together.
    if union.total_length != sum(scale for scale, _ in by_shift) * s.total_length:
        raise ConstructionError("IFS images overlap; union is not disjoint")
    return union


def ifs_maps(f: FamilySpec) -> IfsMaps:
    """The contraction system of a self-similar family: x -> (length * x + o) / s per child offset o of step 1."""
    if not _self_similar(moran_row(f)):
        raise ValueError(f"{type(f).__name__} families are not self-similar; no IFS form")
    s, length, offsets = next(_steps(f))
    return IfsMaps(tuple((Fraction(length, s), Fraction(o, s)) for o in offsets))
