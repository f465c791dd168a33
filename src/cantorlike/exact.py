"""Exact rational scalars and finite unions of closed intervals.

Everything in this module is immutable and exact: endpoints are
``fractions.Fraction`` values, lengths are computed symbolically, and no
floating point ever enters. ``IntervalSet`` is the workhorse container: a
sorted, pairwise-disjoint list of closed intervals inside (usually) [0,1].
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or plain integer) string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q" in lowest terms, always with a denominator."""
    return f"{x.numerator}/{x.denominator}"


def format_ratio(num: int, den: int) -> str:
    """Render the integer ratio num/den, den > 0, as format_rational does:
    reduced by one gcd, with no Fraction built."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def rational_decimal(x: Fraction, sig: int = 15) -> str:
    """Decimal rendering with the given number of significant digits."""
    return f"{float(x):.{sig}g}"


@dataclass(frozen=True)
class ClosedInterval:
    """A closed interval [a, b] with exact rational endpoints.

    a == b is allowed and encodes a single point (needed by constructions
    that collapse to isolated endpoints).
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if self.a > self.b:
            raise ValueError(f"interval endpoints out of order: [{self.a}, {self.b}]")

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.b

    def contains(self, x: Fraction) -> bool:
        return self.a <= x <= self.b

    def to_json(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    @classmethod
    def from_json(cls, obj: dict) -> "ClosedInterval":
        return cls(parse_rational(obj["a"]), parse_rational(obj["b"]))


class IntervalSet:
    """A finite union of closed intervals, stored sorted and disjoint.

    Consecutive intervals satisfy I.b < J.a strictly; ``normalize`` merges
    anything overlapping or touching, so equality of sets is equality of
    the underlying tuples.
    """

    __slots__ = ("intervals", "_starts")

    def __init__(self, intervals: Iterable[ClosedInterval]):
        merged = _merge(sorted(intervals, key=lambda i: (i.a, i.b)))
        self.intervals: tuple[ClosedInterval, ...] = tuple(merged)
        self._starts = [i.a for i in self.intervals]

    @classmethod
    def _from_disjoint_sorted(cls, intervals: Sequence[ClosedInterval]) -> "IntervalSet":
        # Trusted constructor for generators that already produce sorted,
        # strictly-separated intervals; skips the O(n log n) merge.
        self = object.__new__(cls)
        self.intervals = tuple(intervals)
        self._starts = [i.a for i in self.intervals]
        return self

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[ClosedInterval]:
        return iter(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{i.a}, {i.b}]" for i in self.intervals)
        return f"IntervalSet({parts})"

    @property
    def total_length(self) -> Fraction:
        return sum((i.length for i in self.intervals), Fraction(0))

    def affine_image(self, scale: Fraction, shift: Fraction = Fraction(0)) -> "IntervalSet":
        """Map every [a,b] to [scale*a + shift, scale*b + shift]; scale > 0."""
        if scale <= 0:
            raise ValueError(f"affine scale must be positive, got {scale}")
        mapped = [ClosedInterval(scale * i.a + shift, scale * i.b + shift) for i in self.intervals]
        return IntervalSet._from_disjoint_sorted(mapped)

    def contains_point(self, x: Fraction) -> bool:
        """Membership by binary search over interval starts."""
        idx = bisect_right(self._starts, x) - 1
        return idx >= 0 and x <= self.intervals[idx].b

    def covers(self, other: "IntervalSet") -> bool:
        """True iff every interval of ``other`` lies inside one of ours."""
        return all(
            self._covers_interval(j) for j in other.intervals
        )

    def _covers_interval(self, j: ClosedInterval) -> bool:
        idx = bisect_right(self._starts, j.a) - 1
        return idx >= 0 and j.b <= self.intervals[idx].b

    def to_json(self) -> list[dict]:
        return [i.to_json() for i in self.intervals]

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, obj: list[dict]) -> "IntervalSet":
        return cls(ClosedInterval.from_json(item) for item in obj)

    @classmethod
    def loads(cls, text: str) -> "IntervalSet":
        return cls.from_json(json.loads(text))


def normalize(intervals: Iterable[ClosedInterval]) -> IntervalSet:
    """Sort and merge arbitrary closed intervals into a canonical IntervalSet."""
    return IntervalSet(intervals)


def _merge(ordered: Sequence[ClosedInterval]) -> list[ClosedInterval]:
    out: list[ClosedInterval] = []
    for cur in ordered:
        if out and cur.a <= out[-1].b:
            prev = out[-1]
            if cur.b > prev.b:
                out[-1] = ClosedInterval(prev.a, cur.b)
        else:
            out.append(cur)
    return out


UNIT = IntervalSet([ClosedInterval(Fraction(0), Fraction(1))])
