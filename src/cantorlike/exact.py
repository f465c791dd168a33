"""Exact rational scalars and finite unions of closed intervals.

Everything in this module is immutable and exact, and no floating point ever
enters. Scalars are ``fractions.Fraction`` values. ``IntervalSet`` is the
workhorse container: a sorted, pairwise-disjoint union of closed intervals
inside (usually) [0,1], held as one flat tuple of integer ends over one common
denominator, the shape the stage engine produces. Its measure, membership,
cover and affine image work on those integers; ``ClosedInterval`` and
``Fraction`` objects are built only when the intervals are read out
(iteration, ``repr``).
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul

MAX_DECIMAL_EXPONENT = 100_000
"""Largest decimal exponent magnitude parse_rational accepts: "1e-100000"
already expands to a 100,001-digit denominator."""

_EXPONENT = re.compile(r"e[-+]?([0-9_]+)\s*$", re.IGNORECASE)


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(), or 0 (no limit) where the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _over_limit(exc: ValueError) -> bool:
    """Whether exc is the interpreter's refusal of an integer of over _digit_limit() digits,
    which has no type of its own: its message always holds "integer string conversion"."""
    return "integer string conversion" in str(exc)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or plain integer or decimal) string into an exact Fraction,
    or refuse it as malformed or by the digit limit (_read). A decimal exponent
    over MAX_DECIMAL_EXPONENT in magnitude is refused before any digit is expanded."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {_echo(text)} exceeds {MAX_DECIMAL_EXPONENT}")
    return _read(Fraction, text, "rational", "malformed rational")


def _read_int(text: str) -> int:
    """The reader of every integer flag, --digits entry and JSON number: int(text), refused as by _read."""
    return _read(int, text, "int value", "invalid int value:")


def _read(parse, text: str, what: str, bad: str):
    # parse(text), or one line for text it refuses, which echoes at most 40
    # characters: named by the limit when a run of digits over it is why, else bad.
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        if _over_limit(exc):
            raise ValueError(f"{what} {_echo(text)} has a run of over {_digit_limit()} digits, "
                             f"the limit of sys.get_int_max_str_digits()") from exc
        raise ValueError(f"{bad} {_echo(text)}") from exc


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q" in lowest terms, always with a denominator."""
    return f"{x.numerator}/{x.denominator}"


def _echo(value: object, show=repr) -> str:
    """show(value) for an error message, from at most the first 40 characters
    of the input: a string is cut before it is shown, anything else after.
    What show cannot print, a number of over _digit_limit() digits or a value
    nested too deep, is named instead."""
    if type(value) is str:
        return show(value[:40])
    try:
        return show(value)[:40]
    except RecursionError:
        return f"a {type(value).__name__} nested too deep to show"
    except ValueError as exc:
        if not _over_limit(exc):
            raise
        return f"a rational of over {_digit_limit()} digits"


def format_ratio(num: int, den: int) -> str:
    """Render the integer ratio num/den, den > 0, as format_rational does:
    reduced by one gcd, with no Fraction built."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def rational_decimal(x: Fraction) -> str:
    """Decimal rendering with 15 significant digits."""
    return f"{float(x):.15g}"


# --- exact JSON values: every reader of the wire format (families, interval
# sets, expansions) takes its lists, objects and numbers through these.

_JSON_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_rational(value: object, name: str) -> Fraction:
    # A JSON number with a fraction or exponent is a binary double and a bool
    # is not a number: both are refused rather than rounded. type() rather
    # than isinstance, because bool is a subclass of int. Strings are held to
    # the same form: decimals and exponents ("0.1", "1e5") are refused too.
    if type(value) is int:
        return Fraction(value)
    if type(value) is str and _JSON_RATIONAL.fullmatch(value):
        return parse_rational(value)
    raise ValueError(f"{name} must be an integer or a 'p/q' string, got {_echo(value)}")


def _json_shape(value: object, name: str, keys: tuple[str, ...] | None = None):
    # A list when keys is None, else an object holding every one of keys.
    if type(value) is not (list if keys is None else dict):
        raise ValueError(f"{name} must be {'a list' if keys is None else 'an object'}, got {_echo(value)}")
    if missing := [key for key in keys or () if key not in value]:
        raise ValueError(f"{name} has no {missing[0]!r} key: {_echo(value)}")
    return value


def _json_int(value: object, name: str) -> int:
    x = _json_rational(value, name)
    if x.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {_echo(value)}")
    return x.numerator


def _json_ints(value: object, name: str) -> tuple[int, ...]:
    return tuple(_json_int(d, "digit") for d in _json_shape(value, name))


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and sets each one in its
    ``__init__`` with ``object.__setattr__``; equality (same class, equal
    fields), hashing, repr, copying and pickling are read off those fields.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


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


def _merge(ends: list) -> list:
    # Flat ends a0, b0, a1, b1, ... sorted by start, merged in place in one
    # pass and returned: an interval that overlaps or touches the open one
    # extends it, so the result is strictly separated. Each closed interval
    # is written behind the one being read, and the tail is cut off at the
    # end. The stage engine merges its touching digit blocks here too.
    if not ends:
        return ends
    w, hi, it = 0, ends[1], iter(ends)
    for a, b in zip(it, it):
        if a > hi:
            ends[w + 1] = hi
            w += 2
            ends[w], hi = a, b
        elif b > hi:
            hi = b
    ends[w + 1] = hi
    del ends[w + 2:]
    return ends


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
