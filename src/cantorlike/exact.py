"""Exact rational scalars, their readers and the package's value base.

Everything in this module is immutable and exact, and no floating point ever
enters. Scalars are ``fractions.Fraction`` values, read by ``parse_rational``
and the JSON wire readers and written by ``format_rational``. ``_Frozen`` is
the base of every value class, and ``_merge`` merges flat sorted interval
ends in place for the stage engine and the interval sets. ``ClosedInterval``
and ``IntervalSet`` live in ``sets``, which loads on first use; the module
``__getattr__`` below still resolves them here, for imports and pickles that
name ``cantorlike.exact``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

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


def __getattr__(name: str):
    if name in ("ClosedInterval", "IntervalSet"):
        from . import sets
        return getattr(sets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
