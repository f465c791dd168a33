"""Finite-stage generators for the four Cantor-like construction families.

Families:
  * Proportional(alpha)  -- remove the middle proportion alpha at every step
  * Power(n)             -- remove a centered open interval of length 1/n^k
                            at step k (Smith-Volterra-Cantor style)
  * DigitSet(n, digits)  -- keep the base-n digit blocks listed in ``digits``
  * LambdaFamily(lam)    -- remove a centered open interval of length lam/3^k

Stages are produced by an integer refinement engine: every stage is a
stream of integer endpoint pairs over its least denominator (bar merged
digit blocks), built from two half-depth folds of the step table, so it is
never held whole unless a caller asks for it. ``iterate`` wraps the pairs,
in lowest terms, in an ``IntervalSet``, so deep stages (2^20 intervals) stay
cheap; interval and Fraction objects are built only when a caller reads the
intervals out. A stage whose predicted size is over ``STAGE_SIZE_CAP`` is
refused before anything is built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, islice
from math import gcd, lcm
from typing import Iterator, NamedTuple, Union

from .exact import IntervalSet, _Frozen, _merge, format_rational, parse_rational

DEFAULT_DEPTH_CAP = 24

STAGE_SIZE_CAP = 1 << 27
"""Largest predicted stage size, tree count x denominator bits, that a stage
build admits: the ternary stage 20 is 2^20 intervals x 52 bits (about 2^25.7),
and Lambda(1e-200) at depth 16 is 2^16 x 10,683 bits (about 2^29.4)."""


class ConstructionError(ValueError):
    """The requested refinement step is geometrically impossible."""


class DepthCapError(ValueError):
    """A request exceeds one of the enumeration caps: depth, stage size or
    period length."""


class StageSizeError(DepthCapError):
    """The predicted stage size exceeds STAGE_SIZE_CAP."""


class Proportional(_Frozen):
    __slots__ = ("alpha",)

    def __init__(self, alpha: Fraction) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"proportional removal must satisfy 0 < alpha < 1, got {alpha}")
        object.__setattr__(self, "alpha", alpha)


class Power(_Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"power construction needs n >= 2, got {n}")
        object.__setattr__(self, "n", n)


class DigitSet(_Frozen):
    __slots__ = ("n", "digits")

    def __init__(self, n: int, digits: tuple[int, ...]) -> None:
        d = tuple(sorted(digits))
        if n < 3:
            raise ValueError(f"digit construction needs base n >= 3, got {n}")
        if len(set(d)) != len(d) or not all(0 <= x < n for x in d):
            raise ValueError(f"digits must be distinct values in 0..{n - 1}")
        if not (2 <= len(d) < n):
            raise ValueError("must keep at least 2 and fewer than n digits")
        if d[0] != 0 or d[-1] != n - 1:
            raise ValueError("digits must include 0 and n-1 (first and last blocks kept)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "digits", d)


class LambdaFamily(_Frozen):
    __slots__ = ("lam",)

    def __init__(self, lam: Fraction) -> None:
        if not 0 < lam <= 1:
            raise ValueError(f"lambda family needs 0 < lambda <= 1, got {lam}")
        object.__setattr__(self, "lam", lam)


FamilySpec = Union[Proportional, Power, DigitSet, LambdaFamily]


class OpenInterval(_Frozen):
    """An open interval (a, b), a < b; a removed gap."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        if a >= b:
            raise ValueError(f"open interval needs a < b, got ({a}, {b})")
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
                raise ValueError(f"IFS scale must lie in (0,1), got {scale}")
            images.append((shift, scale + shift))
        images.sort()
        for (a0, b0), (a1, b1) in zip(images, images[1:]):
            if a1 < b0:
                raise ValueError("IFS images of [0,1] overlap")
        object.__setattr__(self, "maps", maps)


# --- integer stage engine -------------------------------------------------
#
# A stage is (denom, pairs) with pairs (a, b) integers, meaning the closed
# intervals [a/denom, b/denom] in construction-tree order. Every stage and gap
# is read off one step table, _steps (beside _lengths below): per step, the
# scale s, the child length and the children's offsets from their parent's
# left end, over the new denominator. A parent with left end a has the
# children [a * s + o, a * s + o + length], one per offset o.
#
# Every family is a homogeneous Moran construction (each interval of a level
# splits the same way), and a fold of the steps is linear in the left end it
# starts from: folding steps h+1..k from a gives a * d_in + p for each p that
# the same steps give from 0, with d_in their product of scales. So stage k is
# the outer fold of steps 1..h and the inner fold of steps h+1..k, each from
# [0], combined pair by pair as they are read; with h = k // 2 each half
# holds about the square root of the stage's tree count (2^(k/2) for a binary
# family) in left ends.
#
# The scales multiply to s^k, which can hold a factor that no endpoint needs
# (the ternary stage k is folded over 6^k; its least denominator is 3^k).
# Both halves are divided by the gcd of s^k and every endpoint before the
# stream starts, so a stage is emitted over its least denominator. Only a
# merge of touching digit blocks, which drops endpoints, can leave a factor;
# iterate's _reduced takes that out.


def _check_stage(f: FamilySpec, k: int, depth_cap: int) -> None:
    """Refuse stage k before anything is built: its depth over ``depth_cap``,
    or its predicted size, tree count x (s^k).bit_length(), over
    STAGE_SIZE_CAP. The prediction walks the length recurrence and stops at
    the first step whose lower bound on the size is already over the cap, so
    a refused stage's denominator is never built."""
    if k < 0:
        raise ValueError(f"stage index must be nonnegative, got {k}")
    if k > depth_cap:
        raise DepthCapError(f"stage {k} exceeds depth cap {depth_cap}")
    denom = count = 1
    for s, _, count in islice(_lengths(f, 1), k):
        # (denom * s).bit_length() is at least denom's bits + s's bits - 1
        if count * (denom.bit_length() + s.bit_length() - 1) > STAGE_SIZE_CAP:
            break
        denom *= s
    else:
        if count * denom.bit_length() <= STAGE_SIZE_CAP:
            return
    raise StageSizeError(f"stage {k} exceeds the stage size cap of {STAGE_SIZE_CAP} "
                         "(intervals x denominator bits)")


def _fold(steps: list) -> tuple[int, list, int]:
    # Steps applied to [0]: (denominator, left ends, child length).
    denom, length, lefts = 1, 1, [0]
    for s, length, offsets in steps:
        denom *= s
        lefts = [a * s + o for a in lefts for o in offsets]
    return denom, lefts, length


def stage_stream(
    f: FamilySpec, k: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> tuple[int, Iterator[tuple[int, int]]]:
    """Stage k as ``(denom, pairs)``, with ``pairs`` a lazy stream of the
    disjoint closed intervals [a/denom, b/denom] left to right, touching
    blocks merged, as integers. ``denom`` divides s^k, the product of the
    step scales, and is the stage's least denominator unless touching digit
    blocks merged. Memory is O(2^(k/2)) for a binary family
    (O(m^(k/2)) for m kept digits) however far the stream is read.

    Raises ValueError for k < 0, DepthCapError for k over ``depth_cap`` and
    StageSizeError for a stage over STAGE_SIZE_CAP, all before any fold.
    """
    _check_stage(f, k, depth_cap)
    steps = list(islice(_steps(f), k))
    half = len(steps) // 2
    d_out, outer, _ = _fold(steps[:half])
    d_in, inner, length = _fold(steps[half:])
    # Both folds contain 0, so the endpoints include every a * d_in, every p
    # and length: g is the gcd of the denominator and every endpoint.
    denom = d_out * d_in
    g = gcd(denom, length, d_in * gcd(*outer), *inner)
    lefts = [a * d_in // g for a in outer]
    inner_pairs = [(p // g, (p + length) // g) for p in inner]
    pairs = ((a + p, a + q) for a in lefts for p, q in inner_pairs)
    # Blocks of different parents touch only where siblings touch at some
    # step (a digit set with adjacent kept digits); otherwise there is
    # nothing to merge.
    if any(len(_step_gaps(size, offsets)) < len(offsets) - 1 for _, size, offsets in steps):
        pairs = _merge(pairs)
    return denom // g, pairs


def stage_pairs(f: FamilySpec, k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> tuple[int, list]:
    """Stage k as ``(denom, pairs)``: ``stage_stream`` with the pairs in a list."""
    denom, pairs = stage_stream(f, k, depth_cap)
    return denom, list(pairs)


def iterate(f: FamilySpec, k: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> IntervalSet:
    """The stage-k set of the construction, as an exact IntervalSet over the
    integer pairs of ``stage_pairs``; no interval or Fraction object is built."""
    return IntervalSet._from_pairs(*stage_pairs(f, k, depth_cap))


def removed_by_generation(
    f: FamilySpec, k: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> list[list[OpenInterval]]:
    """Removed open gaps, one list per generation 1..k, left-to-right within each.

    Raises like ``stage_stream``, before any gap is built: generation k holds
    about as many gaps as stage k has intervals, over the same denominator."""
    _check_stage(f, k, depth_cap)
    denom, lefts, out = 1, [0], []
    for s, length, offsets in islice(_steps(f), k):
        denom *= s
        gaps = _step_gaps(length, offsets)
        out.append([OpenInterval(Fraction(a * s + g0, denom), Fraction(a * s + g1, denom))
                    for a in lefts for g0, g1 in gaps])
        lefts = [a * s + o for a in lefts for o in offsets]
    return out + [[] for _ in range(k - len(out))]  # past a Power(2) collapse


def removed_intervals(
    f: FamilySpec, k: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> list[OpenInterval]:
    """All removals through stage k, generation-major then left-to-right."""
    return [g for gen in removed_by_generation(f, k, depth_cap) for g in gen]


class LevelStats(NamedTuple):
    count: int
    min_length: Fraction
    max_length: Fraction


def _lengths(f: FamilySpec, unit: int) -> Iterator[tuple[int, int, int]]:
    """The length recurrence: (s, length_j, count_j) for steps j = 1, 2, ...

    Every family is a homogeneous Moran construction: at step j each surviving
    interval, of common length L_{j-1}, is replaced by equal children of length
    L_j. Over the denominator D_j = s^j, length_j = unit * D_j * L_j is an
    integer that obeys length_j = c * length_{j-1} - removal * g^(j-1) with
    per-family integers (s, c, removal, g), so the recurrence never takes a gcd.
    count_j is the number of intervals in the construction tree. A Power(2)
    stage of points is a fixpoint: the generator stops after the step whose
    length is 0.
    """
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


def _steps(f: FamilySpec) -> Iterator[tuple[int, int, list]]:
    """(s, length, offsets) for steps j = 1, 2, ...: _lengths(f, 1) with the
    children's offsets from their parent's left end. The two children of a
    binary family sit at both ends of the parent, whose width is parent * s;
    kept digit d sits at d * length. Ends where _lengths ends."""
    digits = f.digits if isinstance(f, DigitSet) else None
    parent = 1
    for s, length, _ in _lengths(f, 1):
        yield s, length, [d * length for d in digits] if digits else [0, parent * s - length]
        parent = length


def _step_gaps(length: int, offsets: list) -> list:
    # The open spaces between consecutive children of one parent, relative to
    # its left end; touching digit blocks leave none.
    return [(o0 + length, o1) for o0, o1 in zip(offsets, offsets[1:]) if o0 + length < o1]


def _gaps(f: FamilySpec) -> Iterator[tuple[int, int, list, int]]:
    """The removal sequence: (denom, s, lengths, parents) for generations j = 1, 2, ...

    In a homogeneous Moran construction every stage-(j-1) interval has the same
    length, so each one loses the same gaps at step j, read off the step's
    offsets: ``lengths`` are their integer lengths over the stage-j denominator
    ``denom`` = s * D_{j-1}, left to right, and ``parents`` is the number of
    stage-(j-1) intervals in the construction tree. Generation j removes
    ``parents`` copies of ``lengths`` in that order. No interval is refined;
    the generator ends with the step table (after the Power(2) collapse).
    """
    denom, parents = 1, 1
    for s, length, offsets in _steps(f):
        denom *= s
        yield denom, s, [o1 - o0 for o0, o1 in _step_gaps(length, offsets)], parents
        parents *= len(offsets)


def level_stats(f: FamilySpec, k: int) -> LevelStats:
    """Interval count and extreme lengths at stage k, via the length recurrence.

    All four families split every interval into equal-length children, so the
    stats follow from an O(k) integer recurrence; no stage enumeration happens
    here. Counts refer to the construction tree (adjacent digit blocks that
    merge into one closed interval are still counted separately).
    """
    if k < 0:
        raise ValueError(f"stage index must be nonnegative, got {k}")
    denom, length, count = 1, 1, 1
    for s, length, count in islice(_lengths(f, 1), k):
        denom *= s
    length_k = Fraction(length, denom)
    return LevelStats(count, length_k, length_k)


def ifs_step(s: IntervalSet, maps: IfsMaps) -> IntervalSet:
    """One application of the IFS: the union of the affine images of s."""
    images = [s.affine_image(scale, shift) for scale, shift in maps.maps]
    denom = lcm(*(img.denom for img in images))
    pieces = []
    for img in images:
        m = denom // img.denom
        pieces += [(a * m, b * m) for a, b in img.pairs]
    pieces.sort()
    union = list(_merge(pieces))
    if sum(b - a for a, b in union) != sum(b - a for a, b in pieces):
        raise ConstructionError("IFS images overlap; union is not disjoint")
    return IntervalSet._from_pairs(denom, union)


def ifs_maps(f: FamilySpec) -> IfsMaps:
    """The self-similar contraction system realizing a Proportional or DigitSet family."""
    if isinstance(f, Proportional):
        scale = (1 - f.alpha) / 2
        return IfsMaps(((scale, Fraction(0)), (scale, 1 - scale)))
    if isinstance(f, DigitSet):
        scale = Fraction(1, f.n)
        return IfsMaps(tuple((scale, Fraction(d, f.n)) for d in f.digits))
    raise ValueError(f"{type(f).__name__} families are not self-similar; no IFS form")


def digit_equivalent(alpha: Fraction) -> DigitSet | None:
    """The two-digit family matching Proportional(alpha), when one exists.

    Removing the middle proportion alpha keeps two blocks of width (1-alpha)/2;
    that matches keeping digits {0, m-1} in base m exactly when m = 2/(1-alpha)
    is an integer >= 3.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    m = 2 / (1 - alpha)
    if m.denominator != 1 or m < 3:
        return None
    return DigitSet(int(m), (0, int(m) - 1))


# --- JSON wire format -----------------------------------------------------

def family_to_json(f: FamilySpec) -> dict:
    if isinstance(f, Proportional):
        return {"family": "proportional", "alpha": format_rational(f.alpha)}
    if isinstance(f, Power):
        return {"family": "power", "n": f.n}
    if isinstance(f, DigitSet):
        return {"family": "digit", "n": f.n, "digits": list(f.digits)}
    if isinstance(f, LambdaFamily):
        return {"family": "lambda", "lambda": format_rational(f.lam)}
    raise TypeError(f"unknown family spec: {f!r}")


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
    raise ValueError(f"{name} must be an integer or a 'p/q' string, got {value!r}")


def _json_int(value: object, name: str) -> int:
    x = _json_rational(value, name)
    if x.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return x.numerator


def family_from_json(obj: object) -> FamilySpec:
    """The family a JSON object names. Exact values only: integers and "p/q"
    strings; floats, bools, lists and non-objects raise ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"family JSON must be an object, got {obj!r}")
    kind = obj.get("family")
    if kind == "proportional":
        return Proportional(_json_rational(obj["alpha"], "alpha"))
    if kind == "power":
        return Power(_json_int(obj["n"], "n"))
    if kind == "digit":
        digits = obj["digits"]
        if type(digits) is not list:
            raise ValueError(f"digits must be a list of integers, got {digits!r}")
        return DigitSet(_json_int(obj["n"], "n"), tuple(_json_int(d, "digit") for d in digits))
    if kind == "lambda":
        return LambdaFamily(_json_rational(obj["lambda"], "lambda"))
    raise ValueError(f"unknown family kind: {kind!r}")
