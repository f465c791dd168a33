"""Finite-stage generators for the four Cantor-like construction families.

Families:
  * Proportional(alpha)  -- remove the middle proportion alpha at every step
  * Power(n)             -- remove a centered open interval of length 1/n^k
                            at step k (Smith-Volterra-Cantor style)
  * DigitSet(n, digits)  -- keep the base-n digit blocks listed in ``digits``
  * LambdaFamily(lam)    -- remove a centered open interval of length lam/3^k

Each family is a homogeneous Moran construction (Feng, Wen & Wu, Sci. China
1997), read through one row of integers ``moran_row(f) = (s, m, c, r, g,
digits)``: every step scales by s and splits each interval into m equal
children, whose length over s^j is c * length_{j-1} - r * g^(j-1). A kind's
row is a function of its constructor arguments in its entry of the family
table, ``_FAMILY_FIELDS``. Stages, IFS maps and digit forms are read off the row, lengths and
measures off its closed form, ``_closed_form``; r = 0 or r = c - g makes it self-similar.

The levels of the construction tree come from one fold of the step table, ``_fold``:
removed gaps are cut from each level, and a stage is the flat integer ends of the blocks
``_stage_halves`` lists off two half-depth folds, given as ``stage_ends``.
A stage over ``STAGE_SIZE_CAP`` or ``DEFAULT_DEPTH_CAP`` is refused before anything is built.
``member_at_depth`` places a point in stage k without building it, one child per step of ``_steps``;
a walk whose integers could pass ``MAX_WALK_BITS`` is refused before its first step.
The set-valued API (``iterate``, ``removed_by_generation``, ``ifs_step``, ...) lives in ``sets``;
the module ``__getattr__`` at the end resolves those names here, for old imports and pickles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd
from operator import add

from .exact import (_Frozen, _json_int, _json_ints, _json_rational, _json_shape, _echo, _merge, _read_int,
                    format_rational, parse_rational)

DEFAULT_DEPTH_CAP = 24
"""Deepest stage built; binds only for Power(2): the size cap refuses the rest past 21."""

STAGE_SIZE_CAP = 1 << 27
"""Largest predicted stage size, tree count x denominator bits, that a stage
build admits: the ternary stage 20 is 2^20 intervals x 52 bits (about 2^25.7),
and Lambda(1e-200) at depth 16 is 2^16 x 10,683 bits (about 2^29.4)."""


class ConstructionError(ValueError):
    """A construction step is geometrically impossible (IFS images overlap)."""


class DepthCapError(ValueError):
    """A request exceeds one of the enumeration caps: depth, stage size,
    period length or walk bits. Its message names the cap."""


class Proportional(_Frozen):
    __slots__ = ("alpha",)

    def __init__(self, alpha: Fraction) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"proportional removal must satisfy 0 < alpha < 1, got {_echo(alpha, str)}")
        object.__setattr__(self, "alpha", alpha)


class Power(_Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"power construction needs n >= 2, got {_echo(n, str)}")
        object.__setattr__(self, "n", n)


class DigitSet(_Frozen):
    __slots__ = ("n", "digits")

    def __init__(self, n: int, digits: tuple[int, ...]) -> None:
        d = tuple(sorted(digits))
        if n < 3:
            raise ValueError(f"digit construction needs base n >= 3, got {_echo(n, str)}")
        if len(set(d)) != len(d) or not all(0 <= x < n for x in d):
            raise ValueError(f"digits must be distinct values in 0..{_echo(n - 1, str)}")
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
            raise ValueError(f"lambda family needs 0 < lambda <= 1, got {_echo(lam, str)}")
        object.__setattr__(self, "lam", lam)


FamilySpec = Proportional | Power | DigitSet | LambdaFamily


class MoranRow(namedtuple("MoranRow", "s m c r g digits", defaults=((),))):
    """A family's homogeneous Moran construction (see the module docstring)."""

    __slots__ = ()


def moran_row(f: FamilySpec) -> MoranRow:
    """The one row of integers that every construction and query reads: the
    row of f's entry in the family table, ``_FAMILY_FIELDS``, at f's fields."""
    return _FAMILY_FIELDS[_kind(f)][1](*f._fields())


# --- integer stage engine -------------------------------------------------
#
# Every stage, gap and descent is read off one step table, _steps (below): a
# parent with left end a has the children [a * s + o, a * s + o + length],
# one per offset o of the step, over the new denominator.
#
# Each interval of a level splits the same way, so a fold of the steps is
# linear in the left end it starts from: folding steps h+1..k from a gives
# a * d_in + p for each p that the same steps give from 0, with d_in their
# product of scales. So stage k is the outer fold of steps 1..h and the inner
# fold of steps h+1..k, each from [0], combined block by block as they are read;
# with h = k // 2 each half holds about the square root of the stage's tree
# count (2^(k/2) for a binary family) in left ends.
#
# The scales multiply to s^k, which can hold a factor that no endpoint needs
# (the ternary stage k is folded over 6^k; its least denominator is 3^k).
# Both halves are divided by the gcd of s^k and every endpoint before any
# block is made, so a stage is emitted over its least denominator. Only a
# merge of touching digit blocks, which drops endpoints, can leave a factor;
# iterate's _reduced takes that out.


def _live_steps(row: MoranRow, k: int) -> int:
    # How many of steps 1..k change the stage. With r != 0 and c = g, length_j
    # = c^(j-1) * (c - j * r): the stage is points from step c // r on (Power(2): 2).
    return min(k, row.c // row.r) if row.r and row.c == row.g else k


def _check_stage(f: FamilySpec, k: int) -> None:
    """Refuse stage k before anything is built: its depth over the fixed
    DEFAULT_DEPTH_CAP, or its size read off the row, m^j x (s^j).bit_length()
    with j = _live_steps, over STAGE_SIZE_CAP; s^j is built only if
    j * (bits of s - 1) + 1, its least bit length, leaves the size under the cap."""
    if k < 0:
        raise ValueError(f"stage index must be nonnegative, got {_echo(k, str)}")
    if k > DEFAULT_DEPTH_CAP:
        raise DepthCapError(f"stage {_echo(k, str)} exceeds depth cap {DEFAULT_DEPTH_CAP}")
    row = moran_row(f)
    steps = _live_steps(row, k)
    count = row.m**steps
    if (count * (steps * (row.s.bit_length() - 1) + 1) > STAGE_SIZE_CAP
            or count * (row.s**steps).bit_length() > STAGE_SIZE_CAP):
        raise DepthCapError(f"stage {k} exceeds the stage size cap of {STAGE_SIZE_CAP} "
                            "(intervals x denominator bits)")


def _fold(steps: list) -> Iterator[tuple[int, list, int]]:
    # Levels 0..len(steps) of the tree from [0]: (denominator, left ends, child length).
    denom, length, lefts = 1, 1, [0]
    yield denom, lefts, length
    for s, length, offsets in steps:
        denom *= s
        lefts = [a * s + o for a in lefts for o in offsets]
        yield denom, lefts, length


def _stage_halves(f: FamilySpec, k: int) -> tuple[int, list, list]:
    """Stage k as ``(denom, inner, blocks)`` over the least denominator
    ``denom``. ``blocks`` holds ``(a, i, j)`` per outer block, left to right:
    its ends are a + x for x in ``inner[2 * i:2 * j]``, whose n merged inner
    intervals come first. Blocks whose left ends lie a block's span apart
    meet (only where kept digits are adjacent): the last interval of one and
    the first of the next become interval n of ``inner``, the block (a, n,
    n + 1) from the first's left end. The first and last inner intervals
    differ whenever blocks meet: a merged digit stage past depth 1 keeps a
    gap inside each block. Raises ValueError for k < 0 and DepthCapError for
    k over DEFAULT_DEPTH_CAP or a stage over STAGE_SIZE_CAP, all before any fold."""
    _check_stage(f, k)
    steps = list(islice(_steps(f), k))
    half = len(steps) // 2
    d_out, outer, _ = deque(_fold(steps[:half]), maxlen=1)[0]
    d_in, inner, length = deque(_fold(steps[half:]), maxlen=1)[0]
    # Both folds contain 0, so the endpoints include every a * d_in, every p
    # and length: g is the gcd of the denominator and every endpoint.
    denom = d_out * d_in
    g = gcd(denom, length, d_in * gcd(*outer), *inner)
    lefts = [a * d_in // g for a in outer]
    inner = _merge([x // g for p in inner for x in (p, p + length)])
    n, span = len(inner) // 2, inner[-1] - inner[0]
    blocks, i = [], 0  # i: the first interval of the next block, 0 or 1 after a meeting
    for a, b in zip(lefts, lefts[1:] + [None]):
        meet = int(b == a + span)
        if i < n - meet:  # a block between two meetings may keep no interval
            blocks.append((a, i, n - meet))
        if meet:
            blocks.append((a, n, n + 1))
        i = meet
    return denom // g, inner + [inner[-2], inner[1] + span], blocks


def stage_ends(f: FamilySpec, k: int) -> tuple[int, list]:
    """Stage k as ``(denom, ends)``: the disjoint closed intervals
    [a/denom, b/denom] left to right, touching blocks merged, as one flat
    list a0, b0, a1, b1, ... of integers. ``denom`` divides s^k, the product
    of the step scales, and is the stage's least denominator unless touching
    digit blocks merged. Raises like ``_stage_halves``, before any fold."""
    denom, inner, blocks = _stage_halves(f, k)
    return denom, list(chain.from_iterable(map(add, repeat(a), inner[2 * i:2 * j]) for a, i, j in blocks))


LevelStats = namedtuple("LevelStats", "count length")


def _steps(f: FamilySpec, unit: int = 1) -> Iterator[tuple[int, int, list]]:
    """The step table of the row (s, m, c, r, g, digits): (s, length_j, offsets)
    for steps j = 1, 2, ..., with length_j = c * length_{j-1} - unit * r * g^(j-1)
    from length_0 = unit: unit times the child length over s^j, no gcd taken.
    Offsets are the m children's from their parent's left end: d * length_j per
    kept digit d, else both ends of the parent, whose width is length_{j-1} * s.
    No length is negative (r = 0, or r <= c - g, or the Power(2) collapse, whose
    stage of points is a fixpoint); the generator stops after a length of 0."""
    s, _, c, r, g, digits = moran_row(f)
    parent, removal = unit, unit * r
    while True:
        length = c * parent - removal
        yield s, length, [d * length for d in digits] if digits else [0, parent * s - length]
        if length == 0:
            return  # all intervals are points: no further step changes the stage
        parent, removal = length, removal * g


MAX_WALK_BITS = 1 << 14
"""Largest integer, in bits, that a walk of the length recurrence may reach
(``member_at_depth`` and the dimension estimates): member at depth 2000 on
Lambda(1/2), at a point over 2 * 12^2000, is predicted at 15,172 bits."""


def _check_walk(f: FamilySpec, k: int, unit: int) -> None:
    """Refuse a walk of k steps of ``_steps(f, unit)`` before its first
    step when it takes one, j = _live_steps >= 1, and its integers, below
    unit * s^j, can reach unit bits + j x bits of s over MAX_WALK_BITS."""
    row = moran_row(f)
    steps = _live_steps(row, k)
    bits = unit.bit_length() + steps * row.s.bit_length()
    if steps and bits > MAX_WALK_BITS:
        raise DepthCapError(f"a walk of {_echo(k, str)} step{'s' * (k != 1)} may reach {_echo(bits, str)}-bit "
                            f"integers, over the walk cap of {MAX_WALK_BITS} bits")


def member_at_depth(x: Fraction, f: FamilySpec, k: int) -> bool:
    """Whether x lies in the stage-k set, by descending the refinement tree.

    O(k) per query: at each step only the child interval containing x is
    refined, never the whole stage. With x = p/q, the offset u of x from the
    left end of its interval is an integer in the units 1/(D_j * q) of
    ``_steps(f, q)``, and no gcd is taken. Where two children touch, either
    holds x: both ends of every child survive at every depth. A walk whose
    integers may pass MAX_WALK_BITS raises DepthCapError before its first step.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"membership query needs x in [0,1], got {_echo(x, str)}")
    if k < 0:
        raise ValueError(f"stage index must be nonnegative, got {_echo(k, str)}")
    _check_walk(f, k, x.denominator)
    u = x.numerator
    for s, child, offsets in islice(_steps(f, x.denominator), k):
        u *= s
        u -= offsets[bisect_right(offsets, u) - 1]
        if u > child:
            return False
    return True  # past a Power(2) collapse the stage no longer changes


def _step_gaps(length: int, offsets: list) -> list:
    # The open spaces between consecutive children of one parent, relative to
    # its left end; touching digit blocks leave none.
    return [(o0 + length, o1) for o0, o1 in zip(offsets, offsets[1:]) if o0 + length < o1]


def _gaps(f: FamilySpec) -> Iterator[tuple[int, int, list, int]]:
    """The removal sequence: (denom, s, lengths, parents) for generations j = 1, 2, ...

    Every stage-(j-1) interval loses the same gaps at step j, read off the
    step's offsets: ``lengths`` are their integer lengths over the stage-j denominator
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


def _closed_form(row: MoranRow) -> tuple:
    """(A, alpha, B, beta), reduced Fractions such that the stage-j child length (``_steps``'
    length_j over s^j) is L_j = A alpha^j + B beta^j: alpha = c/s, beta = g/s, B = r/(c - g) and
    A = 1 - B, or B = 0 when r = 0. The Power(2) collapse (r != 0, c = g) has B = None and A = 0."""
    s, _, c, r, g, _ = row
    if r and c == g:
        return Fraction(0), Fraction(c, s), None, Fraction(g, s)
    b = Fraction(r, c - g) if r else Fraction(0)
    return 1 - b, Fraction(c, s), b, Fraction(g, s)


def _length_bits(row: MoranRow, k: int) -> int:
    """A floor on log2 of the denominator of L_k = alpha^k (A + B (u/v)^k), u/v = beta/alpha in lowest
    terms (``_closed_form``): k (bits of v - 1 - bits of num alpha) - bits of num B - bits of den A, as a
    fixed factor or term moves a denominator by a bounded factor: 1. den(B (u/v)^k) >= v^k / num B, u and
    v sharing no prime; 2. den(x + A) >= den(x) / den A; 3. den(alpha^k y) >= den(y) / num(alpha)^k."""
    a, alpha, b, beta = _closed_form(row)
    if not b:  # the collapse (B = None): 0; r = 0 (B = 0): L_k = alpha^k
        return 0 if b is None else k * (alpha.denominator.bit_length() - 1)
    return (k * ((beta / alpha).denominator.bit_length() - 1 - alpha.numerator.bit_length())
            - b.numerator.bit_length() - a.denominator.bit_length())


def level_stats(f: FamilySpec, k: int) -> LevelStats:
    """Interval count m^j and the one interval length L_j at stage k, j = _live_steps, from ``_closed_form``;
    no stage is enumerated, no step walked. Counts are the tree's (touching digit blocks count apart)."""
    if k < 0:
        raise ValueError(f"stage index must be nonnegative, got {_echo(k, str)}")
    row = moran_row(f)
    a, alpha, b, beta = _closed_form(row)
    j = _live_steps(row, k)
    length = (alpha**j * Fraction(row.c - j * row.r, row.c) if b is None  # the Power(2) collapse
              else a * alpha**j + b * beta**j if b else alpha**j)
    return LevelStats(row.m**j, length)


def measure_at_depth(f: FamilySpec, k: int) -> Fraction:
    """Exact total length of the stage-k set: its count times its one length (``level_stats``)."""
    stats = level_stats(f, k)
    return stats.count * stats.length


def limit_measure(f: FamilySpec) -> Fraction:
    """Lebesgue measure of the limit set, the limit of m^j L_j for L_j = A alpha^j + B beta^j
    (``_closed_form``; m beta < 1): A when m alpha = 1 (A = 0 for the Power(2) collapse), else 0."""
    row = moran_row(f)
    a, alpha, _, _ = _closed_form(row)
    return a if row.m * alpha == 1 else Fraction(0)


def _self_similar(row: MoranRow) -> bool:
    # Every step repeats step 1 at one ratio: r = 0 or r = c - g, B = 0 or A = 0 in _closed_form.
    return row.r in (0, row.c - row.g)


def digit_form(f: FamilySpec) -> DigitSet | None:
    """The digit family with the stages of f, when f is self-similar and its
    step-1 child length divides every child offset (so s, the last child's end)."""
    if not _self_similar(moran_row(f)):
        return None
    s, length, offsets = next(_steps(f))
    if any(o % length for o in offsets):
        return None
    return DigitSet(s // length, tuple(o // length for o in offsets))


# --- family kinds: JSON wire format and command-line flags -----------------
#
# The one table of family kinds. kind -> (class, row, fields): the Moran row as
# a function of the constructor arguments, and one (name, JSON reader, JSON
# writer, reader of the text of flag --name) per argument, in __slots__ order.

def _centred_removal_row(n: int, lam: Fraction) -> MoranRow:
    # Children (L - lam/n^j)/2 of a parent L, with lam/n^j = 2p(2q)^(j-1) / (2nq)^j for lam = p/q.
    p, q = lam.numerator, lam.denominator
    return MoranRow(2 * n * q, 2, n * q, p, 2 * q)


_FAMILY_FIELDS = {
    "proportional": (Proportional,  # children (1 - alpha)/2 of the parent
                     lambda alpha: MoranRow(2 * alpha.denominator, 2, alpha.denominator - alpha.numerator, 0, 1),
                     (("alpha", _json_rational, format_rational, parse_rational),)),
    "power": (Power, lambda n: _centred_removal_row(n, 1), (("n", _json_int, int, int),)),
    "digit": (DigitSet, lambda n, digits: MoranRow(n, len(digits), 1, 0, 1, digits),  # children 1/n
              (("n", _json_int, int, int),
               ("digits", _json_ints, list, lambda text: tuple(map(_read_int, text.split(",")))))),
    "lambda": (LambdaFamily, lambda lam: _centred_removal_row(3, lam),
               (("lambda", _json_rational, format_rational, parse_rational),)),
}
_KINDS = {cls: kind for kind, (cls, *_) in _FAMILY_FIELDS.items()}


def _kind(f: FamilySpec) -> str:
    if type(f) not in _KINDS:  # by exact type: an instance of a subclass is no family
        raise TypeError(f"unknown family spec: {f!r}")
    return _KINDS[type(f)]


def family_to_json(f: FamilySpec) -> dict:
    kind = _kind(f)
    fields = zip(_FAMILY_FIELDS[kind][2], f._fields())
    return {"family": kind, **{name: write(value) for (name, _, write, _), value in fields}}


def family_from_json(obj: object) -> FamilySpec:
    """The family a JSON object names. Exact values only: integers and "p/q"
    strings; floats, bools, lists, non-objects, missing fields and keys that
    are neither "family" nor a field of the kind raise ValueError."""
    kind = _json_shape(obj, "family JSON", ()).get("family")
    if type(kind) is not str or kind not in _FAMILY_FIELDS:
        raise ValueError(f"unknown family kind: {_echo(kind)}")
    cls, _, fields = _FAMILY_FIELDS[kind]
    names = tuple(name for name, *_ in fields)
    _json_shape(obj, "family JSON", names)
    if extra := [key for key in obj if key != "family" and key not in names]:
        raise ValueError(f"family JSON has a key {_echo(extra[0])} that family {kind!r} does not read")
    return cls(*(read(obj[name], name) for name, read, _, _ in fields))


def __getattr__(name: str):
    if name in ("OpenInterval", "IfsMaps", "iterate", "removed_by_generation", "ifs_step", "ifs_maps"):
        from . import sets
        return getattr(sets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
