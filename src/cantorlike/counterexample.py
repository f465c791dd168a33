"""The fat-Cantor Riemann-integrability counterexample.

Enumerates the complement of a fat construction (headline case: the Volterra
set, power n=4) as an ordered sequence of removed open intervals E_1, E_2, ...
and computes the exact L1 tails sum_{i>n} |E_i|. The indicator of the full
complement is discontinuous exactly on the limit set, so by the Lebesgue
criterion it is Riemann integrable iff ``limit_measure(f) == 0``; with a fat
family it is not.

All tail values are exact Fractions obtained symbolically (the total removed
measure ``1 - limit_measure(f)`` minus a finite prefix sum); no quadrature is
involved.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, chain, cycle, groupby, islice, repeat
from math import gcd
from operator import floordiv, mul, sub, truediv

from .families import DepthCapError, FamilySpec, _gaps, limit_measure
from .exact import _digit_limit, _echo

TAIL_TABLE_CAP = 1 << 27
"""Largest tail table, rows x bits of its widest cell, that tail_table and
tail_table_rows admit: the budget STAGE_SIZE_CAP gives a stage, so a table is
about as large as the largest stage listing. Power(4) and Lambda(1/2) to n = 30000
are about 2^19.8 and 2^19.5; to n = 10^6 about 2^25.3 and 2^25.0."""

_BLOCK = 4096  # rows per block of tail_table_rows
_ROW = "%d,%d/%d,%d/%d,%.15g\n"  # n, the sum and the tail reduced, the tail's decimal


def _generations(f: FamilySpec, n_max: int, total: Fraction) -> tuple[list[tuple[int, list, int, int]], int]:
    """The generations of _gaps that rows 1..n_max reach, each drawn once (O(generations)),
    and the bits of the widest cell of rows 0..n_max at most. A row of generation j sums N,
    the numerator before it, and some of its lengths over D_j, so g = gcd(D_j, N, *lengths)
    divides every sum's numerator: each generation is kept divided by g, as (D_j / g, its
    lengths / g, N / g, parents), and d = D_j / g and tq d / gcd(tp d - tq N / g, tq), tp/tq =
    total, bound every cell of the generation (sums and tails are at most 1). DepthCapError is
    raised as soon as rows x the bits of a bound pass TAIL_TABLE_CAP."""
    tp, tq = total.numerator, total.denominator
    gens, n, num, widest = [], 0, 0, tq.bit_length()  # row 0's tail is tp/tq
    for denom, s, lengths, parents in _gaps(f) if n_max > 0 else ():
        num *= s
        g = gcd(denom, num, *lengths)
        d, start = denom // g, num // g
        bits = max(d.bit_length(), (tq * d // gcd(tp * d - tq * start, tq)).bit_length())
        if (n_max + 1) * bits > TAIL_TABLE_CAP:
            raise DepthCapError(f"the tail table to n = {_echo(n_max, str)} exceeds the table size cap of "
                                f"{TAIL_TABLE_CAP} (rows x cell bits)")
        widest = max(widest, bits)
        gens.append((d, [x // g for x in lengths], start, parents))
        num += parents * sum(lengths)
        n += parents * len(lengths)
        if n >= n_max:
            break
    return gens, widest


def _pieces(gens: list, n_max: int) -> Iterator[tuple[int, int, list]]:
    """(n, denom, nums): rows n, n + 1, ... of 0..n_max, whose sums sum_{i <= n} |E_i| are
    num/denom for num in nums. Row 0 comes first, then each generation of _generations,
    cut at its end and at every multiple of _BLOCK rows; a piece's numerators are one
    accumulate of its lengths from the numerator before it. Past the last removal the
    sums stay put."""
    yield 0, 1, [0]
    n, num, denom = 1, 0, 1  # the next row, and the sum before it as num/denom
    for denom, lengths, num, parents in gens:
        stop, r = min(n + parents * len(lengths), n_max + 1), 0  # r: the next row's place in lengths
        while n < stop:
            k = min(stop, n - n % _BLOCK + _BLOCK) - n
            nums = list(accumulate(islice(cycle(lengths), r, r + k), initial=num))
            yield n, denom, nums[1:]
            n, num, r = n + k, nums[-1], (r + k) % len(lengths)
    while n <= n_max:  # a fixpoint: no further removals exist
        k = min(n_max + 1, n - n % _BLOCK + _BLOCK) - n
        yield n, denom, [num] * k
        n += k


def tail_measure(f: FamilySpec, n: int) -> Fraction:
    """Exact value of sum_{i > n} |E_i|, the L1 distance between the
    indicator of the first n removed intervals and the indicator of the
    whole complement.

    Costs O(generations), not O(n): generation j removes ``parents`` copies of
    one parent's gaps, so its whole contribution is parents * sum(lengths),
    and only the last generation reached is cut short.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {_echo(n, str)}")
    num, denom = 0, 1
    for denom, s, lengths, parents in _gaps(f) if n else ():  # n = 0 draws no step
        whole, part = divmod(min(n, parents * len(lengths)), len(lengths))
        num = num * s + whole * sum(lengths) + sum(lengths[:part])
        n -= whole * len(lengths) + part
        if not n:
            break  # the next generation is not drawn
    return 1 - limit_measure(f) - Fraction(num, denom)


def tail_table(f: FamilySpec, n_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """Rows (n, sum_removed, tail) for n = 0..n_max, all exact."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {_echo(n_max, str)}")
    total = 1 - limit_measure(f)
    rows = []
    gens, _ = _generations(f, n_max, total)
    for start, denom, nums in _pieces(gens, n_max):
        for n, num in enumerate(nums, start):
            acc = Fraction(num, denom)
            rows.append((n, acc, total - acc))
    return rows


def tail_table_rows(f: FamilySpec, n_max: int) -> Iterator[str]:
    """The tail table as CSV text in pieces whose join is the table: the header
    line, then the rows in blocks of _BLOCK lines (row 0 in the first), each
    piece ending in a line end, so a writer holds one block at a time. A block's
    rows are made from columns, one map per column over each piece of _pieces:
    each p/q cell is reduced by one gcd, and the decimal column is the integer
    true division num / den, which is correctly rounded and so equals
    float(Fraction); then one % of _ROW per row.

    Before the header, the generations that rows 1..n_max reach are read
    (_generations): a table over TAIL_TABLE_CAP raises DepthCapError, and one
    whose cell bound passes the digit limit has its reduced denominators
    checked, so a cell that cannot be printed raises the interpreter's
    ValueError before any row goes out."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {_echo(n_max, str)}")
    total = 1 - limit_measure(f)
    tp, tq = total.numerator, total.denominator
    gens, bits = _generations(f, n_max, total)

    def columns(n: int, denom: int, nums: list) -> tuple:
        g = list(map(gcd, nums, repeat(denom)))
        tails, tail_den = list(map(sub, repeat(tp * denom), map(mul, repeat(tq), nums))), tq * denom
        h = list(map(gcd, tails, repeat(tail_den)))
        return (range(n, n + len(nums)), map(floordiv, nums, g), map(floordiv, repeat(denom), g),
                map(floordiv, tails, h), map(floordiv, repeat(tail_den), h), map(truediv, tails, repeat(tail_den)))

    if (limit := _digit_limit()) and bits >= (top := 10**limit).bit_length():  # else every cell is under top
        for n, denom, nums in _pieces(gens, n_max):
            if tq * denom >= top:  # else no cell of the piece can pass the limit
                _, _, dens, _, tail_dens, _ = columns(n, denom, nums)
                if (den := max(chain(dens, tail_dens))) >= top:
                    str(den)  # the refusal that writing the row would meet
    yield "n,sum_removed,tail,tail_decimal\n"
    for _, pieces in groupby(_pieces(gens, n_max), lambda piece: piece[0] // _BLOCK):
        yield "".join(map(_ROW.__mod__, chain.from_iterable(zip(*columns(*piece)) for piece in pieces)))


def tail_table_csv(f: FamilySpec, n_max: int) -> str:
    """The tail table as one CSV string: the join of the pieces of tail_table_rows."""
    return "".join(tail_table_rows(f, n_max))
