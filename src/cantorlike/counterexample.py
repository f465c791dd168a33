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
from math import gcd

from .families import DepthCapError, FamilySpec, _gaps, limit_measure
from .exact import _digit_limit, _echo

TAIL_TABLE_CAP = 1 << 27
"""Largest tail table, rows x bits of its widest cell, that tail_table and
tail_table_rows admit: the budget STAGE_SIZE_CAP gives a stage, so a table is
about as large as the largest stage listing. Power(4) and Lambda(1/2) to n = 30000
are about 2^19.8 and 2^19.5; to n = 10^6 about 2^25.3 and 2^25.0."""


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


def _prefix_sums(gens: list, n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, num, denom) with sum_{i <= n} |E_i| = num/denom, for n = 0..n_max.

    One pass over the generations of _generations: the sum is kept as an
    integer numerator over the reduced denominator of the current generation,
    from the numerator that generation starts at. Past the last removal the
    sums simply stay put.
    """
    n, num, denom = 0, 0, 1
    yield n, num, denom
    if n_max <= 0:
        return
    for denom, lengths, num, parents in gens:
        for _ in range(parents):
            for length in lengths:
                n += 1
                num += length
                yield n, num, denom
                if n == n_max:
                    return
    for n in range(n + 1, n_max + 1):  # a fixpoint: no further removals exist
        yield n, num, denom


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
    for n, num, denom in _prefix_sums(gens, n_max):
        acc = Fraction(num, denom)
        rows.append((n, acc, total - acc))
    return rows


def tail_table_rows(f: FamilySpec, n_max: int) -> Iterator[str]:
    """The tail table as CSV lines without line ends, header first, formatted
    from integers: each p/q cell is reduced by one gcd, and the decimal column
    is the integer true division num / den, which is correctly rounded and so
    equals float(Fraction). Rows are made one at a time, so a writer can emit
    them in bounded chunks.

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
    if (limit := _digit_limit()) and bits >= (top := 10**limit).bit_length():  # else every cell is under top
        for n, num, denom in _prefix_sums(gens, n_max):
            if (tail_den := tq * denom) >= top:  # else no cell of the row can pass the limit
                for den in (denom // gcd(num, denom), tail_den // gcd(tp * denom - tq * num, tail_den)):
                    if den >= top:
                        str(den)  # the refusal that writing the row would meet
    yield "n,sum_removed,tail,tail_decimal"
    for n, num, denom in _prefix_sums(gens, n_max):
        tail_num, tail_den = tp * denom - tq * num, tq * denom
        yield (f"{n},{num // (g := gcd(num, denom))}/{denom // g},"
               f"{tail_num // (h := gcd(tail_num, tail_den))}/{tail_den // h},"
               f"{tail_num / tail_den:.15g}")


def tail_table_csv(f: FamilySpec, n_max: int) -> str:
    """The tail table as one CSV string: the lines of tail_table_rows."""
    return "\n".join(tail_table_rows(f, n_max)) + "\n"
