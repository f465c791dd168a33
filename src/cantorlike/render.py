"""The text of construction stages, in every format: CSV and JSON rows, and SVG.

``stage_rows`` gives one stage as CSV or JSON rows, optionally with 15-digit
decimal columns, a block of rows at a time. ``render_svg`` draws the usual
iteration diagram: stage 0 on top, one row per stage, each surviving closed
interval a filled rectangle. Output is a pure function of the inputs, so
identical calls give byte-identical text.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache
from itertools import chain, repeat, starmap
from math import gcd
from operator import add, floordiv, itemgetter, truediv

from . import sets
from .exact import _echo
from .families import FamilySpec, _check_stage, _stage_halves

_SLICE_RECTS = 4096  # rect lines per write at most, as the CLI's row chunks

# A stage row: its ends in the cells {} that _end_plans writes, then with
# decimal x / denom (integer true division rounds correctly, as does
# rational_decimal). JSON rows are the text json.dumps gives for the dicts.
_ROWS = {
    ("csv", False): "{},{}",
    ("csv", True): "{},{},%.15g,%.15g",
    ("json", False): '{{"a": "{}", "b": "{}"}}',
    ("json", True): '{{"a": "{}", "b": "{}", "a_decimal": "%.15g", "b_decimal": "%.15g"}}',
}


# Each endpoint of a stage is x = a + p over denom, a the left end of a block
# of _stage_halves and p an inner end, and m = gcd(denom, *(each block's a))
# divides every a. With h = gcd(p, m), h divides x and denom, and x/h = p/h
# (mod m/h) with gcd(p/h, m/h) = 1, so x/h shares no prime with m/h. Hence
# gcd(x, denom) = h for every a whenever each prime of denom/h divides m/h:
# that is checked once per h, by stripping from denom/h what it shares with
# m/h until 1 is left or nothing is shared. Then the end's cell, made before
# any output, is "%d/" + str(denom // h); else (as for p = 0) it is "%d/%d".
def _end_plans(denom: int, inner: list, blocks: list, row: str, sep: str, decimal: bool):
    """block(a, i, j): the text of the block (a, i, j) of _stage_halves, one %
    of the template of its rows on columns made by map, no Python code per row."""
    m = gcd(denom, *(a for a, _, _ in blocks))
    known = {}

    def plan(p: int) -> tuple:
        h = gcd(p, m)
        if h not in known:
            rest, shared = denom // h, m // h
            while (t := gcd(rest, shared)) > 1:
                rest //= t
                shared = t * t  # exponents double: O(log) steps per h
            known[h] = (h, f"%d/{denom // h}") if rest == 1 else (0, "%d/%d")
        return known[h]

    hs, cells = zip(*map(plan, inner))

    @cache  # one layout per block shape: all intervals, and the cuts where blocks meet
    def layout(i: int, j: int) -> tuple:
        # The columns: the ends reduced, planned ones (h > 0) first, then the
        # f denominators of the others, then the decimals; take orders them.
        h, it = hs[2 * i:2 * j], iter(cells[2 * i:2 * j])
        n, f = len(h), h.count(0)
        order = sorted(range(n), key=lambda k: not h[k])
        at = {k: r for r, k in enumerate(order)}
        cols = [(at[k],) if h[k] else (at[k], at[k] + f) for k in range(n)]
        take = itemgetter(*chain.from_iterable(cols[k] + cols[k + 1] + (n + f + at[k], n + f + at[k + 1])
                                               [:2 * decimal] for k in range(0, n, 2)))
        return (sep.join(map(row.format, it, it)), [inner[2 * i + k] for k in order],
                [h[k] for k in order[:n - f]], take)

    def block(a: int, i: int, j: int) -> str:
        template, p, h, take = layout(i, j)
        x = list(map(add, repeat(a), p))
        g = list(map(gcd, x[len(h):], repeat(denom)))
        columns = [*map(floordiv, x, h + g), *map(floordiv, repeat(denom), g)]
        if decimal:
            columns += map(truediv, x, repeat(denom))
        return template % take(columns)

    return block


def stage_rows(family: FamilySpec, depth: int, fmt: str,
               decimal: bool) -> tuple[Iterator[str], str, str, str, int]:
    """Stage ``depth`` as text in ``fmt``, "csv" or "json": (the text of each
    block of _stage_halves, the separator, head and tail around them, rows
    per block), to be written head + sep.join(blocks) + tail. The stage's
    integer ends are built here, its rows only as the blocks are read.
    Raises as ``_stage_halves`` does, before any fold."""
    denom, inner, blocks = _stage_halves(family, depth)
    sep, head, tail = (", ", "[", "]\n") if fmt == "json" else ("\n", "", "\n")
    block = _end_plans(denom, inner, blocks, _ROWS[fmt, decimal], sep, decimal)
    return starmap(block, blocks), sep, head, tail, len(inner) // 2


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def render_svg(family: FamilySpec, depth: int, width_px: int = 800,
               row_height_px: int = 28, write: Callable[[str], object] | None = None) -> str | None:
    """Stages 0..depth as an SVG, width_px by (depth + 1) * row_height_px.
    With ``write``, the header, each row in slices of at most _SLICE_RECTS
    rect lines, and the closing tag go to it as they are made, and None is
    returned; without, the slices are joined and returned. Raises before
    any row is built: ValueError for a size under 1 px or a width too large
    for a float, and as ``iterate`` does for a negative depth or one over a cap."""
    if width_px <= 0 or row_height_px <= 0:
        raise ValueError("pixel dimensions must be positive")
    try:
        float(width_px)  # every x and width is a float times width_px
    except OverflowError:
        raise ValueError(f"width_px is too large for a float, got {_echo(width_px)}") from None
    # Checked once up front: the per-row iterate calls would otherwise build
    # every stage up to the cap before the first one over it fails.
    _check_stage(family, depth)
    parts = []
    emit = parts.append if write is None else write
    bar_h = max(row_height_px - 6, 1)
    height = (depth + 1) * row_height_px
    emit(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height}" '
         f'viewBox="0 0 {width_px} {height}">\n')
    for stage in range(depth + 1):
        row = sets.iterate(family, stage)
        denom, ends = row.denom, row.ends
        # Every block of a stage has one width, except where touching digit
        # blocks merged, so the rest of a rect is formatted once per distinct
        # b - a and only x once per rect. int / int is correctly rounded, so
        # both equal float(Fraction) * width_px; max(..., 1.0) keeps points visible.
        tails = {d: f'" y="{stage * row_height_px}" width="{_fmt(max(d / denom * width_px, 1.0))}" '
                    f'height="{bar_h}" fill="#1f2430"/>\n'
                 for d in {b - a for a, b in zip(ends[::2], ends[1::2])}}
        for i in range(0, len(ends), 2 * _SLICE_RECTS):
            it = iter(ends[i:i + 2 * _SLICE_RECTS])
            emit("".join([f'<rect x="{_fmt(a / denom * width_px)}{tails[b - a]}' for a, b in zip(it, it)]))
    emit("</svg>\n")
    return "".join(parts) if write is None else None
