"""Deterministic SVG rendering of construction stages.

Mirrors the usual iteration diagrams: stage 0 on top, one row per stage,
each surviving closed interval drawn as a filled rectangle. Output is a
pure function of the inputs, so identical calls give byte-identical SVG.
"""

from __future__ import annotations

from collections.abc import Callable

from .exact import _echo
from .families import FamilySpec, _check_stage, iterate

_SLICE_RECTS = 4096  # rect lines per write at most, as the CLI's row chunks


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
        row = iterate(family, stage)
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
