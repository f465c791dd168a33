"""Deterministic SVG rendering of construction stages.

Mirrors the usual iteration diagrams: stage 0 on top, one row per stage,
each surviving closed interval drawn as a filled rectangle. Output is a
pure function of the inputs, so identical calls give byte-identical SVG.
"""

from __future__ import annotations

from .exact import _Frozen
from .families import FamilySpec, _check_stage, iterate


class RenderSpec(_Frozen):
    __slots__ = ("family", "depth", "width_px", "row_height_px")

    def __init__(self, family: FamilySpec, depth: int, width_px: int = 800,
                 row_height_px: int = 28) -> None:
        if width_px <= 0 or row_height_px <= 0:
            raise ValueError("pixel dimensions must be positive")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "width_px", width_px)
        object.__setattr__(self, "row_height_px", row_height_px)


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def render_svg(spec: RenderSpec) -> str:
    # Checked once up front: the per-row iterate calls would otherwise build
    # every stage up to the cap before the first one over it fails.
    _check_stage(spec.family, spec.depth)
    width = spec.width_px
    row_h = spec.row_height_px
    bar_h = max(row_h - 6, 1)
    height = (spec.depth + 1) * row_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for stage in range(spec.depth + 1):
        row = iterate(spec.family, stage)
        denom, pairs = row.denom, row.pairs
        # Every block of a stage has one width, except where touching digit
        # blocks merged, so the rest of a rect is formatted once per distinct
        # b - a and only x once per rect. int / int is correctly rounded, so
        # both equal float(Fraction) * width; max(..., 1.0) keeps points visible.
        tails = {d: f'" y="{stage * row_h}" width="{_fmt(max(d / denom * width, 1.0))}" '
                    f'height="{bar_h}" fill="#1f2430"/>' for d in {b - a for a, b in pairs}}
        parts.append("\n".join([f'<rect x="{_fmt(a / denom * width)}{tails[b - a]}'
                                for a, b in pairs]))
    parts.append("</svg>\n")
    return "\n".join(parts)
