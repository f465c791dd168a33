"""Exact construction and analysis of Cantor-like set families.

``analysis``, ``counterexample``, ``render`` and ``sets`` are registered in
``sys.modules`` and as attributes of the package at import, but each is
compiled and run only when code first reads one of its attributes, so a
command that does not use one does not pay for it: ``sets``, which holds
``IntervalSet`` and the set-valued API, runs only for a stage drawn as SVG or
a library call that builds a set. Their public names resolve through the
module ``__getattr__`` below.
"""

from .exact import format_rational, parse_rational
from .families import (
    DEFAULT_DEPTH_CAP,
    ConstructionError,
    DepthCapError,
    DigitSet,
    FamilySpec,
    LambdaFamily,
    LevelStats,
    Power,
    Proportional,
    digit_form,
    family_from_json,
    family_to_json,
    level_stats,
    limit_measure,
    measure_at_depth,
    member_at_depth,
)

_LAZY_NAMES = {
    "analysis": ("CANTOR_TERNARY", "DimensionReport", "ExpansionRecord", "base_expansion", "cantor_function",
                 "dimension_estimates", "member_limit", "membership_witness", "similarity_dimension"),
    "counterexample": ("tail_measure", "tail_table"),
    "render": ("render_svg",),
    "sets": ("ClosedInterval", "IfsMaps", "IntervalSet", "OpenInterval", "ifs_maps", "ifs_step", "iterate",
             "removed_by_generation"),
}


def _lazy(name: str):
    """The submodule ``name``, registered to load on first attribute read.
    Its file lies next to this one, so no finder is asked for it."""
    import sys
    from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

    spec = spec_from_file_location(f"{__name__}.{name}", f"{__path__[0]}/{name}.py")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


analysis, counterexample, render, sets = map(_lazy, _LAZY_NAMES)
_OWNER = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return [*globals(), *_OWNER]


__version__ = "0.1.0"
__all__ = sorted([*(name for name in globals() if name[0] != "_"), *_OWNER])
