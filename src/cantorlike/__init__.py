"""Exact construction and analysis of Cantor-like set families."""

from .exact import (
    ClosedInterval,
    IntervalSet,
    format_rational,
    parse_rational,
)
from .families import (
    DEFAULT_DEPTH_CAP,
    ConstructionError,
    DepthCapError,
    DigitSet,
    FamilySpec,
    IfsMaps,
    LambdaFamily,
    LevelStats,
    OpenInterval,
    Power,
    Proportional,
    digit_form,
    family_from_json,
    family_to_json,
    ifs_maps,
    ifs_step,
    iterate,
    level_stats,
    removed_by_generation,
)
from .analysis import (
    CANTOR_TERNARY,
    DimensionReport,
    ExpansionRecord,
    base_expansion,
    cantor_function,
    dimension_estimates,
    limit_measure,
    measure_at_depth,
    member_at_depth,
    member_limit,
    membership_witness,
    similarity_dimension,
)
from .counterexample import tail_measure, tail_table
from .render import render_svg

__version__ = "0.1.0"
