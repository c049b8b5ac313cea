"""Composition schedules of fractals and multifractals.

Define periodic alternations of IFS substages, compute the composite box
dimension (closed forms where they exist, the generalized Moran-product root
otherwise), materialize the geometry at finite stage, and cross-validate
against empirical box counting and incomplete-statistics normalization.
"""

from .boxcount import BoxCountReport, estimate_dimension
from .geometry import (
    CompositionSchedule,
    Generator,
    Piece,
    SegmentSet,
    SvgStyle,
    build_schedule,
    builtin_generator,
    content,
    detect_overlap,
    export_csv,
    export_svg,
    iterate,
    koch_scale,
    schedule_from_text,
    segment_census,
    total_length,
)
from .incstats import (
    FactorizationReport,
    IncompleteDistribution,
    distribution,
    joint_factorization_check,
    stats_report,
)
from .moran import (
    DimensionReport,
    ScaleSpectrum,
    UniformFractal,
    binary_special_dimension,
    component_dimension,
    composite_dimension_uniform,
    dimension,
    dimension_bounds,
    rational_limit_dimension,
    single_dimension,
    solve_moran,
)
from .parser import Angle, PieceExpr, ScheduleExpr, ScheduleItem, format, parse

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "BoxCountReport",
    "CompositionSchedule",
    "DimensionReport",
    "FactorizationReport",
    "Generator",
    "IncompleteDistribution",
    "Piece",
    "PieceExpr",
    "ScaleSpectrum",
    "ScheduleExpr",
    "ScheduleItem",
    "SegmentSet",
    "SvgStyle",
    "UniformFractal",
    "binary_special_dimension",
    "build_schedule",
    "builtin_generator",
    "component_dimension",
    "composite_dimension_uniform",
    "content",
    "detect_overlap",
    "dimension",
    "dimension_bounds",
    "distribution",
    "estimate_dimension",
    "export_csv",
    "export_svg",
    "format",
    "iterate",
    "joint_factorization_check",
    "koch_scale",
    "parse",
    "rational_limit_dimension",
    "schedule_from_text",
    "segment_census",
    "single_dimension",
    "solve_moran",
    "stats_report",
    "total_length",
]
