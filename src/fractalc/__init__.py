"""Composition schedules of fractals and multifractals.

Define periodic alternations of IFS substages, compute the composite box
dimension (closed forms where they exist, the generalized Moran-product root
otherwise), materialize the geometry at finite stage, and cross-validate
against empirical box counting and incomplete-statistics normalization.

`import fractalc` loads no submodule: each public name, and each submodule as
an attribute (`fractalc.geometry`), is imported on first access (PEP 562), so
a command loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BoxCountReport": "boxcount",
    "estimate_dimension": "boxcount",
    "segment_census": "census",
    "SegmentSet": "geometry",
    "detect_overlap": "geometry",
    "export_csv": "geometry",
    "export_svg": "geometry",
    "iterate": "geometry",
    "total_length": "geometry",
    "stats_report": "incstats",
    "DimensionReport": "moran",
    "ScaleSpectrum": "moran",
    "UniformFractal": "moran",
    "binary_special_dimension": "moran",
    "component_dimension": "moran",
    "composite_dimension_uniform": "moran",
    "dimension": "moran",
    "dimension_bounds": "moran",
    "rational_limit_dimension": "moran",
    "solve_moran": "moran",
    "Angle": "parser",
    "PieceExpr": "parser",
    "ScheduleExpr": "parser",
    "ScheduleItem": "parser",
    "format": "parser",
    "parse": "parser",
    "CompositionSchedule": "schedule",
    "Generator": "schedule",
    "Piece": "schedule",
    "build_schedule": "schedule",
    "builtin_generator": "schedule",
    "content": "schedule",
    "koch_scale": "schedule",
    "schedule_from_text": "schedule",
}

_SUBMODULES = {*_EXPORTS.values(), "cli", "errors", "work"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `python -X importtime`
    __import__(f"{__name__}.{module}")
    submodule = sys.modules[f"{__name__}.{module}"]
    return submodule if module == name else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
