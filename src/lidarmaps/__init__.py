"""Building maps from airborne LiDAR point clouds.

The pipeline grids a cloud to a fine surface model, derives terrain and
height-above-ground, masks water, filters building candidates by size and
planarity, and emits 2D/3D building rasters; the eval side scores such
maps against reference footprints.

Names load on first use (PEP 562): `import lidarmaps` imports no module
below it, so no numpy, until a name is read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name's home module.
_EXPORTS = {
    "config": (
        "ExtractParams", "OUTPUT_NAMES", "PipelineConfig", "WaterParams", "load_config",
        "parse_config", "serialize_config",
    ),
    "errors": (
        "BadKernel", "BadSignature", "ConfigError", "DegenerateOccupancy", "DegenerateScene",
        "EmptyCloud", "EmptyTruth", "GridTooLarge", "IoFailure", "LidarMapsError",
        "MalformedHeader", "NoGround", "NoPointsInGrid", "OpenRing", "ParseError",
        "SelfIntersection", "ShapeMismatch", "SpecMismatch", "Truncated",
        "UnsupportedPointFormat", "UnsupportedVersion",
    ),
    "evaluate": (
        "AREA_BANDS", "ConfusionMetrics", "EvalResult", "InstanceReport", "TileReport",
        "confusion", "load_geojson_polygons", "match_instances", "rasterize_polygons", "run_eval",
        "tiling_comparison",
    ),
    "extract": ("ExtractResult", "extract_buildings"),
    "formats": ("read_ascii_grid", "write_ascii_grid"),
    "grid": (
        "GridSpec", "Raster", "connected_components", "dilate", "erode", "grid_from_bounds",
        "interpolate_nearest", "opening", "rasterize_min", "rasterize_min_window",
    ),
    "hydro": ("WaterMask", "detect_water"),
    "ingest": ("PointCloud", "load_points", "read_las", "read_xyz_text"),
    "pipeline": ("PipelineResult", "Window", "plan_windows", "run_pipeline", "run_sweep"),
    "terrain": ("TerrainSet", "derive_terrain"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "using_numba"])


def using_numba() -> bool:
    """Report whether compiled kernels are in use: always False.

    Every kernel has a single numpy implementation; the function stays so
    that callers recording the kernel path keep working.
    """
    return False


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
