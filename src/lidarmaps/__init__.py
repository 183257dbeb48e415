"""Building maps from airborne LiDAR point clouds.

The pipeline grids a cloud to a fine surface model, derives terrain and
height-above-ground, masks water, filters building candidates by size and
planarity, and emits 2D/3D building rasters; the eval side scores such
maps against reference footprints.
"""

from .config import OUTPUT_NAMES, PipelineConfig, load_config, parse_config, serialize_config
from .errors import (
    BadKernel,
    BadSignature,
    ConfigError,
    DegenerateOccupancy,
    DegenerateScene,
    EmptyCloud,
    EmptyTruth,
    GridTooLarge,
    IoFailure,
    LidarMapsError,
    MalformedHeader,
    NoGround,
    NoPointsInGrid,
    OpenRing,
    ParseError,
    SelfIntersection,
    ShapeMismatch,
    SpecMismatch,
    Truncated,
    UnsupportedPointFormat,
    UnsupportedVersion,
)
from .evaluate import (
    AREA_BANDS,
    ConfusionMetrics,
    InstanceReport,
    TileReport,
    confusion,
    load_geojson_polygons,
    match_instances,
    rasterize_polygons,
    tiling_comparison,
)
from .extract import ExtractParams, ExtractResult, extract_buildings
from .formats import read_ascii_grid, write_ascii_grid
from .grid import (
    GridSpec,
    Raster,
    connected_components,
    dilate,
    erode,
    grid_from_bounds,
    interpolate_nearest,
    opening,
    rasterize_min,
    rasterize_min_window,
)
from .hydro import WaterMask, WaterParams, detect_water
from .ingest import PointCloud, load_points, merge_clouds, read_las, read_xyz_text
from .pipeline import (
    EvalResult,
    PipelineResult,
    Window,
    plan_windows,
    run_eval,
    run_pipeline,
    run_sweep,
)
from .terrain import TerrainSet, derive_terrain

__version__ = "0.1.0"


def using_numba() -> bool:
    """Report whether compiled kernels are in use: always False.

    Every kernel has a single numpy implementation; the function stays so
    that callers recording the kernel path keep working.
    """
    return False


__all__ = [
    "AREA_BANDS",
    "BadKernel",
    "BadSignature",
    "ConfigError",
    "ConfusionMetrics",
    "DegenerateOccupancy",
    "DegenerateScene",
    "EmptyCloud",
    "EmptyTruth",
    "EvalResult",
    "ExtractParams",
    "ExtractResult",
    "GridSpec",
    "GridTooLarge",
    "InstanceReport",
    "IoFailure",
    "LidarMapsError",
    "MalformedHeader",
    "NoGround",
    "NoPointsInGrid",
    "OpenRing",
    "OUTPUT_NAMES",
    "ParseError",
    "PipelineConfig",
    "PipelineResult",
    "PointCloud",
    "Raster",
    "SelfIntersection",
    "ShapeMismatch",
    "SpecMismatch",
    "TerrainSet",
    "TileReport",
    "Truncated",
    "UnsupportedPointFormat",
    "UnsupportedVersion",
    "WaterMask",
    "WaterParams",
    "Window",
    "confusion",
    "connected_components",
    "derive_terrain",
    "detect_water",
    "dilate",
    "erode",
    "extract_buildings",
    "grid_from_bounds",
    "interpolate_nearest",
    "load_config",
    "load_geojson_polygons",
    "load_points",
    "match_instances",
    "merge_clouds",
    "opening",
    "parse_config",
    "plan_windows",
    "rasterize_min",
    "rasterize_min_window",
    "rasterize_polygons",
    "read_ascii_grid",
    "read_las",
    "read_xyz_text",
    "run_eval",
    "run_pipeline",
    "run_sweep",
    "serialize_config",
    "tiling_comparison",
    "using_numba",
    "write_ascii_grid",
]
