"""Building extraction from the normalized height model.

Cells at least `ht` above the terrain are building candidates.  Four
filters run in a fixed order: water cells are cut, an opening removes
blobs narrower than the k1 kernel, components whose planar-cell share
falls below `dt` are dropped (vegetation is rough, roofs are not), and a
k3 dilation grows the survivors back over the boundary cells that LiDAR
systematically underestimates.  A difference map records which stage
removed or added every cell relative to the raw candidates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError
from .grid import (
    Raster,
    _check_count,
    _check_kernel,
    _check_positive,
    _check_shape_name,
    component_sizes,
    connected_components,
    dilate,
    opening,
    require_same_spec,
)
from .hydro import WaterMask
from .terrain import TerrainSet

DIFF_NONE = 0
DIFF_WATER = 1
DIFF_MORPHOLOGY = 2
DIFF_PLANARITY = 3
DIFF_DILATION = 4


@dataclass(frozen=True)
class ExtractParams:
    """Extraction thresholds and kernel sizes (meters for ht, cells for k*)."""

    ht: float = 1.5
    k1: int = 7
    k2: int = 5
    rt: int = 4
    dt: float = 0.1
    k3: int = 5
    kernel_shape: str = "square"
    median_roof: int = 0  # 0 = off, else odd window size
    map3d_source: str = "ndhm"

    def __post_init__(self):
        for k in ("k1", "k2", "k3"):
            _check_kernel(getattr(self, k), k)
        _check_positive(self.ht, "ht")
        _check_count(self.rt, "rt")
        if not (isinstance(self.dt, numbers.Real) and 0.0 <= self.dt <= 1.0):
            raise ConfigError(f"dt must lie in [0, 1], got {self.dt!r}")
        _check_shape_name(self.kernel_shape)
        if self.median_roof != 0:
            _check_kernel(self.median_roof, "median_roof")
        if self.map3d_source not in ("ndhm", "dsm"):
            raise ConfigError(f"map3d_source must be ndhm or dsm, got {self.map3d_source!r}")


@dataclass
class CandidateSet:
    """Post-planarity candidates with per-component statistics."""

    mask: Raster
    labels: Raster
    count: int
    cell_count: np.ndarray  # [count + 1], index 0 unused
    planar_count: np.ndarray  # [count + 1], index 0 unused (always 0)
    planarity: np.ndarray
    kept: np.ndarray


@dataclass
class ExtractResult:
    map2d: Raster
    map3d: Raster
    difference: Raster
    candidates: CandidateSet


def threshold_candidates(ndhm: Raster, ht: float = 1.5) -> Raster:
    """Cells at least ht above the terrain."""
    return ndhm.with_values(ndhm.values >= ht)


def apply_water_mask(candidates: Raster, water: WaterMask) -> Raster:
    """Remove candidate cells inside the buffered water mask."""
    require_same_spec(candidates, water.mask, "candidates and water mask")
    return candidates.with_values(candidates.values & ~water.mask.values)


def morphological_filter(
    candidates: Raster, k1: int = 7, kernel_shape: str = "square"
) -> Raster:
    """Opening that erases candidate blobs narrower than k1 cells."""
    return opening(candidates, k1, kernel_shape)


def roughness_layer(
    ndhm: Raster, k2: int = 5, where: Raster | None = None
) -> Raster:
    """Distinct rounded-integer heights in the k2 window around each cell.

    Halves round away from zero; windows clip at the raster border.  A NaN
    or infinite height has no rounded value: every such cell of a window
    counts as one value together, distinct from every height.  With
    `where` (a boolean raster on the same grid) only its true cells are
    computed; every other cell holds 0, which means not computed.
    """
    k2 = _check_kernel(k2, "k2")
    heights = np.asarray(ndhm.values, np.float64)
    finite = np.isfinite(heights)
    if not finite.all():
        heights = np.where(finite, heights, -np.inf)
    del finite
    if where is None:
        cells = np.arange(heights.size)
    else:
        require_same_spec(ndhm, where, "ndhm and where")
        cells = np.flatnonzero(where.values)
    out = np.zeros(heights.shape, np.int32)
    out.reshape(-1)[cells] = _kernels.distinct_count(heights, k2, cells)
    return ndhm.with_values(out)


def planarity_filter(
    candidates: Raster, roughness: Raster, rt: int = 4, dt: float = 0.1
) -> CandidateSet:
    """Keep components whose planar-cell share is at least dt.

    A cell is planar iff its roughness is strictly below rt; a component
    is kept iff planar_cells / total_cells >= dt.  Roughness is read only
    at candidate cells, so it need not be computed anywhere else.
    """
    require_same_spec(candidates, roughness, "candidates and roughness")
    labels, count = connected_components(candidates, 8)
    lab = labels.values
    inside = lab > 0
    total = component_sizes(labels, count)
    planar = np.bincount(
        lab[inside][roughness.values[inside] < rt], minlength=count + 1
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total > 0, planar / np.maximum(total, 1), 0.0)
    kept = ratio >= dt
    kept[0] = False
    mask = kept[lab]
    return CandidateSet(
        mask=candidates.with_values(mask),
        labels=labels.with_values(np.where(mask, lab, 0)),
        count=count,
        cell_count=total,
        planar_count=planar,
        planarity=ratio,
        kept=kept,
    )


def refine_boundary(mask: Raster, k3: int = 5) -> Raster:
    """Square dilation recovering the underestimated building boundary."""
    return dilate(mask, k3, "square")


def build_3d(heights: Raster, map2d: Raster, median_roof: int = 0) -> Raster:
    """Height map restricted to building cells, optionally median-smoothed.

    The median window sees building cells only, so roof heights never bleed
    across the footprint boundary.
    """
    require_same_spec(heights, map2d, "heights and map2d")
    mask = map2d.values.astype(bool)
    if median_roof:
        _check_kernel(median_roof, "median_roof")
        vals = _kernels.masked_median(np.asarray(heights.values, np.float64), mask, median_roof)
    else:
        vals = np.where(mask, heights.values, np.nan)
    return heights.with_values(vals)


def extract_buildings(
    terrain: TerrainSet,
    water: WaterMask | None = None,
    params: ExtractParams = ExtractParams(),
) -> ExtractResult:
    """Run the full candidate -> filter -> refine chain on one grid."""
    raw = threshold_candidates(terrain.ndhm, params.ht)
    after_water = apply_water_mask(raw, water) if water is not None else raw
    after_open = morphological_filter(after_water, params.k1, params.kernel_shape)
    rough = roughness_layer(terrain.ndhm, params.k2, where=after_open)
    cand = planarity_filter(after_open, rough, params.rt, params.dt)
    map2d = refine_boundary(cand.mask, params.k3)
    source = terrain.ndhm if params.map3d_source == "ndhm" else terrain.dsm
    map3d = build_3d(source, map2d, params.median_roof)

    diff = np.zeros(raw.values.shape, np.uint8)
    final = map2d.values
    removed = raw.values & ~final
    diff[removed & ~after_water.values] = DIFF_WATER
    diff[removed & after_water.values & ~after_open.values] = DIFF_MORPHOLOGY
    diff[removed & after_open.values & ~cand.mask.values] = DIFF_PLANARITY
    diff[final & ~raw.values] = DIFF_DILATION
    return ExtractResult(
        map2d=map2d,
        map3d=map3d,
        difference=raw.with_values(diff),
        candidates=cand,
    )
