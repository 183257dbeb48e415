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

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import ExtractParams, _check_kernel
from .grid import Raster, connected_components, dilate, opening, require_same_spec
from .hydro import WaterMask
from .terrain import TerrainSet

DIFF_NONE = 0
DIFF_WATER = 1
DIFF_MORPHOLOGY = 2
DIFF_PLANARITY = 3
DIFF_DILATION = 4


@dataclass
class CandidateSet:
    """Post-planarity candidates with per-component statistics; the arrays
    have count + 1 entries, index 0 (the background) unused and 0."""

    mask: Raster
    count: int
    cell_count: np.ndarray
    planarity: np.ndarray
    kept: np.ndarray


@dataclass
class ExtractResult:
    map2d: Raster
    map3d: Raster
    difference: Raster
    candidates: CandidateSet


def roughness_at(ndhm: Raster, k2: int, cells: np.ndarray) -> np.ndarray:
    """Distinct rounded-integer heights in the k2 window around each flat
    row-major cell of `cells`, as int32.

    Halves round away from zero; windows clip at the raster border.  A NaN
    or infinite height has no rounded value: every such cell of a window
    counts as one value together, distinct from every height.
    """
    k2 = _check_kernel(k2, "k2")
    heights = np.asarray(ndhm.values, np.float64)
    finite = np.isfinite(heights)
    if not finite.all():
        heights = np.where(finite, heights, -np.inf)
    del finite
    return _kernels.distinct_count(heights, k2, cells)


def planarity_filter(
    candidates: Raster,
    ndhm: Raster,
    k2: int = ExtractParams.k2,
    rt: int = ExtractParams.rt,
    dt: float = ExtractParams.dt,
) -> CandidateSet:
    """Keep components whose planar-cell share is at least dt.

    A cell is planar iff its k2 roughness is strictly below rt; a component
    is kept iff planar_cells / total_cells >= dt.  Roughness is computed
    only at the candidate cells, in row-major order.
    """
    require_same_spec(candidates, ndhm, "candidates and ndhm")
    cells = np.flatnonzero(candidates.values)
    planar = roughness_at(ndhm, k2, cells) < rt
    labels, count = connected_components(candidates, 8)
    lab = labels.values
    inside = lab.reshape(-1)[cells]
    del cells
    total = np.bincount(inside, minlength=count + 1)
    ratio = np.bincount(inside[planar], minlength=count + 1) / np.maximum(total, 1)
    kept = ratio >= dt
    kept[0] = False
    return CandidateSet(
        mask=candidates.with_values(kept[lab]),
        count=count,
        cell_count=total,
        planarity=ratio,
        kept=kept,
    )


def build_3d(
    heights: Raster, map2d: Raster, median_roof: int = ExtractParams.median_roof
) -> Raster:
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
    ndhm = terrain.ndhm
    # Each filter keeps a subset of its input, so the code of a removed
    # raw cell is 1 plus the number of filters it passed: the number of
    # the masks raw, after water and after opening that hold it.
    kept = ndhm.values >= params.ht
    diff = kept.astype(np.uint8)
    if water is not None:
        require_same_spec(ndhm, water.mask, "candidates and water mask")
        kept &= ~water.mask.values
    diff += kept
    after_open = opening(ndhm.with_values(kept), params.k1, params.kernel_shape)
    del kept
    diff += after_open.values
    cand = planarity_filter(after_open, ndhm, params.k2, params.rt, params.dt)
    del after_open
    map2d = dilate(cand.mask, params.k3, "square")
    source = ndhm if params.map3d_source == "ndhm" else terrain.dsm
    map3d = build_3d(source, map2d, params.median_roof)
    # map2d holds every kept candidate: its raw cells were not removed,
    # and the rest of it the dilation added.
    final = map2d.values
    diff[final] = (diff[final] == 0) * np.uint8(DIFF_DILATION)
    return ExtractResult(
        map2d=map2d,
        map3d=map3d,
        difference=ndhm.with_values(diff),
        candidates=cand,
    )
