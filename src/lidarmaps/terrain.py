"""Terrain model derived from the gridded surface.

The surface is split along break-lines: cells whose elevation jumps by
more than a slope threshold to any 8-neighbor.  Connected regions of the
remaining smooth surface form the candidate grounds; the dominant region
(and every region reaching the raster border) is kept as ground, so
bridges and ramps that connect back to the terrain stay terrain.  Regions
sealed off by break-lines, and break-line cells that do not border the
ground, are objects: their elevations are replaced by the nearest ground
elevation, and the surface minus that terrain model is the height map the
extraction stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import PipelineConfig, _check_positive
from .errors import ConfigError, DegenerateScene, NoGround
from .grid import Raster, component_sizes, connected_components, require_same_spec

DEGENERATE_BREAKLINE_FRACTION = 0.95


@dataclass
class TerrainSet:
    """Surface, terrain, and their difference on one grid."""

    dsm: Raster
    dtm: Raster
    ndhm: Raster
    # Read by nothing; kept because the benchmark replay builds TerrainSet
    # from four positional arguments.
    occupancy: Raster | None = None


def _require_full(raster: Raster, name: str) -> np.ndarray:
    vals = raster.values
    if not np.isfinite(vals).all():
        raise ConfigError(f"{name} must be fully valued (interpolate first)")
    return vals


_ALL, _HEAD, _TAIL = slice(None), slice(None, -1), slice(1, None)
# (cell, neighbour) slice pairs for the E, N, NE and NW neighbours.
_NEIGHBOUR_PAIRS = (
    ((_ALL, _HEAD), (_ALL, _TAIL)),
    ((_HEAD, _ALL), (_TAIL, _ALL)),
    ((_HEAD, _HEAD), (_TAIL, _TAIL)),
    ((_HEAD, _TAIL), (_TAIL, _HEAD)),
)


def breakline_map(
    dsm: Raster, slope_threshold: float = PipelineConfig.slope_threshold
) -> Raster:
    """Flag cells whose elevation steps by more than the threshold.

    A cell is a break-line cell iff |dz| to at least one 8-neighbor exceeds
    `slope_threshold`; neighbors outside the raster do not count.
    """
    _check_positive(slope_threshold, "slope_threshold")
    vals = _require_full(dsm, "dsm")
    br = np.zeros(vals.shape, bool)
    # |a - b| is symmetric, so each of the four directions E, N, NE and NW
    # is taken once, on array slices, and a step marks both of its cells.
    for a, b in _NEIGHBOUR_PAIRS:
        step = vals[a] - vals[b]
        np.abs(step, out=step)
        step = step > slope_threshold
        br[a] |= step
        br[b] |= step
    return dsm.with_values(br)


def extract_objects(breaklines: Raster) -> Raster:
    """Classify the raster into ground (false) and object (true) cells.

    Smooth regions (4-connected components of the break-line complement)
    are ground when largest or touching the border, object otherwise.
    A break-line cell is object when it is 8-adjacent to an object region,
    or when no ground region is within its 8-neighborhood (the interior of
    a solid break-line mass, e.g. dense unpenetrated canopy); the rest of
    the break-line cells trace natural slopes and stay ground.
    """
    br = breaklines.values.astype(bool)
    n_break = int(np.count_nonzero(br))
    if n_break >= DEGENERATE_BREAKLINE_FRACTION * br.size:
        raise DegenerateScene(
            f"break-lines cover {n_break}/{br.size} cells; no terrain derivable"
        )
    labels, count = connected_components(breaklines.with_values(~br), 4)
    lab = labels.values
    sizes = component_sizes(labels, count)
    sizes[0] = 0
    is_ground = np.zeros(count + 1, bool)
    is_ground[sizes.argmax()] = True
    for edge in (lab[0, :], lab[-1, :], lab[:, 0], lab[:, -1]):
        is_ground[edge[edge > 0]] = True
    ground = is_ground[lab]
    object_regions = ~br & ~ground
    near_object = _kernels.morph_square(object_regions, 1, np.logical_or)
    near_ground = _kernels.morph_square(ground, 1, np.logical_or)
    objects = object_regions | (br & (near_object | ~near_ground))
    return breaklines.with_values(objects)


def fill_ground(dsm: Raster, objects: Raster) -> Raster:
    """Terrain model: surface on ground cells, nearest-ground fill elsewhere."""
    require_same_spec(dsm, objects, "dsm and object mask")
    vals = _require_full(dsm, "dsm")
    ground = ~objects.values.astype(bool)
    if not ground.any():
        raise NoGround("object mask covers the whole raster")
    return dsm.with_values(_kernels.nearest_fill(vals, ground))


def compute_ndhm(dsm: Raster, dtm: Raster) -> Raster:
    """Normalized height: surface minus terrain, clamped at zero."""
    require_same_spec(dsm, dtm, "dsm and dtm")
    diff = dsm.values - dtm.values
    # In place; NaN and -0.0 both become 0.0, as every non-positive value.
    diff[~(diff > 0)] = 0.0
    return dsm.with_values(diff)


def derive_terrain(
    dsm: Raster,
    slope_threshold: float = PipelineConfig.slope_threshold,
    external_dtm: Raster | None = None,
) -> TerrainSet:
    """Produce the TerrainSet, via break-lines or a supplied terrain model."""
    if external_dtm is not None:
        require_same_spec(dsm, external_dtm, "dsm and external dtm")
        dtm = external_dtm
    else:
        # The break-line mask is freed before the ground fill runs.
        dtm = fill_ground(dsm, extract_objects(breakline_map(dsm, slope_threshold)))
    return TerrainSet(dsm, dtm, compute_ndhm(dsm, dtm))
