"""Water masking from return occupancy.

Open water absorbs the laser pulse, so water shows up as patches of cells
with no returns.  Under a binomial model where each cell is occupied
independently with the grid-wide probability p, a window whose occupied
count falls sigma_k standard deviations below the expectation n*p is
flagged.  Small flagged bodies are discarded and the survivors are grown
by a Chebyshev buffer to blank out unreliable shoreline returns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOccupancy
from .grid import OccupancyCount, Raster, _check_kernel, _check_positive, component_sizes
from .grid import connected_components, dilate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WaterParams:
    """Water settings, validated under their config keys (water_window, ...)."""

    window: int = 9
    sigma_k: float = 2.0
    min_area: float = 1000.0  # m^2
    buffer: float = 5.0  # m

    def __post_init__(self):
        _check_kernel(self.window, "water_window")
        _check_positive(self.sigma_k, "water_sigma_k")
        _check_positive(self.min_area, "water_min_area")
        _check_positive(self.buffer, "water_buffer", or_zero=True)


@dataclass
class WaterMask:
    mask: Raster
    params: WaterParams


def _window_bounds(n: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of the centered 2r+1 window at each of n positions,
    clipped to [0, n)."""
    i = np.arange(n)
    return np.maximum(i - radius, 0), np.minimum(i + radius + 1, n)


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the centered (2r+1)^2 window, clipped at the borders: along
    each axis in turn, the difference of two prefix sums."""
    for axis in (0, 1):
        prefix = np.insert(arr.cumsum(axis, dtype=np.int64), 0, 0, axis)
        lo, hi = _window_bounds(arr.shape[axis], radius)
        arr = prefix.take(hi, axis) - prefix.take(lo, axis)
    return arr


def occupied_cell_count(counts: OccupancyCount, window: int = WaterParams.window) -> Raster:
    """Occupied-cell tally over the centered window, clipped at borders."""
    radius = _check_kernel(window, "window") // 2
    return counts.counts.with_values(_box_sum(counts.counts.values > 0, radius))


def window_cell_count(counts: OccupancyCount, window: int = WaterParams.window) -> Raster:
    """In-bounds cell total of the centered window (smaller near borders):
    the product of its clipped row and column extents."""
    radius = _check_kernel(window, "window") // 2
    (r0, r1), (c0, c1) = (_window_bounds(n, radius) for n in counts.counts.values.shape)
    return counts.counts.with_values(np.outer(r1 - r0, c1 - c0))


def classify_water(
    counts: OccupancyCount,
    window: int = WaterParams.window,
    sigma_k: float = WaterParams.sigma_k,
) -> Raster:
    """Flag cells whose window is improbably empty under the binomial model.

    With p the grid-wide occupied fraction and n the in-bounds window size,
    a cell is water iff occupied_count <= n*p - sigma_k*sqrt(n*p*(1-p)).
    p == 0 leaves the model undefined (DegenerateOccupancy); p == 1 cannot
    flag anything and returns an empty mask, logging a warning.
    """
    _check_kernel(window, "window")
    occ = counts.counts.values > 0
    occupied = int(np.count_nonzero(occ))
    if occupied == 0:
        raise DegenerateOccupancy("no occupied cell; occupancy fraction is 0")
    if occupied == occ.size:
        log.warning("every cell is occupied (p = 1); no water detectable")
        return counts.counts.with_values(np.zeros(occ.shape, bool))
    p = occupied / occ.size
    n = window_cell_count(counts, window).values.astype(np.float64)
    got = occupied_cell_count(counts, window).values.astype(np.float64)
    threshold = n * p - sigma_k * np.sqrt(n * p * (1.0 - p))
    return counts.counts.with_values(got <= threshold)


def filter_and_buffer(water: Raster, params: WaterParams = WaterParams()) -> WaterMask:
    """Drop water bodies below the area floor, then buffer the survivors.

    Area is 8-connected component cell count times gsd^2; the buffer is a
    square dilation of 2*ceil(buffer/gsd)+1, i.e. a Chebyshev-metric grow.
    """
    gsd = water.spec.gsd
    labels, count = connected_components(water, 8)
    mask = np.zeros(water.values.shape, bool)
    if count:
        sizes = component_sizes(labels, count)
        keep = sizes * (gsd * gsd) >= params.min_area
        keep[0] = False
        mask = keep[labels.values]
    kept = water.with_values(mask)
    k = 2 * math.ceil(params.buffer / gsd) + 1
    return WaterMask(dilate(kept, k), params)


def detect_water(
    counts: OccupancyCount, params: WaterParams = WaterParams()
) -> WaterMask:
    """classify_water then filter_and_buffer under one set of parameters."""
    flagged = classify_water(counts, params.window, params.sigma_k)
    return filter_and_buffer(flagged, params)
