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
from .grid import Raster, _check_kernel, _check_positive, component_sizes
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


def _window_extent(n: int, radius: int) -> np.ndarray:
    """Length of the centered 2r+1 window at each of n positions, clipped
    to [0, n)."""
    i = np.arange(n)
    return np.minimum(i + radius + 1, n) - np.maximum(i - radius, 0)


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the centered (2r+1)^2 window, clipped at the borders: along
    each axis in turn, the difference of two prefix sums.  The prefix sums
    and the sums take turns in two int64 grids, the second of which is
    returned."""
    prefix = np.empty(arr.shape, np.int64)
    out = arr.astype(np.int64)
    for axis in (0, 1):
        np.cumsum(out, axis, out=prefix)
        p, o = np.moveaxis(prefix, axis, 0), np.moveaxis(out, axis, 0)
        n = p.shape[0]
        # cell i sums prefix[min(i + r, n - 1)] - prefix[i - r - 1]
        o[:max(n - radius, 0)] = p[radius:]
        o[max(n - radius, 0):] = p[n - 1]
        o[radius + 1:] -= p[:max(n - radius - 1, 0)]
    return out


def occupied_cell_count(counts: Raster, window: int = WaterParams.window) -> Raster:
    """Occupied-cell tally of a point-count raster over the centered
    window, clipped at borders."""
    radius = _check_kernel(window, "window") // 2
    return counts.with_values(_box_sum(counts.values > 0, radius))


def window_cell_count(counts: Raster, window: int = WaterParams.window) -> Raster:
    """In-bounds cell total of the centered window (smaller near borders):
    the product of its clipped row and column extents."""
    radius = _check_kernel(window, "window") // 2
    h, w = counts.values.shape
    return counts.with_values(np.outer(_window_extent(h, radius), _window_extent(w, radius)))


def classify_water(
    counts: Raster,
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
    occ = counts.values > 0
    occupied = int(np.count_nonzero(occ))
    if occupied == 0:
        raise DegenerateOccupancy("no occupied cell; occupancy fraction is 0")
    if occupied == occ.size:
        log.warning("every cell is occupied (p = 1); no water detectable")
        return counts.with_values(np.zeros(occ.shape, bool))
    p = occupied / occ.size
    del occ
    got = occupied_cell_count(counts, window).values
    # n is the product of the window's clipped row and column extents (as
    # in window_cell_count), so the threshold is one row of values per run
    # of rows of equal extent and no grid of n is made.
    h, w = got.shape
    rows_n, cols_n = _window_extent(h, window // 2), _window_extent(w, window // 2)
    water = np.empty(got.shape, bool)
    cuts = [0, *(np.flatnonzero(np.diff(rows_n)) + 1).tolist(), h]
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = (rows_n[a] * cols_n).astype(np.float64)
        water[a:b] = got[a:b] <= n * p - sigma_k * np.sqrt(n * p * (1.0 - p))
    return counts.with_values(water)


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
    return WaterMask(dilate(kept, k))


def detect_water(counts: Raster, params: WaterParams = WaterParams()) -> WaterMask:
    """classify_water then filter_and_buffer under one set of parameters."""
    flagged = classify_water(counts, params.window, params.sigma_k)
    return filter_and_buffer(flagged, params)
