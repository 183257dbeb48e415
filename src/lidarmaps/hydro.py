"""Water masking from return occupancy.

Open water absorbs the laser pulse, so water shows up as patches of cells
with no returns.  Under a binomial model where each cell is occupied
independently with the grid-wide probability p, a window whose occupied
count falls sigma_k standard deviations below the expectation n*p is
flagged.  Small flagged bodies are discarded and the survivors are grown
by a Chebyshev buffer to blank out unreliable shoreline returns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOccupancy
from .grid import OccupancyCount, Raster, _check_kernel, connected_components, dilate

DEFAULT_WINDOW = 9
DEFAULT_SIGMA_K = 2.0
DEFAULT_MIN_AREA = 1000.0
DEFAULT_BUFFER = 5.0


@dataclass(frozen=True)
class WaterParams:
    window: int = DEFAULT_WINDOW
    sigma_k: float = DEFAULT_SIGMA_K
    min_area: float = DEFAULT_MIN_AREA  # m^2
    buffer: float = DEFAULT_BUFFER  # m


@dataclass
class WaterMask:
    mask: Raster
    params: WaterParams


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the centered (2r+1)^2 window, clipped at the borders."""
    h, w = arr.shape
    integral = np.zeros((h + 1, w + 1), np.int64)
    integral[1:, 1:] = arr.cumsum(0, dtype=np.int64).cumsum(1)
    r0 = np.clip(np.arange(h) - radius, 0, h)
    r1 = np.clip(np.arange(h) + radius + 1, 0, h)
    c0 = np.clip(np.arange(w) - radius, 0, w)
    c1 = np.clip(np.arange(w) + radius + 1, 0, w)
    return (
        integral[r1[:, None], c1[None, :]]
        - integral[r0[:, None], c1[None, :]]
        - integral[r1[:, None], c0[None, :]]
        + integral[r0[:, None], c0[None, :]]
    )


def occupied_cell_count(counts: OccupancyCount, window: int = DEFAULT_WINDOW) -> Raster:
    """Occupied-cell tally over the centered window, clipped at borders."""
    radius = _check_kernel(window, "window") // 2
    occ = (counts.counts.values > 0).astype(np.int64)
    return counts.counts.with_values(_box_sum(occ, radius))


def window_cell_count(counts: OccupancyCount, window: int = DEFAULT_WINDOW) -> Raster:
    """In-bounds cell total of the centered window (smaller near borders)."""
    radius = _check_kernel(window, "window") // 2
    ones = np.ones(counts.counts.values.shape, np.int64)
    return counts.counts.with_values(_box_sum(ones, radius))


def classify_water(
    counts: OccupancyCount,
    window: int = DEFAULT_WINDOW,
    sigma_k: float = DEFAULT_SIGMA_K,
) -> Raster:
    """Flag cells whose window is improbably empty under the binomial model.

    With p the grid-wide occupied fraction and n the in-bounds window size,
    a cell is water iff occupied_count <= n*p - sigma_k*sqrt(n*p*(1-p)).
    p == 0 leaves the model undefined (DegenerateOccupancy); p == 1 cannot
    flag anything and returns an empty mask with a warning.
    """
    _check_kernel(window, "window")
    occ = counts.counts.values > 0
    occupied = int(np.count_nonzero(occ))
    if occupied == 0:
        raise DegenerateOccupancy("no occupied cell; occupancy fraction is 0")
    if occupied == occ.size:
        warnings.warn(
            "every cell is occupied (p = 1); no water detectable", stacklevel=2
        )
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
        sizes = np.bincount(labels.values.reshape(-1), minlength=count + 1)
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
