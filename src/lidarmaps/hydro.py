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

from . import _kernels
from .config import WaterParams, _check_kernel
from .errors import DegenerateOccupancy
from .grid import Raster, component_sizes, connected_components, dilate

log = logging.getLogger(__name__)


@dataclass
class WaterMask:
    mask: Raster


def _window_extent(n: int, radius: int) -> np.ndarray:
    """Length of the centered 2r+1 window at each of n positions, clipped
    to [0, n)."""
    i = np.arange(n)
    return np.minimum(i + radius + 1, n) - np.maximum(i - radius, 0)


def occupied_cell_count(counts: Raster, window: int = WaterParams.window) -> Raster:
    """Occupied-cell tally of an occupancy raster (a cell is occupied
    where it is > 0) over the centered window, clipped at borders: the
    morphology's square kernel summing a 0/1 grid, where a cell past the
    border adds 0.  A tally never exceeds its window's in-bounds cells,
    so int32 holds it below 2^31 cells."""
    radius = _check_kernel(window, "window") // 2
    dtype = np.int32 if counts.values.size < 2**31 else np.int64
    occupied = (counts.values > 0).astype(dtype)
    return counts.with_values(_kernels.morph_square(occupied, radius, np.add))


def classify_water(
    counts: Raster,
    window: int = WaterParams.window,
    sigma_k: float = WaterParams.sigma_k,
) -> Raster:
    """Flag cells of an occupancy raster (occupied where > 0) whose
    window is improbably empty under the binomial model.

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
    # n is the product of the window's clipped row and column extents, so
    # the threshold is one row of values per run of rows of equal extent
    # and no grid of n is made.
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
    keep = component_sizes(labels, count) * (gsd * gsd) >= params.min_area
    keep[0] = False
    kept = water.with_values(keep[labels.values])
    k = 2 * math.ceil(params.buffer / gsd) + 1
    return WaterMask(dilate(kept, k))


def detect_water(counts: Raster, params: WaterParams = WaterParams()) -> WaterMask:
    """classify_water of an occupancy raster then filter_and_buffer under
    one set of parameters."""
    flagged = classify_water(counts, params.window, params.sigma_k)
    return filter_and_buffer(flagged, params)
