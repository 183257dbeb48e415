"""Grid containers and raster primitives shared by all pipeline stages.

A GridSpec anchors a raster to the ground: origin is the lower-left corner,
cell (r, c) covers the half-open square
[origin_x + c*gsd, origin_x + (c+1)*gsd) x [origin_y + r*gsd, origin_y + (r+1)*gsd),
and a point on a shared edge belongs to the cell with the larger index.
Arrays are (height, width) with row 0 the southernmost row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .config import _check_count, _check_finite, _check_kernel, _check_positive, _check_shape_name
from .errors import ConfigError, GridTooLarge, NoPointsInGrid, ShapeMismatch, SpecMismatch

DEFAULT_NODATA = -9999.0


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a raster: lower-left origin, cell size, and dimensions.

    cell_of and cell_center are the one implementation of the cell rule;
    every stage maps between ground coordinates and cells through them.
    """

    origin_x: float
    origin_y: float
    gsd: float
    width: int
    height: int

    def __post_init__(self):
        _check_finite(self.origin_x, "origin_x")
        _check_finite(self.origin_y, "origin_y")
        _check_positive(self.gsd, "gsd")
        _check_count(self.width, "width")
        _check_count(self.height, "height")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def x_max(self) -> float:
        return self.origin_x + self.width * self.gsd

    @property
    def y_max(self) -> float:
        return self.origin_y + self.height * self.gsd

    def cell_center(self, row, col):
        """(x, y) of the centre of cell (row, col); scalars or arrays."""
        return (
            self.origin_x + (col + 0.5) * self.gsd,
            self.origin_y + (row + 0.5) * self.gsd,
        )

    def cell_of(self, x, y):
        """(row, col) as int64 of the cell holding (x, y); scalars or
        arrays, and the cell may fall outside the grid."""
        col = np.floor((x - self.origin_x) / self.gsd).astype(np.int64)
        row = np.floor((y - self.origin_y) / self.gsd).astype(np.int64)
        return row, col

    def subgrid(self, col0: int, row0: int, width: int, height: int) -> "GridSpec":
        """The width x height block of this grid whose lower-left cell is
        (row0, col0), anchored on the same cell edges."""
        return GridSpec(
            self.origin_x + col0 * self.gsd,
            self.origin_y + row0 * self.gsd,
            self.gsd,
            width,
            height,
        )


def grid_from_bounds(
    min_x: float, min_y: float, max_x: float, max_y: float, gsd: float
) -> GridSpec:
    """Smallest grid anchored at (min_x, min_y) containing both corners.

    A point exactly on the max edge still lands in the last cell.  An
    extent of no finite number of cells raises GridTooLarge.
    """
    _check_positive(gsd, "gsd")
    with np.errstate(over="ignore"):
        spans = ((max_x - min_x) / gsd, (max_y - min_y) / gsd)
    if not np.isfinite(spans).all():
        raise GridTooLarge(f"extent ({min_x}, {min_y}) to ({max_x}, {max_y}) is too large to grid")
    width, height = (int(np.floor(s)) + 1 for s in spans)
    return GridSpec(min_x, min_y, gsd, width, height)


@dataclass
class Raster:
    """A 2-D value grid bound to a GridSpec.

    values dtype decides the semantics: float64 for elevations (NaN marks
    nodata internally), bool for masks, integer for labels.
    """

    spec: GridSpec
    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.values.shape != self.spec.shape:
            raise ShapeMismatch(
                f"array shape {self.values.shape} does not match "
                f"grid {self.spec.shape}"
            )

    def with_values(self, values: np.ndarray) -> "Raster":
        return Raster(self.spec, values, self.nodata)


def require_same_spec(a: Raster, b: Raster, what: str = "rasters") -> None:
    if a.spec != b.spec:
        raise SpecMismatch(f"{what} are on different grids: {a.spec} vs {b.spec}")


# ---------------------------------------------------------------------------
# rasterization and void filling
# ---------------------------------------------------------------------------


def rasterize_min(points: np.ndarray, spec: GridSpec) -> tuple[Raster, Raster]:
    """Grid the cloud into a min-z raster and a bool occupancy raster.

    The lowest return per cell suppresses vegetation over penetrable canopy
    while solid surfaces keep their own elevation.  A cell is occupied
    when some point lowered its min-z below the +inf it starts at; an
    unoccupied cell comes back NaN in the min-z raster.  Points outside
    the grid are ignored.  This is rasterize_min_window over the whole grid.
    """
    return rasterize_min_window(points, spec, 0, 0, spec.width, spec.height)


def rasterize_min_window(
    points: np.ndarray, spec: GridSpec, col0: int, row0: int, width: int, height: int
) -> tuple[Raster, Raster]:
    """rasterize_min restricted to a cell window of a larger grid.

    Cell assignment uses the full grid's origin, so a point lands in the
    same global cell whether gridded whole or window by window; each
    window's grid is bit-identical to its block of a single-pass run.
    """
    return rasterize_min_clouds([points], spec, col0, row0, width, height)


def rasterize_min_clouds(
    clouds: Iterable[np.ndarray], spec: GridSpec, col0: int, row0: int, width: int, height: int
) -> tuple[Raster, Raster]:
    """rasterize_min_window of several (n, 3) point arrays as one cloud,
    without joining them: each is gridded _kernels._BLOCK points at a time
    straight into the window's min-z grid by one np.minimum.at, in input
    order, so the grids are those of one array of all the points, to the
    bit.  The arrays may come one at a time, as chunks of a file being
    read."""
    dsm = np.full((height, width), np.inf)
    for points in clouds:
        for s in range(0, len(points), _kernels._BLOCK):
            block = np.asarray(points[s:s + _kernels._BLOCK], np.float64)
            rows, cols = spec.cell_of(block[:, 0], block[:, 1])
            rows -= row0
            cols -= col0
            inside = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
            # The flat index row * width + col, built in place in rows.
            rows *= width
            rows += cols
            zs = block[:, 2]
            if not inside.all():
                rows, zs = rows[inside], zs[inside]
            np.minimum.at(dsm.reshape(-1), rows, zs)
    # A NaN z leaves its cell NaN, so occupied; a +inf z leaves it as if
    # no point fell there.
    void = dsm == np.inf
    if void.all():
        raise NoPointsInGrid("no point fell inside the window")
    sub = spec.subgrid(col0, row0, width, height)
    dsm[void] = np.nan
    occupied = np.logical_not(void, out=void)
    # np.minimum.at keeps the last of tied minima, so 0.0 and -0.0 would
    # take their sign from the point order; -0.0 + 0.0 is +0.0, all else
    # is kept.
    dsm += 0.0
    return Raster(sub, dsm), Raster(sub, occupied)


def interpolate_nearest(raster: Raster) -> Raster:
    """Fill every NaN cell with the value of its nearest valued cell.

    Distance is Euclidean between cell centers; among equidistant sources
    the one earliest in row-major order wins, so the result is unique.
    """
    valid = np.isfinite(raster.values)
    if not valid.any():
        raise NoPointsInGrid("cannot interpolate a raster with no valued cell")
    return raster.with_values(_kernels.nearest_fill(raster.values, valid))


# ---------------------------------------------------------------------------
# binary morphology
# ---------------------------------------------------------------------------


def _morph(mask: Raster, k: int, shape: str, op: np.ufunc) -> Raster:
    k = _check_kernel(k)
    square = _check_shape_name(shape) == "square"
    kernel = _kernels.morph_square if square else _kernels.morph_diamond
    return mask.with_values(kernel(np.ascontiguousarray(mask.values, bool), k // 2, op))


def erode(mask: Raster, k: int, shape: str = "square") -> Raster:
    """Binary erosion by an odd k x k square (or inscribed diamond).

    Cells outside the raster count as false, so shapes touching the border
    erode away.
    """
    return _morph(mask, k, shape, np.logical_and)


def dilate(mask: Raster, k: int, shape: str = "square") -> Raster:
    """Binary dilation by an odd k x k square (or inscribed diamond).

    The window clips at the border; outside cells contribute nothing.
    """
    return _morph(mask, k, shape, np.logical_or)


def opening(mask: Raster, k: int, shape: str = "square") -> Raster:
    """Erosion followed by dilation; removes blobs narrower than k cells."""
    return dilate(erode(mask, k, shape), k, shape)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def connected_components(mask: Raster, connectivity: int = 8) -> tuple[Raster, int]:
    """Label true regions 1..n in row-major first-encounter order."""
    if connectivity not in (4, 8):
        raise ConfigError(f"connectivity must be 4 or 8, got {connectivity}")
    labels, count = _kernels.label_components(np.asarray(mask.values, bool), connectivity == 8)
    return mask.with_values(labels), count


def component_sizes(labels: Raster, count: int) -> np.ndarray:
    """Cell count per label; index 0 holds the background count."""
    return np.bincount(labels.values.reshape(-1), minlength=count + 1)
