"""Exception types raised by the mapping pipeline.

Every failure the library raises derives from LidarMapsError, so callers
can fence off library failures with one except clause.  ConfigError
means the run was set up wrong (usage); it is also a ValueError, the
type a bad argument raises in Python.  The rest mean the input data
could not be processed.
"""


class LidarMapsError(Exception):
    """Base class for all lidarmaps failures."""


class ConfigError(LidarMapsError, ValueError):
    """Invalid parameter combination or unparseable configuration."""


# --- point ingest ---------------------------------------------------------


class BadSignature(LidarMapsError):
    """File does not start with the LASF magic bytes."""


class UnsupportedVersion(LidarMapsError):
    """LAS version outside the supported 1.1-1.4 range."""


class UnsupportedPointFormat(LidarMapsError):
    """LAS point record format outside 0-10 (compressed formats included)."""


class Truncated(LidarMapsError):
    """File ends before the declared header or point records do."""


class EmptyCloud(LidarMapsError):
    """No usable points after parsing and non-finite filtering."""


class ParseError(LidarMapsError):
    """Malformed text point record; message carries the line number."""


# --- gridding -------------------------------------------------------------


class NoPointsInGrid(LidarMapsError):
    """Rasterization produced no occupied cells."""


class GridTooLarge(LidarMapsError):
    """The grid has more cells than one call can map exactly."""


class BadKernel(ConfigError):
    """Window size is not a positive odd integer, or the kernel shape is
    unknown: a bad setting, so a ConfigError."""


class ShapeMismatch(LidarMapsError):
    """Array shape does not match the grid dimensions."""


class SpecMismatch(LidarMapsError):
    """Two rasters that must share a grid do not."""


# --- terrain --------------------------------------------------------------


class DegenerateScene(LidarMapsError):
    """Break-lines cover nearly the whole raster; no terrain derivable."""


class NoGround(LidarMapsError):
    """Object mask leaves no ground cell to interpolate from."""


# --- water ----------------------------------------------------------------


class DegenerateOccupancy(LidarMapsError):
    """Occupancy fraction is 0; the binomial water model is undefined."""


# --- formats and evaluation ----------------------------------------------


class MalformedHeader(LidarMapsError):
    """ASCII grid header is missing keys or has inconsistent dimensions."""


class IoFailure(LidarMapsError):
    """Underlying file could not be read or written."""


class OpenRing(LidarMapsError):
    """Polygon ring is not a closed ring of finite vertices: under four
    (x, y) rows, a first vertex != the last, or a NaN or infinite
    coordinate."""


class SelfIntersection(LidarMapsError):
    """Polygon ring intersects itself."""


class EmptyTruth(LidarMapsError):
    """Ground-truth layer contains no instances to match against."""
