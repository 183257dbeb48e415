"""ESRI ASCII grid reading and writing.

Writing is byte-deterministic: the same raster always serializes to the
same bytes, so outputs can be diffed across runs and platforms.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .errors import ConfigError, IoFailure, MalformedHeader, ShapeMismatch
from .grid import DEFAULT_NODATA, GridSpec, Raster

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_BLOCK_CELLS = 1 << 14


def _fmt_num(v: float) -> str:
    """Integral values print bare; others shortest-round-trip (no locale)."""
    if math.isfinite(v) and v == int(v):
        return str(int(v))
    return repr(float(v))


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending, from one np.sort."""
    ordered = np.sort(keys, axis=None)
    first = np.empty(ordered.size, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _cell_texts(vals: np.ndarray, sentinel: str) -> tuple[list[str], Callable]:
    """Return (texts, index_of): for any block of rows of vals, the text of
    its cell (i, j) is texts[index_of(block)[i, j]].

    Each distinct value is formatted once.  Booleans and integers index a
    table by value; floats, and integers whose range is wider than the
    grid has cells, find their value by np.searchsorted in the sorted
    distinct keys, so no full-size argsort or inverse index is made.
    Floats are keyed by their float64 bit patterns, so 0.0 and -0.0 keep
    their own text and every NaN gets the sentinel.
    """
    if vals.dtype == bool:
        return ["0", "1"], lambda block: block.astype(np.intp)
    if np.issubdtype(vals.dtype, np.integer):
        lo, hi = vals.min(), vals.max()
        if int(hi) - int(lo) < vals.size:
            # intp arithmetic wraps, so the offset is exact for any dtype.
            texts = [str(v) for v in range(int(lo), int(hi) + 1)]
            return texts, lambda block: np.subtract(block, lo, dtype=np.intp)
        distinct = _sorted_distinct(vals)
        return [str(v) for v in distinct.tolist()], lambda block: np.searchsorted(distinct, block)

    def bits(block):
        return np.asarray(block, np.float64).view(np.int64)

    distinct = _sorted_distinct(bits(vals))
    floats = distinct.view(np.float64).tolist()
    # %.3f prints every NaN, signed or not, as "nan" and no other value
    # contains it, so one replace writes the sentinel; neither a value nor
    # the sentinel contains a space, so the split gives one text per value.
    text = (" ".join(["%.3f"] * len(floats)) % tuple(floats)).replace("nan", sentinel)
    return text.split(" "), lambda block: np.searchsorted(distinct, bits(block))


def write_ascii_grid(path: str, raster: Raster) -> None:
    """Serialize to the plain-text grid format, north row first.

    Float cells print as %.3f with NaN replaced by the nodata sentinel;
    boolean cells print as 0/1; integer cells print as-is.  Line endings
    are "\\n" regardless of platform.  Each distinct value is formatted
    once and every cell takes its text by index, so formatting costs
    follow the distinct values, not the cells.  Rows are joined and
    written _BLOCK_CELLS cells at a time, so the text in memory is one
    block's, not the file's.
    """
    spec = raster.spec
    sentinel = _fmt_num(raster.nodata)
    header = (
        f"ncols {spec.width}\n"
        f"nrows {spec.height}\n"
        f"xllcorner {_fmt_num(spec.origin_x)}\n"
        f"yllcorner {_fmt_num(spec.origin_y)}\n"
        f"cellsize {_fmt_num(spec.gsd)}\n"
        f"NODATA_value {sentinel}\n"
    )
    vals = raster.values[::-1]
    texts, index_of = _cell_texts(vals, sentinel)
    # Each text carries the separator after it: a space, or a newline in
    # the last column, so a block is one join.
    table = np.array([t + " " for t in texts], object)
    rows = max(1, _BLOCK_CELLS // spec.width)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write(header)
            for r0 in range(0, spec.height, rows):
                index = index_of(vals[r0:r0 + rows])
                cells = table[index]
                cells[:, -1] = [texts[i] + "\n" for i in index[:, -1].tolist()]
                f.write("".join(cells.ravel().tolist()))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_ascii_grid(path: str) -> Raster:
    """Parse a grid file back into a Raster of float64 values.

    Header keys are case-insensitive; NODATA_value is optional and
    defaults to -9999.  The body is parsed by one np.fromstring as a flat
    run of whitespace-separated numbers, so its line wrapping is free.
    Cells equal to the sentinel come back as NaN.
    """
    header: dict[str, float] = {}
    try:
        with open(path, "r", encoding="ascii") as f:
            mark = 0
            for i, line in enumerate(iter(f.readline, ""), 1):
                parts = line.split()
                if len(parts) != 2 or parts[0].lower() not in _HEADER_KEYS + ("nodata_value",):
                    # Put the body's first line back: a join would copy the body.
                    f.seek(mark)
                    break
                try:
                    header[parts[0].lower()] = float(parts[1])
                except ValueError as exc:
                    raise MalformedHeader(f"{path}: bad header line {i}: {line.rstrip()!r}") from exc
                mark = f.tell()
            body = f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not ASCII text: {exc}") from exc
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MalformedHeader(f"{path}: missing header keys {missing}")
    # An integral ncols/nrows becomes an int; GridSpec rejects anything else.
    width, height = (int(v) if v.is_integer() else v for v in (header["ncols"], header["nrows"]))
    try:
        spec = GridSpec(header["xllcorner"], header["yllcorner"], header["cellsize"], width, height)
    except ConfigError as exc:
        raise MalformedHeader(f"{path}: bad grid header: {exc}") from exc
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    try:
        # numpy releases that only warn on a token they cannot parse would
        # return the cells before it; a blank body would read as one -1.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            vals = np.empty(0) if body.isspace() else np.fromstring(body, sep=" ")
    except (ValueError, DeprecationWarning) as exc:
        raise MalformedHeader(f"{path}: non-numeric cell data") from exc
    del body
    if vals.size != width * height:
        raise ShapeMismatch(f"{path}: expected {width * height} cells, found {vals.size}")
    vals = vals.reshape(height, width)[::-1].copy()
    vals[vals == nodata] = np.nan
    return Raster(spec, vals, nodata=nodata)
