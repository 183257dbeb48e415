"""ESRI ASCII grid reading and writing.

Writing is byte-deterministic: the same raster always serializes to the
same bytes, so outputs can be diffed across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IoFailure, MalformedHeader, ShapeMismatch
from .grid import DEFAULT_NODATA, GridSpec, Raster

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def _fmt_num(v: float) -> str:
    """Integral values print bare; others shortest-round-trip (no locale)."""
    if math.isfinite(v) and v == int(v):
        return str(int(v))
    return repr(float(v))


def _cell_texts(vals: np.ndarray, sentinel: str) -> tuple[list[str], np.ndarray]:
    """Return (texts, index): the text of cell (i, j) is texts[index[i, j]].

    index is a new intp array.  Each distinct value is formatted once.
    Booleans and integers index a table by value (integers fall back to
    np.unique when their range is wider than the grid has cells); floats
    are deduplicated on their float64 bit patterns, so 0.0 and -0.0 keep
    their own text and every NaN gets the sentinel.
    """
    if vals.dtype == bool:
        return ["0", "1"], vals.astype(np.intp)
    if np.issubdtype(vals.dtype, np.integer):
        lo, hi = vals.min(), vals.max()
        if int(hi) - int(lo) < vals.size:
            # intp arithmetic wraps, so the offset is exact for any dtype.
            texts = [str(v) for v in range(int(lo), int(hi) + 1)]
            return texts, np.subtract(vals, lo, dtype=np.intp)
        distinct, index = np.unique(vals, return_inverse=True)
        return [str(v) for v in distinct.tolist()], index.reshape(vals.shape)
    bits, index = np.unique(vals.astype(np.float64).view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    # %.3f prints every NaN, signed or not, as "nan" and no other value
    # contains it, so one replace writes the sentinel; neither a value nor
    # the sentinel contains a space, so the split gives one text per value.
    text = (" ".join(["%.3f"] * len(distinct)) % tuple(distinct)).replace("nan", sentinel)
    return text.split(" "), index.reshape(vals.shape)


def write_ascii_grid(path: str, raster: Raster) -> None:
    """Serialize to the plain-text grid format, north row first.

    Float cells print as %.3f with NaN replaced by the nodata sentinel;
    boolean cells print as 0/1; integer cells print as-is.  Line endings
    are "\\n" regardless of platform.  Each distinct value is formatted
    once and every cell takes its text by index, so formatting costs
    follow the distinct values, not the cells.
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
    texts, index = _cell_texts(raster.values[::-1], sentinel)
    # Each text carries the separator after it, so the whole body is one
    # join: a space, or a newline in the last column, which gets one table
    # entry per row.
    last = index[:, -1].tolist()
    table = np.array([t + " " for t in texts] + [texts[i] + "\n" for i in last], object)
    index[:, -1] = np.arange(len(texts), len(texts) + len(last))
    body = "".join(table[index].ravel().tolist())
    try:
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write(header)
            f.write(body)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_ascii_grid(path: str) -> Raster:
    """Parse a grid file back into a Raster of float64 values.

    Header keys are case-insensitive; NODATA_value is optional and
    defaults to -9999.  Cells equal to the sentinel come back as NaN.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    header: dict[str, float] = {}
    body_start = 0
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in _HEADER_KEYS + ("nodata_value",):
            try:
                header[parts[0].lower()] = float(parts[1])
            except ValueError as exc:
                raise MalformedHeader(f"{path}: bad header line {i + 1}: {line!r}") from exc
            body_start = i + 1
        else:
            break
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MalformedHeader(f"{path}: missing header keys {missing}")
    # An integral ncols/nrows becomes an int; GridSpec rejects anything else.
    width, height = (int(v) if v.is_integer() else v for v in (header["ncols"], header["nrows"]))
    try:
        spec = GridSpec(
            header["xllcorner"], header["yllcorner"], header["cellsize"], width, height
        )
    except ValueError as exc:
        raise MalformedHeader(f"{path}: bad grid header: {exc}") from exc
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    flat: list[str] = []
    for line in lines[body_start:]:
        flat.extend(line.split())
    if len(flat) != width * height:
        raise ShapeMismatch(
            f"{path}: expected {width * height} cells, found {len(flat)}"
        )
    try:
        vals = np.array(flat, np.float64).reshape(height, width)
    except ValueError as exc:
        raise MalformedHeader(f"{path}: non-numeric cell data") from exc
    vals = vals[::-1].copy()
    vals[vals == nodata] = np.nan
    return Raster(spec, vals, nodata=nodata)
