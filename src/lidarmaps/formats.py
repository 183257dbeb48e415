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


def write_ascii_grid(path: str, raster: Raster) -> None:
    """Serialize to the plain-text grid format, north row first.

    Float cells print as %.3f with NaN replaced by the nodata sentinel;
    boolean cells print as 0/1; integer cells print as-is.  Line endings
    are "\\n" regardless of platform.
    """
    spec = raster.spec
    lines = [
        f"ncols {spec.width}",
        f"nrows {spec.height}",
        f"xllcorner {_fmt_num(spec.origin_x)}",
        f"yllcorner {_fmt_num(spec.origin_y)}",
        f"cellsize {_fmt_num(spec.gsd)}",
        f"NODATA_value {_fmt_num(raster.nodata)}",
    ]
    vals = raster.values
    flipped = vals[::-1]
    if vals.dtype == bool:
        body = [" ".join(row) for row in np.where(flipped, "1", "0").tolist()]
    elif np.issubdtype(vals.dtype, np.integer):
        row_fmt = " ".join(["%d"] * spec.width)
        body = [row_fmt % tuple(row) for row in flipped.tolist()]
    else:
        # %.3f prints every NaN, signed or not, as "nan" and no other cell
        # contains it, so one replace per row writes the sentinel.
        row_fmt = " ".join(["%.3f"] * spec.width)
        sentinel = _fmt_num(raster.nodata)
        body = [(row_fmt % tuple(row)).replace("nan", sentinel) for row in flipped.tolist()]
    try:
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(lines + body))
            f.write("\n")
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
    if header["ncols"] != int(header["ncols"]) or header["nrows"] != int(header["nrows"]):
        raise MalformedHeader(f"{path}: ncols/nrows must be integers")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols <= 0 or nrows <= 0 or header["cellsize"] <= 0:
        raise MalformedHeader(f"{path}: non-positive grid dimensions")
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    flat: list[str] = []
    for line in lines[body_start:]:
        flat.extend(line.split())
    if len(flat) != ncols * nrows:
        raise ShapeMismatch(
            f"{path}: expected {ncols * nrows} cells, found {len(flat)}"
        )
    try:
        vals = np.array(flat, np.float64).reshape(nrows, ncols)
    except ValueError as exc:
        raise MalformedHeader(f"{path}: non-numeric cell data") from exc
    vals = vals[::-1].copy()
    vals[vals == nodata] = np.nan
    spec = GridSpec(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        gsd=header["cellsize"],
        width=ncols,
        height=nrows,
    )
    return Raster(spec, vals, nodata=nodata)
