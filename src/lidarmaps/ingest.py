"""Point cloud ingest: LAS 1.1-1.4 subset and plain XYZ text.

The LAS reader handles the uncompressed point formats 0-10: every one
starts with the raw x/y/z as three int32, which are dequantized as
raw * scale + offset; the rest of each record is skipped.  Layout
follows the public ASPRS LAS specification; everything is little-endian.
"""

from __future__ import annotations

import logging
import os
import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadSignature,
    ConfigError,
    EmptyCloud,
    IoFailure,
    ParseError,
    Truncated,
    UnsupportedPointFormat,
    UnsupportedVersion,
)

log = logging.getLogger(__name__)

_HEADER_MIN = 227
_HEADER_FMT = "<4sHH16sBB32s32sHHHIIBHI5I12d"
_EXT_COUNT_OFFSET = 247  # LAS 1.4 64-bit point count
_CHUNK_RECORDS = 1 << 14
# Minimum record length per point format (ASPRS LAS 1.4 R15).
_CORE_RECORD_SIZE = {
    0: 20, 1: 28, 2: 26, 3: 34, 4: 57, 5: 63, 6: 30, 7: 36, 8: 38, 9: 59, 10: 67,
}


@dataclass(frozen=True)
class LasHeaderInfo:
    """Fields of the LAS public header the reader acts on."""

    version: tuple[int, int]
    point_format: int
    record_length: int
    point_count: int
    data_offset: int
    header_size: int
    scale: tuple[float, float, float]
    offset: tuple[float, float, float]


@dataclass
class PointCloud:
    """Points as an (n, 3) float64 array plus horizontal bounds."""

    points: np.ndarray
    bounds: tuple[float, float, float, float]  # min_x, min_y, max_x, max_y
    dropped_nonfinite: int = 0

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def chunks(self) -> Iterator[np.ndarray]:
        """The points as one chunk, as LasScan.chunks gives a file's."""
        yield self.points


def parse_las_header(buf: bytes) -> LasHeaderInfo:
    """Decode the public header block from raw bytes.

    Needs at least the 227 bytes common to all 1.x versions; the 1.4
    extended point count is read when the header declares room for it.
    """
    if len(buf) < 4:
        raise Truncated(f"file has only {len(buf)} bytes")
    if buf[:4] != b"LASF":
        raise BadSignature(f"expected LASF magic, got {buf[:4]!r}")
    if len(buf) < _HEADER_MIN:
        raise Truncated(
            f"header needs {_HEADER_MIN} bytes, only {len(buf)} available"
        )
    fields = struct.unpack_from(_HEADER_FMT, buf, 0)
    major, minor = fields[4], fields[5]
    if major != 1 or not 1 <= minor <= 4:
        raise UnsupportedVersion(f"LAS {major}.{minor} is outside 1.1-1.4")
    header_size = fields[10]
    data_offset = fields[11]
    point_format = fields[13]
    record_length = fields[14]
    legacy_count = fields[15]
    if point_format & 0x80:
        raise UnsupportedPointFormat(
            f"format {point_format:#x} has the compression bit set"
        )
    if point_format not in _CORE_RECORD_SIZE:
        raise UnsupportedPointFormat(f"point format {point_format} (supported: 0-10)")
    if record_length < _CORE_RECORD_SIZE[point_format]:
        raise Truncated(
            f"record length {record_length} below the {point_format} core size"
        )
    if header_size < _HEADER_MIN:
        raise Truncated(f"declared header size {header_size} below {_HEADER_MIN}")
    if data_offset < header_size:
        raise Truncated(f"point data offset {data_offset} inside the {header_size}-byte header")
    count = legacy_count
    if minor == 4 and legacy_count == 0 and len(buf) >= _EXT_COUNT_OFFSET + 8:
        count = struct.unpack_from("<Q", buf, _EXT_COUNT_OFFSET)[0]
    return LasHeaderInfo(
        version=(major, minor),
        point_format=point_format,
        record_length=record_length,
        point_count=int(count),
        data_offset=data_offset,
        header_size=header_size,
        scale=fields[21:24],
        offset=fields[24:27],
    )


def _finite_rows(chunk: np.ndarray) -> np.ndarray:
    """The rows of an (n, 3) chunk with no non-finite coordinate.  The
    whole chunk is checked first, so a row mask is built only for a
    chunk that holds a non-finite value."""
    return chunk if np.isfinite(chunk).all() else chunk[np.isfinite(chunk).all(axis=1)]


def _fold_bounds(
    chunks: Iterable[np.ndarray], total: int, source: str
) -> tuple[tuple[float, float, float, float], int, int]:
    """(bounds, count, dropped) of finite (n, 3) chunks cut from `total`
    rows of `source`: logs the drop, and raises EmptyCloud when no row
    is left."""
    lo, hi, count = [np.inf, np.inf], [-np.inf, -np.inf], 0
    for chunk in chunks:
        if len(chunk):
            for axis in (0, 1):
                lo[axis] = min(lo[axis], chunk[:, axis].min())
                hi[axis] = max(hi[axis], chunk[:, axis].max())
        count += len(chunk)
    dropped = total - count
    if dropped:
        log.warning("dropped %d non-finite points from %s", dropped, source)
    if count == 0:
        raise EmptyCloud(f"no usable points in {source}")
    return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])), count, dropped


def _las_header(path: str) -> LasHeaderInfo:
    """The header of a LAS file that declares points and holds all of
    their records."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            info = parse_las_header(f.read(max(_HEADER_MIN, _EXT_COUNT_OFFSET + 8)))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if info.point_count == 0:
        raise EmptyCloud(f"{path} declares zero points")
    end = info.data_offset + info.point_count * info.record_length
    if size < end:
        raise Truncated(
            f"{path}: need {end} bytes for {info.point_count} records, "
            f"file has {size}"
        )
    return info


def _las_chunks(path: str, info: LasHeaderInfo) -> Iterator[np.ndarray]:
    """The records of `path`, _CHUNK_RECORDS at a time in file order,
    dequantized as (n, 3) float64 chunks into one buffer that every chunk
    reuses, so each chunk must be used before the next is read."""
    rec = [("x", "<i4"), ("y", "<i4"), ("z", "<i4")]
    if info.record_length > 12:
        rec.append(("skip", f"V{info.record_length - 12}"))
    rec = np.dtype(rec)
    out = np.empty((min(_CHUNK_RECORDS, info.point_count), 3), np.float64)
    try:
        with open(path, "rb") as f:
            f.seek(info.data_offset)
            for s in range(0, info.point_count, _CHUNK_RECORDS):
                raw = np.fromfile(f, dtype=rec, count=min(_CHUNK_RECORDS, info.point_count - s))
                chunk = out[:raw.size]
                for axis, name in enumerate("xyz"):
                    np.multiply(raw[name], info.scale[axis], out=chunk[:, axis])
                    chunk[:, axis] += info.offset[axis]
                yield chunk
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_las(path: str) -> PointCloud:
    """Read an uncompressed LAS file (versions 1.1-1.4, formats 0-10).

    The gather of scan_las: its chunks copied into one point array.
    Horizontal bounds come from the points themselves, not from the header,
    so a stale header cannot skew the grid.
    """
    scan = scan_las(path)
    pts = np.empty((len(scan), 3), np.float64)
    n = 0
    for chunk in scan.chunks():
        pts[n:n + len(chunk)] = chunk
        n += len(chunk)
    return PointCloud(pts, scan.bounds, scan.dropped_nonfinite)


@dataclass
class LasScan:
    """A LAS file's bounds and point counts, found by one pass over its
    records without holding them; chunks() reads the points again, and
    read_las gathers them into a PointCloud.
    """

    path: str
    info: LasHeaderInfo
    bounds: tuple[float, float, float, float]  # min_x, min_y, max_x, max_y
    count: int
    dropped_nonfinite: int

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterator[np.ndarray]:
        """The finite points in file order, one reused chunk at a time, and
        none past the scan's count; IoFailure at the end if the file no
        longer holds that many (it changed between the passes)."""
        n = 0
        for chunk in _las_chunks(self.path, self.info):
            chunk = _finite_rows(chunk)
            if n < self.count:
                yield chunk[:self.count - n]
            n += len(chunk)
        if n != self.count:
            raise IoFailure(
                f"{self.path} changed while it was read: {self.count} finite points, then {n}"
            )


def scan_las(path: str) -> LasScan:
    """The bounds, point count and drop warning of `path`, from one pass
    over its records."""
    info = _las_header(path)
    chunks = (_finite_rows(chunk) for chunk in _las_chunks(path, info))
    bounds, count, dropped = _fold_bounds(chunks, info.point_count, path)
    return LasScan(path, info, bounds, count, dropped)


def read_xyz_text(path: str) -> PointCloud:
    """Read whitespace- or comma-separated x y z triples.

    '#' starts a comment; blank lines are skipped.  Any other malformed
    line raises ParseError naming the line number.
    """
    # One flat run of doubles, x y z per point, viewed as (n, 3) at the end.
    values = array("d")
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                parts = text.replace(",", " ").split()
                if len(parts) != 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 values, got {len(parts)}"
                    )
                try:
                    values.extend([float(parts[0]), float(parts[1]), float(parts[2])])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not values:
        raise EmptyCloud(f"no data rows in {path}")
    pts = _finite_rows(np.frombuffer(values, np.float64).reshape(-1, 3))
    bounds, _, dropped = _fold_bounds((pts,), len(values) // 3, path)
    return PointCloud(pts, bounds, dropped)


def _point_format(path: str, fmt: str) -> str:
    if fmt == "auto":
        return "las" if path.lower().endswith((".las", ".laz")) else "xyz"
    if fmt not in ("las", "xyz"):
        raise ConfigError(f"unknown point format {fmt!r}")
    return fmt


def load_points(path: str, fmt: str = "auto") -> PointCloud:
    """Read one point file, picking the reader from the extension.

    `fmt` forces 'las' or 'xyz' regardless of how the file is named.
    """
    if _point_format(path, fmt) == "las":
        return read_las(path)
    return read_xyz_text(path)


def scan_points(path: str, fmt: str = "auto") -> PointCloud | LasScan:
    """load_points for gridding: a LAS file is scanned (scan_las), so its
    points are read again chunk by chunk as they are gridded, and never
    held whole; an XYZ file is read whole."""
    if _point_format(path, fmt) == "las":
        return scan_las(path)
    return read_xyz_text(path)
