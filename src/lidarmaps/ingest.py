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
from dataclasses import dataclass

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


def _drop_nonfinite(pts: np.ndarray, source: str) -> tuple[np.ndarray, int]:
    finite = np.isfinite(pts).all(axis=1)
    dropped = int(pts.shape[0] - np.count_nonzero(finite))
    if dropped:
        log.warning("dropped %d non-finite points from %s", dropped, source)
        pts = pts[finite]
    return pts, dropped


def _as_cloud(pts: np.ndarray, source: str) -> PointCloud:
    pts, dropped = _drop_nonfinite(pts, source)
    if pts.shape[0] == 0:
        raise EmptyCloud(f"no usable points in {source}")
    bounds = (
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )
    return PointCloud(pts, bounds, dropped)


def read_las(path: str) -> PointCloud:
    """Read an uncompressed LAS file (versions 1.1-1.4, formats 0-10).

    Horizontal bounds come from the points themselves, not from the header,
    so a stale header cannot skew the grid.
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            head = f.read(max(_HEADER_MIN, _EXT_COUNT_OFFSET + 8))
            info = parse_las_header(head)
            if info.point_count == 0:
                raise EmptyCloud(f"{path} declares zero points")
            end = info.data_offset + info.point_count * info.record_length
            if size < end:
                raise Truncated(
                    f"{path}: need {end} bytes for {info.point_count} records, "
                    f"file has {size}"
                )
            rec = [("x", "<i4"), ("y", "<i4"), ("z", "<i4")]
            if info.record_length > 12:
                rec.append(("skip", f"V{info.record_length - 12}"))
            rec = np.dtype(rec)
            f.seek(info.data_offset)
            pts = np.empty((info.point_count, 3), np.float64)
            # Fixed chunks of records, dequantized straight into pts.
            for s in range(0, info.point_count, _CHUNK_RECORDS):
                raw = np.fromfile(f, dtype=rec, count=min(_CHUNK_RECORDS, info.point_count - s))
                for axis, name in enumerate("xyz"):
                    out = pts[s:s + raw.size, axis]
                    np.multiply(raw[name], info.scale[axis], out=out)
                    out += info.offset[axis]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return _as_cloud(pts, path)


def read_xyz_text(path: str) -> PointCloud:
    """Read whitespace- or comma-separated x y z triples.

    '#' starts a comment; blank lines are skipped.  Any other malformed
    line raises ParseError naming the line number.
    """
    rows: list[tuple[float, float, float]] = []
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
                    rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyCloud(f"no data rows in {path}")
    return _as_cloud(np.array(rows, np.float64), path)


def write_xyz_text(points: np.ndarray, path: str) -> None:
    """Write points as text triples that read back to the same floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for x, y, z in points:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def load_points(path: str, fmt: str = "auto") -> PointCloud:
    """Read one point file, picking the reader from the extension.

    `fmt` forces 'las' or 'xyz' regardless of how the file is named.
    """
    if fmt == "auto":
        fmt = "las" if path.lower().endswith((".las", ".laz")) else "xyz"
    if fmt == "las":
        return read_las(path)
    if fmt == "xyz":
        return read_xyz_text(path)
    raise ConfigError(f"unknown point format {fmt!r}")


def merge_clouds(clouds: list[PointCloud]) -> PointCloud:
    """Concatenate clouds; bounds become the union."""
    if not clouds:
        raise EmptyCloud("no input clouds")
    if len(clouds) == 1:
        return clouds[0]
    pts = np.concatenate([c.points for c in clouds], axis=0)
    return PointCloud(
        pts,
        (
            min(c.bounds[0] for c in clouds),
            min(c.bounds[1] for c in clouds),
            max(c.bounds[2] for c in clouds),
            max(c.bounds[3] for c in clouds),
        ),
        dropped_nonfinite=sum(c.dropped_nonfinite for c in clouds),
    )
