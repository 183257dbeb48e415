"""Point ingestion against independently assembled byte buffers."""

from __future__ import annotations

import logging
import struct

import numpy as np
import pytest

from conftest import LAS_CORE_SIZES, build_las
from lidarmaps.errors import (
    BadSignature,
    EmptyCloud,
    LidarMapsError,
    ParseError,
    Truncated,
    UnsupportedPointFormat,
    UnsupportedVersion,
)
from lidarmaps.ingest import (
    load_points,
    merge_clouds,
    parse_las_header,
    read_las,
    read_xyz_text,
    write_xyz_text,
)

PTS = np.array([[1.25, 2.5, 50.0], [10.0, 10.0, 2.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# header parsing
# ---------------------------------------------------------------------------


def test_header_fields_round_trip():
    buf = build_las(PTS, version=(1, 2), point_format=1, scale=(0.01, 0.01, 0.01))
    info = parse_las_header(buf)
    assert info.version == (1, 2)
    assert info.point_format == 1
    assert info.record_length == 28
    assert info.point_count == 3
    assert info.scale == (0.01, 0.01, 0.01)
    assert info.offset == (0.0, 0.0, 0.0)
    assert info.header_size == 227
    assert info.data_offset == 227


@pytest.mark.parametrize("minor", [1, 2, 3, 4])
@pytest.mark.parametrize("fmt", [0, 1, 2, 3])
def test_supported_versions_and_formats(minor, fmt):
    buf = build_las(PTS, version=(1, minor), point_format=fmt)
    info = parse_las_header(buf)
    assert info.version == (1, minor)
    assert info.point_format == fmt
    assert info.record_length == LAS_CORE_SIZES[fmt]


@pytest.mark.parametrize("fmt", [4, 5, 6, 7, 8, 9, 10])
def test_point_formats_4_to_10_read(tmp_path, fmt):
    buf = build_las(PTS, version=(1, 3 if fmt < 6 else 4), point_format=fmt)
    info = parse_las_header(buf)
    assert (info.point_format, info.record_length) == (fmt, LAS_CORE_SIZES[fmt])
    path = _write(tmp_path, f"f{fmt}.las", buf)
    np.testing.assert_allclose(read_las(path).points, PTS, atol=1e-9)


def test_format_6_with_zero_legacy_count(tmp_path):
    buf = build_las(PTS, version=(1, 4), point_format=6, use_extended_count=True)
    assert struct.unpack_from("<I", buf, 107)[0] == 0  # legacy count
    assert struct.unpack_from("<Q", buf, 247)[0] == 3
    path = _write(tmp_path, "f6.las", buf)
    np.testing.assert_allclose(read_las(path).points, PTS, atol=1e-9)


def test_bad_signature():
    buf = b"LASX" + build_las(PTS)[4:]
    with pytest.raises(BadSignature):
        parse_las_header(buf)


def test_truncated_header():
    with pytest.raises(Truncated):
        parse_las_header(build_las(PTS)[:100])
    with pytest.raises(Truncated):
        parse_las_header(b"LA")


def test_unsupported_versions():
    with pytest.raises(UnsupportedVersion):
        parse_las_header(build_las(PTS, version=(2, 0)))
    with pytest.raises(UnsupportedVersion):
        parse_las_header(build_las(PTS, version=(1, 0), header_size=227))
    with pytest.raises(UnsupportedVersion):
        parse_las_header(build_las(PTS, version=(1, 5), header_size=227))


def test_unsupported_point_formats():
    with pytest.raises(UnsupportedPointFormat):
        parse_las_header(build_las(PTS, point_format=11, record_length=67))
    with pytest.raises(UnsupportedPointFormat):
        parse_las_header(build_las(PTS, point_format=0x80 | 1, record_length=28))


def test_record_length_below_core_size():
    with pytest.raises(Truncated):
        parse_las_header(build_las(PTS, point_format=3, record_length=20))
    for fmt, size in LAS_CORE_SIZES.items():
        with pytest.raises(Truncated):
            parse_las_header(build_las(PTS, point_format=fmt, record_length=size - 1))


def test_declared_header_size_too_small():
    buf = bytearray(build_las(PTS))
    struct.pack_into("<H", buf, 94, 100)  # header_size field
    with pytest.raises(Truncated):
        parse_las_header(bytes(buf))


def test_extended_count_read_for_1_4():
    buf = build_las(PTS, version=(1, 4), use_extended_count=True)
    info = parse_las_header(buf)
    assert info.point_count == 3


def test_legacy_count_still_wins_when_set():
    buf = build_las(PTS, version=(1, 4), use_extended_count=False)
    assert parse_las_header(buf).point_count == 3


# ---------------------------------------------------------------------------
# point reading
# ---------------------------------------------------------------------------


def _write(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_dequantization_example(tmp_path):
    path = _write(
        tmp_path, "a.las",
        build_las([[1.0, 2.0, 50.0]], scale=(0.01, 0.01, 0.01)),
    )
    cloud = read_las(path)
    np.testing.assert_allclose(cloud.points, [[1.0, 2.0, 50.0]], atol=1e-9)


def test_bounds_come_from_points(tmp_path):
    path = _write(tmp_path, "b.las", build_las([[0, 0, 1], [10, 10, 2]]))
    cloud = read_las(path)
    assert cloud.bounds == (0.0, 0.0, 10.0, 10.0)


def test_truncated_point_block(tmp_path):
    buf = build_las(PTS, point_count=3)
    path = _write(tmp_path, "c.las", buf[:-20])  # drop one 20-byte record
    with pytest.raises(Truncated):
        read_las(path)


def test_zero_points_is_empty(tmp_path):
    path = _write(tmp_path, "d.las", build_las(np.zeros((0, 3))))
    with pytest.raises(EmptyCloud):
        read_las(path)


def test_oversize_records_are_skipped(tmp_path):
    path = _write(tmp_path, "e.las", build_las(PTS, record_length=37))
    cloud = read_las(path)
    np.testing.assert_allclose(cloud.points, PTS, atol=1e-9)


def test_quantization_round_trip_within_one_step(tmp_path):
    rng = np.random.default_rng(30)
    pts = np.column_stack([
        rng.uniform(-1000, 1000, 500),
        rng.uniform(-1000, 1000, 500),
        rng.uniform(-100, 4000, 500),
    ])
    scale = (0.001, 0.001, 0.001)
    path = _write(tmp_path, "f.las", build_las(pts, scale=scale, offset=(100.0, -5.0, 0.0)))
    cloud = read_las(path)
    assert len(cloud) == 500
    for axis in range(3):
        assert np.abs(cloud.points[:, axis] - pts[:, axis]).max() <= scale[axis] / 2 + 1e-9


def test_bounds_are_tight(tmp_path):
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 100, (200, 3))
    path = _write(tmp_path, "g.las", build_las(pts))
    cloud = read_las(path)
    eps = 1e-6
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    assert ((x >= cloud.bounds[0]) & (x <= cloud.bounds[2])).all()
    assert ((y >= cloud.bounds[1]) & (y <= cloud.bounds[3])).all()
    assert (x < cloud.bounds[0] + eps).any() and (x > cloud.bounds[2] - eps).any()
    assert (y < cloud.bounds[1] + eps).any() and (y > cloud.bounds[3] - eps).any()


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_xyz_basic(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("1.0 2.0 3.0\n4 5 6\n")
    cloud = read_xyz_text(str(p))
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_xyz_comments_and_commas(tmp_path):
    p = tmp_path / "b.xyz"
    p.write_text("# comment\n1,2,3\n\n4, 5, 6  # trailing note\n")
    cloud = read_xyz_text(str(p))
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_xyz_arity_error_names_line(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("1.0 2.0\n")
    with pytest.raises(ParseError, match=":1:"):
        read_xyz_text(str(p))


def test_xyz_bad_token_names_line(tmp_path):
    p = tmp_path / "d.xyz"
    p.write_text("1 2 3\n4 5 6\n7 eight 9\n")
    with pytest.raises(ParseError, match=":3:"):
        read_xyz_text(str(p))


def test_xyz_empty_inputs(tmp_path):
    p = tmp_path / "e.xyz"
    p.write_text("")
    with pytest.raises(EmptyCloud):
        read_xyz_text(str(p))
    p.write_text("# only comments\n\n")
    with pytest.raises(EmptyCloud):
        read_xyz_text(str(p))


def test_xyz_write_read_identity(tmp_path):
    rng = np.random.default_rng(32)
    pts = rng.normal(0, 1000, (100, 3))
    p = tmp_path / "f.xyz"
    write_xyz_text(pts, str(p))
    cloud = read_xyz_text(str(p))
    np.testing.assert_array_equal(cloud.points, pts)


def test_nonfinite_rows_dropped_with_count(tmp_path, caplog):
    p = tmp_path / "g.xyz"
    p.write_text("1 2 3\nnan 5 6\n7 8 inf\n9 9 9\n")
    with caplog.at_level(logging.WARNING):
        cloud = read_xyz_text(str(p))
    assert len(cloud) == 2
    assert cloud.dropped_nonfinite == 2
    assert any("2 non-finite" in r.getMessage() for r in caplog.records)


def test_all_nonfinite_is_empty(tmp_path):
    p = tmp_path / "h.xyz"
    p.write_text("nan nan nan\n")
    with pytest.raises(EmptyCloud):
        read_xyz_text(str(p))


# ---------------------------------------------------------------------------
# dispatch and merging
# ---------------------------------------------------------------------------


def test_load_points_dispatch(tmp_path):
    las = _write(tmp_path, "a.las", build_las(PTS))
    xyz = tmp_path / "b.txt"
    write_xyz_text(PTS, str(xyz))
    np.testing.assert_allclose(load_points(las).points, PTS, atol=1e-9)
    np.testing.assert_array_equal(load_points(str(xyz)).points, PTS)
    # explicit override beats the extension
    misnamed = tmp_path / "points.las.txt"
    misnamed.write_bytes(build_las(PTS))
    np.testing.assert_allclose(
        load_points(str(misnamed), fmt="las").points, PTS, atol=1e-9
    )
    with pytest.raises(ValueError) as info:
        load_points(str(xyz), fmt="csv")
    assert isinstance(info.value, LidarMapsError)


def test_merge_clouds(tmp_path):
    a = read_xyz_text(_write_text(tmp_path, "a.xyz", "0 0 1\n1 1 2\n"))
    b = read_xyz_text(_write_text(tmp_path, "b.xyz", "5 5 3\n"))
    merged = merge_clouds([a, b])
    assert len(merged) == 3
    assert merged.bounds == (0.0, 0.0, 5.0, 5.0)
    np.testing.assert_array_equal(merged.points[:2], a.points)
    assert merge_clouds([a]) is a
    with pytest.raises(EmptyCloud):
        merge_clouds([])


def _write_text(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)
