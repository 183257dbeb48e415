"""Plain-text grid serialization: golden bytes, round trips, failure modes."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import raster_of
from lidarmaps import formats
from lidarmaps.errors import IoFailure, MalformedHeader, ShapeMismatch
from lidarmaps.formats import read_ascii_grid, write_ascii_grid

GOLDEN_1X1 = (
    "ncols 1\n"
    "nrows 1\n"
    "xllcorner 0\n"
    "yllcorner 0\n"
    "cellsize 0.5\n"
    "NODATA_value -9999\n"
    "5.000\n"
)

inf, nan = np.inf, np.nan
HALVES = np.array([0.0005, 1.0005, 2.0025, -0.0125, 23.4565, -7.0015, 0.0125, 0.0025])
# On a grid under _KEY_TABLE_MIN cells, 0 to TOP/1000 m spans all but the
# table's last three entries (NaN, inf, -inf): 2*TOP + 1 millimetre keys.
# -0.001 m adds one more key below them (-1; 0.0 is 0 and -0.0 is 1).
TOP = (formats._KEY_TABLE_MIN - 4) // 2


def _lattice() -> np.ndarray:
    """100,000 cells on a 0.001 m lattice, 10% NaN, over several blocks."""
    rng = np.random.default_rng(16)
    vals = np.round(rng.uniform(-20.0, 20.0, (250, 400)), 3)
    vals[rng.random(vals.shape) < 0.1] = nan
    return vals


# Float grids at the edges of the millimetre key path, each with whether
# the writer looks its cells up by key (True) or by binary search.
KEY_PATH_CASES = [
    ("half_thousandths", np.tile(HALVES.reshape(2, 4), (3, 2)), True),
    ("half_thousandths_and_ulps",
     np.concatenate([HALVES, np.nextafter(HALVES, inf), np.nextafter(HALVES, -inf)]).reshape(4, 6),
     False),
    ("signed_zeros", np.array([[0.0, -0.0, -0.0004], [0.0004, -0.0006, -0.0]]), True),
    # 0.0125, the median of 0.012 and 0.013, prints as 0.013 but has the
    # key of 0.012 (rint rounds 12.5 to even).
    ("median_beside_neighbour", np.array([[0.0125, 0.012, 0.013]]), False),
    ("key_range_at_bound", np.array([[0.0, TOP / 1000, nan, inf, -inf]]), True),
    ("key_range_over_bound", np.array([[-0.001, TOP / 1000, nan]]), False),
    ("overflowing_keys", np.array([[1e300, -1.5e308, 2.0], [nan, 1e300, 2.0]]), False),
    ("infinities_beside_nan", np.array([[inf, nan, -inf], [-nan, 1.5, -inf]]), True),
    ("float32", np.tile(np.array([[0.1, 2.0005, -0.0, nan], [1.2345, -inf, 30.5, 0.0]],
                                 np.float32), (3, 2)), True),
    ("lattice_100k", _lattice(), True),
]


def test_golden_single_cell(tmp_path):
    path = tmp_path / "one.asc"
    write_ascii_grid(str(path), raster_of(np.array([[5.0]])))
    assert path.read_bytes() == GOLDEN_1X1.encode("ascii")


def test_boolean_mask_writes_zero_one(tmp_path):
    path = tmp_path / "mask.asc"
    write_ascii_grid(str(path), raster_of(np.array([[True, False], [False, True]])))
    body = path.read_text().splitlines()[6:]
    assert body == ["0 1", "1 0"]  # top row first = north row

    # A uniform mask uses one entry of the 0/1 table.
    for value, text in ((True, "1"), (False, "0")):
        write_ascii_grid(str(path), raster_of(np.full((3, 4), value)))
        assert path.read_text().splitlines()[6:] == [" ".join([text] * 4)] * 3


def test_integer_labels_write_bare(tmp_path):
    path = tmp_path / "labels.asc"
    write_ascii_grid(str(path), raster_of(np.array([[0, 3], [12, 7]], np.int32)))
    body = path.read_text().splitlines()[6:]
    assert body == ["12 7", "0 3"]

    # Every uint8 and int8 value, and int64 values far apart (negatives,
    # 2**40), each written as f"{v}" in its cell.
    cases = [
        np.arange(256, dtype=np.uint8).reshape(16, 16)[:, ::-1],
        np.arange(-128, 128, dtype=np.int8).reshape(16, 16),
        np.array([[-7, 2**40, 0], [2**40, -2**40, -7]], np.int64),
        np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max]], np.int64),
    ]
    for vals in cases:
        write_ascii_grid(str(path), raster_of(vals))
        expected = [" ".join(f"{v}" for v in row) for row in vals[::-1].tolist()]
        assert path.read_text().splitlines()[6:] == expected, vals


def test_nan_written_as_sentinel(tmp_path):
    path = tmp_path / "gaps.asc"
    write_ascii_grid(str(path), raster_of(np.array([[1.25, np.nan]])))
    assert path.read_text().splitlines()[6] == "1.250 -9999"
    back = read_ascii_grid(str(path))
    assert back.values[0, 0] == pytest.approx(1.25)
    assert np.isnan(back.values[0, 1])

    # Each body row must equal the cell-by-cell formula, sentinel if NaN
    # else f"{v:.3f}", on signed zeros and NaNs, infinities, half-way
    # roundings, all-NaN rows, other nodata values and the key path's edges.
    cases = [
        ([[-0.0, -nan, inf, -inf], [0.0005, -0.0005, 0.0015, -2.5e6]], -9999.0, "-9999"),
        ([[nan, nan, nan], [1.0, -nan, 2.0]], -9999.0, "-9999"),
        ([[nan, -1.0, 0.25], [-nan, nan, -0.0]], -1.0, "-1"),
        ([[nan, 0.5, 3.14159]], 0.5, "0.5"),
        ([[nan, -nan, 7.0]], nan, "nan"),
        (np.array([[1.2345, nan], [-0.0, 65504.0]], np.float32), -9999.0, "-9999"),
        # Each distinct value is formatted once, so repeats of the values
        # that share or split a text must each get their own cell's text.
        (np.tile([[0.0, -0.0, nan, -nan, 1.0005, -0.0005],
                  [inf, -inf, 1.0005, 0.0, -0.0005, -0.0]], (6, 3)), -9999.0, "-9999"),
        (np.tile(np.array([[2.5, nan, -0.0], [0.1, 2.5, 0.0]], np.float32), (4, 5)),
         -9999.0, "-9999"),
        *[(values, -9999.0, "-9999") for _, values, _ in KEY_PATH_CASES],
    ]
    for values, nodata, sentinel in cases:
        vals = np.asarray(values)
        write_ascii_grid(str(path), raster_of(vals, nodata=nodata))
        expected = [
            " ".join(sentinel if np.isnan(v) else f"{v:.3f}" for v in row)
            for row in vals[::-1]
        ]
        assert path.read_text().splitlines()[6:] == expected, (values, nodata)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_row_blocks_write_the_cell_formula(tmp_path, monkeypatch, block):
    # Blocks of one row or less, of a few rows, and of the whole grid, for
    # the cells written; the distinct values are found in one block, in a
    # few, and in one row at a time.
    monkeypatch.setattr(formats, "_BLOCK_CELLS", block)
    monkeypatch.setattr(formats, "_DISTINCT_BLOCKS", block)
    rng = np.random.default_rng(block)
    floats = np.round(rng.uniform(-5.0, 5.0, (9, 7)), 1)
    floats[rng.random(floats.shape) < 0.2] = np.nan
    grids = [
        (floats, lambda v: "-9999" if np.isnan(v) else f"{v:.3f}"),
        (rng.integers(0, 4, (9, 7)).astype(np.uint8), str),
        (rng.integers(-2**40, 2**40, (9, 7)), str),
        (rng.random((9, 7)) < 0.5, lambda v: str(int(v))),
        # Texts that grow from block to block, so the byte table widens.
        (np.arange(63).reshape(9, 7) ** 3, str),
        (np.arange(63.0).reshape(9, 7) ** 4 * 1.5, lambda v: f"{v:.3f}"),
        *[(values, lambda v: "-9999" if np.isnan(v) else f"{v:.3f}")
          for _, values, _ in KEY_PATH_CASES],
    ]
    path = tmp_path / "blocks.asc"
    for vals, text in grids:
        write_ascii_grid(str(path), raster_of(vals))
        expected = [" ".join(text(v) for v in row) for row in vals[::-1].tolist()]
        assert path.read_text().splitlines()[6:] == expected, vals.dtype


@pytest.mark.parametrize("blocks", [1, 7, 1000])
def test_sorted_distinct_matches_unique(monkeypatch, blocks):
    # The whole grid, a few blocks of rows, and one row at a time; grids
    # whose blocks share most of their values, a few, or none.
    monkeypatch.setattr(formats, "_DISTINCT_BLOCKS", blocks)
    rng = np.random.default_rng(blocks)
    lattice = _lattice()
    lattice[rng.random(lattice.shape) < 0.05] = -0.0
    grids = [
        rng.uniform(-1e3, 1e3, (40, 30)),
        lattice,
        np.arange(1200.0).reshape(40, 30) ** 2,
        np.tile([[0.5, -0.0, 0.0, nan, -nan, inf]], (50, 4)),
        rng.integers(-2**40, 2**40, (40, 30)),
        rng.integers(0, 3, (60, 17)).astype(np.uint8),
    ]
    for grid in grids:
        if grid.dtype.kind == "f":
            got = formats._sorted_distinct(grid[::-1], lambda b: b.view(np.int64))
            want = np.unique(grid.view(np.int64))
        else:
            got, want = formats._sorted_distinct(grid[::-1]), np.unique(grid)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("values,key_path", [c[1:] for c in KEY_PATH_CASES],
                         ids=[c[0] for c in KEY_PATH_CASES])
def test_key_path_only_where_exact_and_small(tmp_path, monkeypatch, values, key_path):
    taken = []
    real = formats._millimetre_index

    def spy(*args):
        index_of = real(*args)
        taken.append(index_of is not None)
        return index_of

    monkeypatch.setattr(formats, "_millimetre_index", spy)
    write_ascii_grid(str(tmp_path / "path.asc"), raster_of(values))
    assert taken == [key_path]


def test_first_data_row_is_northernmost(tmp_path):
    path = tmp_path / "flip.asc"
    write_ascii_grid(str(path), raster_of(np.array([[1.0, 1.0], [2.0, 2.0]])))
    body = path.read_text().splitlines()[6:]
    assert body == ["2.000 2.000", "1.000 1.000"]
    back = read_ascii_grid(str(path))
    assert back.values[0, 0] == 1.0  # row 0 = southern row again


def test_round_trip_random_raster(tmp_path):
    rng = np.random.default_rng(19)
    r = raster_of(rng.uniform(-50, 300, (17, 23)), gsd=0.5, origin=(1250.5, -300.25))
    path = tmp_path / "rt.asc"
    write_ascii_grid(str(path), r)
    back = read_ascii_grid(str(path))
    assert back.spec == r.spec
    assert back.nodata == r.nodata
    assert np.allclose(back.values, r.values, atol=1e-3)


def test_output_bytes_are_deterministic(tmp_path):
    rng = np.random.default_rng(20)
    vals = rng.uniform(0, 10, (9, 9))
    a, b = tmp_path / "a.asc", tmp_path / "b.asc"
    write_ascii_grid(str(a), raster_of(vals))
    write_ascii_grid(str(b), raster_of(vals + 0.0))
    assert a.read_bytes() == b.read_bytes()


def test_header_keys_case_insensitive(tmp_path):
    path = tmp_path / "caps.asc"
    text = "NCOLS 2\nNROWS 1\nXLLCorner 10\nYLLCORNER 20\nCellSize 1\n3 4\n"
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        r = read_ascii_grid(str(path))
        assert r.spec.width == 2 and r.spec.origin_x == 10.0
        assert r.values.tolist() == [[3.0, 4.0]]


def test_nodata_header_is_optional(tmp_path):
    path = tmp_path / "nodefault.asc"
    path.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n-9999\n")
    r = read_ascii_grid(str(path))
    assert r.nodata == -9999.0
    assert np.isnan(r.values[0, 0])


def test_missing_header_key(tmp_path):
    path = tmp_path / "short.asc"
    path.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\n5.0\n")
    with pytest.raises(MalformedHeader):
        read_ascii_grid(str(path))


def test_unknown_header_key_is_named(tmp_path):
    # ESRI's cell-centre keys are not read; the error names the line and
    # the key, not the corner keys and cellsize as missing.
    path = tmp_path / "center.asc"
    path.write_text("ncols 2\nnrows 1\nxllcenter 0.5\nyllcenter 0.5\ncellsize 1\n1 2\n")
    with pytest.raises(MalformedHeader, match=r"center\.asc: line 3: unknown header key 'xllcenter'$"):
        read_ascii_grid(str(path))


def test_two_cell_body_row_is_not_a_header_line(tmp_path):
    path = tmp_path / "two.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnan 2\n-9999 4\n")
    values = read_ascii_grid(str(path)).values
    assert values[1, 1] == 2 and values[0, 1] == 4
    assert np.isnan(values[1, 0]) and np.isnan(values[0, 0])


def test_unparseable_header_number(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols two\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n5\n")
    with pytest.raises(MalformedHeader):
        read_ascii_grid(str(path))


@pytest.mark.parametrize(
    "ncols,nrows,cell",
    [("1.5", "2", "1"), ("0", "2", "1"), ("2", "-1", "1"), ("2", "2", "0")],
)
def test_degenerate_dimensions(tmp_path, ncols, nrows, cell):
    path = tmp_path / "dims.asc"
    path.write_text(
        f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize {cell}\n"
        "1 2 3 4\n"
    )
    with pytest.raises(MalformedHeader):
        read_ascii_grid(str(path))


@pytest.mark.parametrize(
    "key,value",
    [("cellsize", "nan"), ("cellsize", "inf"), ("xllcorner", "inf"),
     ("yllcorner", "-inf"), ("xllcorner", "nan"), ("ncols", "nan"), ("nrows", "inf")],
)
def test_non_finite_header_values(tmp_path, key, value):
    header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0", "cellsize": "1"}
    header[key] = value
    path = tmp_path / "grid.asc"
    path.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n")
    with pytest.raises(MalformedHeader):
        read_ascii_grid(str(path))


def test_wrong_cell_count(tmp_path):
    """Cells are counted flat, whatever the line wrapping; a blank body
    holds no cell."""
    path = tmp_path / "count.asc"
    header = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    for body in ("1 2 3\n", "1\n2 3\n", "1 2\n3\n4\n5\n", "", "\n  \n"):
        path.write_text(header + body)
        with pytest.raises(ShapeMismatch):
            read_ascii_grid(str(path))
    path.write_text(header.replace("2", "1") + "\n \n")
    with pytest.raises(ShapeMismatch):
        read_ascii_grid(str(path))
    for body in ("1\n2 3\n4\n", "\n1 2 3 4", "1\t2\r\n3  4 \n\n"):
        path.write_text(header + body)
        assert read_ascii_grid(str(path)).values.tolist() == [[3.0, 4.0], [1.0, 2.0]]


def test_non_numeric_cell(tmp_path, monkeypatch):
    path = tmp_path / "alpha.asc"
    path.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 x\n"
    )
    with pytest.raises(MalformedHeader):
        read_ascii_grid(str(path))
    header = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    for body in ("1 x\n3 4\n", "1 2\n3 x\n", "1 2\n3 4x\n", "1, 2\n3 4\n", "1 2\n3 \u00e9\n"):
        path.write_text(header + body, encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_ascii_grid(str(path))

    # numpy releases before the ValueError only warned, and returned the
    # cells before the bad token; outside a test run that warning is
    # ignored by default.
    def warn_and_stop(text, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0, 2.0, 3.0])

    monkeypatch.setattr(formats.np, "fromstring", warn_and_stop)
    with warnings.catch_warnings(), pytest.raises(MalformedHeader):
        warnings.simplefilter("ignore")
        read_ascii_grid(str(path))


def test_io_failures(tmp_path):
    with pytest.raises(IoFailure):
        read_ascii_grid(str(tmp_path / "absent.asc"))
    with pytest.raises(IoFailure):
        write_ascii_grid(str(tmp_path), raster_of(np.zeros((1, 1))))  # a directory
