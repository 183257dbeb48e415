"""Grid primitives against naive oracles and hand-checked cases."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    GSD,
    dilate_scan,
    erode_scan,
    flood_labels,
    nearest_fill_scan,
    raster_of,
    rasterize_scan,
    round_half_away,
)
from lidarmaps import _kernels
from lidarmaps.errors import (
    BadKernel,
    GridTooLarge,
    LidarMapsError,
    NoPointsInGrid,
    ShapeMismatch,
)
from lidarmaps.grid import (
    GridSpec,
    Raster,
    component_sizes,
    connected_components,
    dilate,
    erode,
    grid_from_bounds,
    interpolate_nearest,
    opening,
    rasterize_min,
    rasterize_min_clouds,
    rasterize_min_window,
)


def test_spec_validation():
    bad = [
        (0.0, 0.0, 0.0, 4, 4),
        (0.0, 0.0, -0.5, 4, 4),
        (0.0, 0.0, np.nan, 4, 4),
        (0.0, 0.0, np.inf, 4, 4),
        (np.nan, 0.0, 0.5, 4, 4),
        (0.0, np.nan, 0.5, 4, 4),
        (np.inf, 0.0, 0.5, 4, 4),
        (0.0, -np.inf, 0.5, 4, 4),
        (0.0, 0.0, 0.5, 0, 4),
        (0.0, 0.0, 0.5, 4, -1),
        (0.0, 0.0, 0.5, 4.0, 4),
    ]
    for args in bad:
        with pytest.raises(ValueError) as info:
            GridSpec(*args)
        assert isinstance(info.value, LidarMapsError)
    spec = GridSpec(10.0, 20.0, 0.5, 6, 4)
    assert spec.shape == (4, 6)
    assert spec.x_max == 13.0
    assert spec.y_max == 22.0
    assert spec.cell_center(0, 0) == (10.25, 20.25)
    assert spec.cell_of(10.25, 20.25) == (0, 0)
    assert spec.cell_of(10.5, 20.0) == (0, 1)  # lower edge belongs upward


def test_cell_rule_on_arrays_matches_scalars():
    rng = np.random.default_rng(8)
    spec = GridSpec(-3.3, 0.456, 0.7, 9, 6)
    xs = rng.uniform(-5.0, 5.0, 50)
    ys = rng.uniform(-2.0, 6.0, 50)
    xs[:10] = spec.origin_x + np.arange(10) * spec.gsd  # exactly on cell edges
    rows, cols = spec.cell_of(xs, ys)
    assert rows.dtype == cols.dtype == np.int64
    assert [(r, c) for r, c in zip(rows, cols)] == [spec.cell_of(x, y) for x, y in zip(xs, ys)]
    r, c = spec.cell_of(float(xs[0]), float(ys[0]))
    assert isinstance(r, np.int64) and isinstance(c, np.int64)

    rr, cc = np.arange(-2, 8), np.arange(10)
    cx, cy = spec.cell_center(rr, cc)
    assert [(x, y) for x, y in zip(cx, cy)] == [spec.cell_center(r, c) for r, c in zip(rr, cc)]
    # every centre lies in its own cell
    rows, cols = spec.cell_of(cx, cy)
    np.testing.assert_array_equal(rows, rr)
    np.testing.assert_array_equal(cols, cc)


def test_grid_from_bounds_includes_max_edge():
    spec = grid_from_bounds(0.0, 0.0, 10.0, 5.0, 0.5)
    assert (spec.width, spec.height) == (21, 11)
    r, c = spec.cell_of(10.0, 5.0)
    assert 0 <= r < spec.height and 0 <= c < spec.width


def test_raster_shape_checked():
    spec = GridSpec(0.0, 0.0, 0.5, 3, 2)
    with pytest.raises(ShapeMismatch):
        Raster(spec, np.zeros((3, 3)))


def test_round_half_away():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 2.6, 0.0])
    np.testing.assert_array_equal(round_half_away(x), [1, -1, 2, -2, 2, -2, 3, 0])


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


def test_rasterize_min_matches_scan():
    rng = np.random.default_rng(20)
    for _ in range(50):
        spec = GridSpec(
            rng.uniform(-50, 50), rng.uniform(-50, 50), GSD,
            int(rng.integers(1, 30)), int(rng.integers(1, 30)),
        )
        n = int(rng.integers(1, 300))
        pts = np.column_stack([
            rng.uniform(spec.origin_x - 1, spec.x_max + 1, n),
            rng.uniform(spec.origin_y - 1, spec.y_max + 1, n),
            rng.normal(0, 30, n),
        ])
        zmin, counts, _ = rasterize_scan(pts, spec)
        if counts.sum() == 0:
            with pytest.raises(NoPointsInGrid):
                rasterize_min(pts, spec)
            continue
        dsm, occ = rasterize_min(pts, spec)
        expect = np.where(counts > 0, zmin, np.nan)
        np.testing.assert_array_equal(dsm.values, expect)
        assert occ.values.dtype == bool
        np.testing.assert_array_equal(occ.values, counts > 0)


def test_rasterize_keeps_minimum_per_cell():
    spec = GridSpec(0.0, 0.0, 1.0, 2, 1)
    pts = np.array([[0.5, 0.5, 9.0], [0.4, 0.4, 3.0], [0.6, 0.6, 7.0], [1.5, 0.5, 2.0]])
    dsm, occ = rasterize_min(pts, spec)
    np.testing.assert_array_equal(dsm.values, [[3.0, 2.0]])
    assert occ.values.dtype == bool
    np.testing.assert_array_equal(occ.values, rasterize_scan(pts, spec)[1] > 0)


def test_rasterize_cell_edges_half_open():
    spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
    dsm, _ = rasterize_min(np.array([[1.0, 1.0, 5.0]]), spec)
    assert np.isfinite(dsm.values[1, 1])
    assert np.isnan(dsm.values[0, 0])


def test_rasterize_inf_z_grids_as_no_point():
    # A cell is occupied when its min-z fell below the +inf it starts at,
    # so a +inf z, which no reader yields, leaves its cell as if no point
    # fell there: not occupied and NaN.  A finite z beside it still wins.
    spec = GridSpec(0.0, 0.0, 1.0, 3, 1)
    pts = np.array([[0.5, 0.5, np.inf], [1.5, 0.5, np.inf], [1.5, 0.5, 2.0], [2.5, 0.5, -np.inf]])
    for order in (pts, pts[::-1]):
        dsm, occ = rasterize_min(order, spec)
        np.testing.assert_array_equal(dsm.values, [[np.nan, 2.0, -np.inf]])
        np.testing.assert_array_equal(occ.values, [[False, True, True]])
    with pytest.raises(NoPointsInGrid):
        rasterize_min(pts[:2], spec)


def test_rasterize_nan_z_leaves_its_cell_occupied_and_nan():
    # A NaN z, which no reader yields, wins its cell's minimum whatever
    # the order, so the cell is occupied and its min-z NaN.
    spec = GridSpec(0.0, 0.0, 1.0, 3, 1)
    pts = np.array([[0.5, 0.5, np.nan], [1.5, 0.5, 1.0], [1.5, 0.5, np.nan], [2.5, 0.5, 1.0]])
    with np.errstate(invalid="ignore"):
        for order in (pts, pts[::-1]):
            dsm, occ = rasterize_min(order, spec)
            np.testing.assert_array_equal(dsm.values, [[np.nan, np.nan, 1.0]])
            np.testing.assert_array_equal(occ.values, [[True, True, True]])


def test_rasterize_crowded_cell_ties_and_max_edge():
    spec = GridSpec(0.0, 0.0, GSD, 5, 4)
    rng = np.random.default_rng(22)
    n = 600
    crowd = np.column_stack([
        rng.uniform(spec.origin_x, spec.origin_x + GSD, n),
        rng.uniform(spec.origin_y, spec.origin_y + GSD, n),
        rng.choice([0.0, -0.0, 0.0, 1.5, -0.0], n),
    ])
    crowd[0, 2], crowd[-1, 2] = 0.0, -0.0
    below_x = np.nextafter(spec.x_max, -np.inf)
    below_y = np.nextafter(spec.y_max, -np.inf)
    edges = np.array([
        [spec.x_max, spec.origin_y + 0.1, 1.0],  # on the max edge: outside
        [spec.origin_x + 0.1, spec.y_max, 1.0],
        [spec.x_max, spec.y_max, 1.0],
        [below_x, below_y, -0.0],  # just inside the last cell
        [below_x, below_y, 0.0],
        [below_x, spec.origin_y, 2.0],
        [spec.origin_x, below_y, -3.0],
    ])
    pts = np.concatenate([crowd[:n // 2], edges, crowd[n // 2:]])
    dsm, occ = rasterize_min(pts, spec)
    zmin, counts, oob = rasterize_scan(pts, spec)
    np.testing.assert_array_equal(dsm.values, np.where(counts > 0, zmin, np.nan))
    assert occ.values.dtype == bool
    np.testing.assert_array_equal(occ.values, counts > 0)
    assert oob == 3 and np.count_nonzero(occ.values) == np.count_nonzero(counts)
    assert counts[0, 0] == n and counts[-1, -1] == 2
    # 0.0 and -0.0 compare equal and the kernel keeps the last of tied
    # minima; a zero minimum is still stored as +0.0 in either point order,
    # so the grid writer never prints "-0.000".
    for order in (pts, pts[::-1]):
        dsm, _ = rasterize_min(order, spec)
        assert not np.signbit(dsm.values[0, 0])
        assert not np.signbit(dsm.values[-1, -1])


def test_rasterize_window_slices_global_run():
    rng = np.random.default_rng(21)
    spec = GridSpec(3.0, -7.0, GSD, 24, 18)
    pts = np.column_stack([
        rng.uniform(spec.origin_x, spec.x_max, 800),
        rng.uniform(spec.origin_y, spec.y_max, 800),
        rng.normal(0, 5, 800),
    ])
    full, occ_full = rasterize_min(pts, spec)
    gc = np.floor((pts[:, 0] - spec.origin_x) / GSD)
    gr = np.floor((pts[:, 1] - spec.origin_y) / GSD)
    boxes = [(5, 4, 10, 8)]
    for _ in range(40):
        c0, r0 = int(rng.integers(0, spec.width)), int(rng.integers(0, spec.height))
        w = int(rng.integers(1, spec.width - c0 + 1))
        h = int(rng.integers(1, spec.height - r0 + 1))
        boxes.append((c0, r0, w, h))
    for c0, r0, w, h in boxes:
        inside = (gc >= c0) & (gc < c0 + w) & (gr >= r0) & (gr < r0 + h)
        if not inside.any():
            with pytest.raises(NoPointsInGrid):
                rasterize_min_window(pts, spec, c0, r0, w, h)
            continue
        win, occ_win = rasterize_min_window(pts, spec, c0, r0, w, h)
        sl = (slice(r0, r0 + h), slice(c0, c0 + w))
        np.testing.assert_array_equal(win.values, full.values[sl])
        np.testing.assert_array_equal(occ_win.values, occ_full.values[sl])
        assert occ_win.values.dtype == bool
        assert np.count_nonzero(occ_win.values) == len(set(zip(gr[inside], gc[inside])))
        assert win.spec.origin_x == spec.origin_x + c0 * GSD
        assert win.spec.origin_y == spec.origin_y + r0 * GSD
        assert win.spec.shape == (h, w)


@pytest.mark.parametrize("block", [1, 7, _kernels._BLOCK])
def test_clouds_grid_bit_for_bit_as_one_array(monkeypatch, block):
    # One to four inputs split at random points, gridded in blocks of 1, 7
    # and the default number of points, into the whole grid or a window
    # that leaves points outside.  Most z are 0.0 or -0.0, so tied zero
    # minima fall on both sides of input and block boundaries; they are
    # stored as +0.0 whatever the order.
    rng = np.random.default_rng(block)
    spec = GridSpec(-3.0, 2.0, GSD, 12, 9)
    cases = []
    for i in range(30):
        n = int(rng.integers(1, 600))
        pts = np.column_stack([
            rng.uniform(spec.origin_x - 1, spec.x_max + 1, n),
            rng.uniform(spec.origin_y - 1, spec.y_max + 1, n),
            rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], n),
        ])
        box = (0, 0, spec.width, spec.height)
        if i % 3:
            c0, r0 = int(rng.integers(spec.width)), int(rng.integers(spec.height))
            w = int(rng.integers(1, spec.width - c0 + 1))
            box = (c0, r0, w, int(rng.integers(1, spec.height - r0 + 1)))
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 4))))
        cases.append((pts, box, np.split(pts, cuts)))
    # The reference grids one array in one block.
    whole = []
    for pts, box, _ in cases:
        try:
            whole.append(rasterize_min_window(pts, spec, *box))
        except NoPointsInGrid:
            whole.append(None)
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    zero_minima = 0
    for (pts, (c0, r0, w, h), parts), ref in zip(cases, whole):
        zmin, counts, _ = rasterize_scan(pts, spec)
        sl = (slice(r0, r0 + h), slice(c0, c0 + w))
        if ref is None:
            assert counts[sl].sum() == 0
            with pytest.raises(NoPointsInGrid):
                rasterize_min_clouds(parts, spec, c0, r0, w, h)
            continue
        dsm, occ = rasterize_min_clouds(parts, spec, c0, r0, w, h)
        expect = np.where(counts[sl] > 0, zmin[sl], np.nan) + 0.0
        for want in (expect, ref[0].values):
            np.testing.assert_array_equal(dsm.values.view(np.int64), want.view(np.int64))
        for want in (counts[sl] > 0, ref[1].values):
            np.testing.assert_array_equal(occ.values, want)
        assert occ.values.dtype == ref[1].values.dtype == bool
        assert dsm.spec == ref[0].spec == spec.subgrid(c0, r0, w, h)
        zero_minima += int(np.count_nonzero(dsm.values == 0))
    assert zero_minima > 100


# ---------------------------------------------------------------------------
# void filling
# ---------------------------------------------------------------------------


def _fill_layouts(rng):
    """Source layouts that stress the void-only search: long searches,
    single-row and single-column grids, and exact distance ties."""
    yy, xx = np.mgrid[:60, :60]
    round_void = np.hypot(yy - 30, xx - 27) > 22
    corner = np.zeros((40, 40), bool)
    corner[-1, -1] = True
    row = np.zeros((1, 37), bool)
    row[0, [5, 20]] = True
    col = np.zeros((31, 1), bool)
    col[[0, 17], 0] = True
    lattice = np.zeros((17, 17), bool)
    lattice[::4, ::4] = True
    corners = np.zeros((9, 11), bool)
    corners[::8, ::10] = True
    sparse = rng.random((100, 100)) < 0.02
    return [round_void, corner, row, col, np.ones((5, 7), bool), lattice, corners, sparse]


def test_interpolate_matches_allpairs():
    rng = np.random.default_rng(22)
    layouts = []
    for _ in range(50):
        shape = (int(rng.integers(1, 24)), int(rng.integers(1, 24)))
        valid = rng.random(shape) < rng.uniform(0.1, 0.9)
        if not valid.any():
            valid[tuple(rng.integers(0, shape))] = True
        layouts.append((valid, rng.normal(0, 10, shape)))
    layouts += [(valid, rng.normal(0, 10, valid.shape)) for valid in _fill_layouts(rng)]
    for valid, z in layouts:
        vals = np.where(valid, z, np.nan)
        got = interpolate_nearest(raster_of(vals))
        np.testing.assert_array_equal(got.values, nearest_fill_scan(vals, valid))


@pytest.mark.parametrize("block", [1, 7, 40])
def test_interpolate_in_bands_and_blocks_matches_allpairs(monkeypatch, block):
    # A small block splits the column pass into bands of columns and the
    # search into blocks of void cells, as on a large grid.
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for _ in range(25):
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        valid = rng.random(shape) < rng.uniform(0.05, 0.9)
        valid.flat[rng.integers(valid.size)] = True
        vals = np.where(valid, rng.normal(0, 10, shape), np.nan)
        got = interpolate_nearest(raster_of(vals))
        np.testing.assert_array_equal(got.values, nearest_fill_scan(vals, valid))


def test_fill_shape_must_leave_key_room():
    # The largest shapes whose (d2, source) keys stay below the sentinel.
    _kernels.check_fill_shape(38_967, 38_967)
    _kernels.check_fill_shape(1, 1_664_510)
    for h, w in ((38_968, 38_968), (1, 1_664_511), (1_664_511, 1), (10**6, 10**4)):
        with pytest.raises(GridTooLarge, match="too large"):
            _kernels.check_fill_shape(h, w)


def test_interpolate_tie_prefers_row_major_earliest():
    vals = np.array([
        [1.0, np.nan, 2.0],
        [np.nan, np.nan, np.nan],
        [3.0, np.nan, 4.0],
    ])
    got = interpolate_nearest(raster_of(vals)).values
    assert got[0, 1] == 1.0  # (0,0) and (0,2) tie at d2=1
    assert got[1, 0] == 1.0  # (0,0) and (2,0) tie
    assert got[1, 1] == 1.0  # all four corners tie at d2=2
    assert got[2, 1] == 3.0


def test_interpolate_requires_a_value():
    with pytest.raises(NoPointsInGrid):
        interpolate_nearest(raster_of(np.full((3, 3), np.nan)))


def test_interpolate_full_raster_is_identity():
    vals = np.arange(12, dtype=float).reshape(3, 4)
    np.testing.assert_array_equal(interpolate_nearest(raster_of(vals)).values, vals)


def test_nearest_fill_overrides_non_source_cells():
    vals = np.array([[1.0, 50.0], [60.0, 2.0]])
    sources = np.array([[True, False], [False, True]])
    got = _kernels.nearest_fill(vals, sources)
    np.testing.assert_array_equal(got, [[1.0, 1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# morphology
# ---------------------------------------------------------------------------


def test_morphology_matches_window_scan():
    rng = np.random.default_rng(23)
    for _ in range(60):
        shape = (int(rng.integers(1, 28)), int(rng.integers(1, 28)))
        m = rng.random(shape) < rng.uniform(0.3, 0.8)
        k = int(rng.choice([1, 3, 5, 7]))
        for kshape in ("square", "diamond"):
            r = raster_of(m)
            np.testing.assert_array_equal(
                erode(r, k, kshape).values, erode_scan(m, k, kshape),
                err_msg=f"erode {kshape} k={k}",
            )
            np.testing.assert_array_equal(
                dilate(r, k, kshape).values, dilate_scan(m, k, kshape),
                err_msg=f"dilate {kshape} k={k}",
            )


def test_opening_is_idempotent_and_shrinking():
    rng = np.random.default_rng(24)
    for _ in range(30):
        m = rng.random((20, 20)) < 0.6
        r = raster_of(m)
        for kshape in ("square", "diamond"):
            once = opening(r, 5, kshape)
            twice = opening(once, 5, kshape)
            assert not (once.values & ~m).any()
            np.testing.assert_array_equal(once.values, twice.values)


def test_erode_dilate_duality_on_interior():
    rng = np.random.default_rng(25)
    for _ in range(30):
        m = rng.random((22, 22)) < 0.5
        k = 5
        er = erode(raster_of(~m), k).values
        di = dilate(raster_of(m), k).values
        pad = k // 2
        np.testing.assert_array_equal(
            di[pad:-pad, pad:-pad], ~er[pad:-pad, pad:-pad]
        )


def test_kernel_validation():
    r = raster_of(np.zeros((4, 4), bool))
    with pytest.raises(BadKernel):
        erode(r, 4)
    with pytest.raises(BadKernel):
        dilate(r, -1)
    with pytest.raises(BadKernel):
        opening(r, 3, "hex")


def test_k1_identity_and_small_blob_examples():
    m = np.zeros((20, 20), bool)
    m[5:11, 5:11] = True  # 6x6 blob
    assert not opening(raster_of(m), 7).values.any()
    m2 = np.zeros((20, 20), bool)
    m2[5:13, 5:13] = True  # 8x8 blob
    np.testing.assert_array_equal(opening(raster_of(m2), 7).values, m2)
    np.testing.assert_array_equal(opening(raster_of(m2), 1).values, m2)


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def _spiral(n: int) -> np.ndarray:
    """One-cell-wide square spiral winding inward, arms one cell apart."""
    m = np.zeros((n, n), bool)
    r, c, dr, dc = 0, 0, 0, 1
    m[r, c] = True
    while True:
        for _ in range(2):  # straight on, else turn once
            nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
            ahead_free = not (0 <= ar < n and 0 <= ac < n and m[ar, ac])
            if 0 <= nr < n and 0 <= nc < n and not m[nr, nc] and ahead_free:
                r, c = nr, nc
                m[r, c] = True
                break
            dr, dc = dc, -dr
        else:
            return m


def _component_layouts(rng):
    """Masks whose components merge late or need many union rounds."""
    u = np.zeros((7, 9), bool)
    u[:, 1] = u[:, 7] = True
    u[-1, 1:8] = True
    comb = np.zeros((6, 11), bool)
    comb[:, ::2] = True
    comb[-1] = True
    serpentine = np.zeros((21, 15), bool)
    serpentine[::2] = True
    serpentine[1::4, -1] = True
    serpentine[3::4, 0] = True
    return [
        _spiral(41), u, comb, serpentine,
        rng.random((1, 40)) < 0.6, rng.random((40, 1)) < 0.6,
        np.ones((6, 5), bool), np.zeros((6, 5), bool),
        rng.random((100, 100)) < 0.58,
    ]


def test_components_match_flood_fill():
    rng = np.random.default_rng(26)
    masks = []
    for _ in range(60):
        shape = (int(rng.integers(1, 32)), int(rng.integers(1, 32)))
        masks.append(rng.random(shape) < rng.uniform(0.3, 0.7))
    for m in masks + _component_layouts(rng):
        for conn in (4, 8):
            labels, count = connected_components(raster_of(m), conn)
            ref, nref = flood_labels(m, conn == 8)
            assert count == nref
            np.testing.assert_array_equal(labels.values, ref)


def test_component_labels_row_major_order():
    m = np.array([
        [0, 1, 0, 1],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ], bool)
    labels, count = connected_components(raster_of(m), 4)
    assert count == 3
    assert labels.values[0, 1] == 1
    assert labels.values[0, 3] == 2
    assert labels.values[1, 3] == 2
    assert labels.values[2, 0] == 3


def test_diagonal_connectivity_difference():
    m = np.array([[1, 0], [0, 1]], bool)
    _, n8 = connected_components(raster_of(m), 8)
    _, n4 = connected_components(raster_of(m), 4)
    assert (n8, n4) == (1, 2)
    for bad in (0, 6):
        with pytest.raises(ValueError) as info:
            connected_components(raster_of(m), bad)
        assert isinstance(info.value, LidarMapsError)


def test_component_sizes():
    m = np.array([[1, 1, 0], [0, 0, 1]], bool)
    labels, count = connected_components(raster_of(m), 4)
    np.testing.assert_array_equal(component_sizes(labels, count), [3, 2, 1])
