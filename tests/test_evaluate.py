"""Pixel metrics, disagreement tiling, instance matching, polygon rasters."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import flood_labels, instance_census, point_in_rings, raster_of
from lidarmaps.errors import (
    ConfigError,
    EmptyTruth,
    IoFailure,
    OpenRing,
    SelfIntersection,
    SpecMismatch,
)
from lidarmaps.evaluate import (
    AREA_BANDS,
    band_name,
    confusion,
    load_geojson_polygons,
    match_instances,
    rasterize_polygons,
    tiling_comparison,
)
from lidarmaps.grid import GridSpec


def bool_raster(shape, rows=None, cols=None, gsd=0.5):
    arr = np.zeros(shape, bool)
    if rows is not None:
        arr[rows, cols] = True
    return raster_of(arr, gsd=gsd)


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------


def test_identical_maps_score_one():
    r = bool_raster((10, 10), slice(2, 6), slice(3, 8))
    m = confusion(r, r)
    assert (m.iou, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert m.fp == m.fn == 0


def test_disjoint_maps_score_zero():
    pred = bool_raster((10, 10), slice(0, 3), slice(0, 3))
    truth = bool_raster((10, 10), slice(6, 9), slice(6, 9))
    m = confusion(pred, truth)
    assert (m.iou, m.precision, m.recall) == (0.0, 0.0, 0.0)
    assert m.f1 is None  # precision + recall = 0


def test_half_overlapping_blocks():
    pred = bool_raster((10, 30), slice(0, 10), slice(0, 20))
    truth = bool_raster((10, 30), slice(0, 10), slice(10, 30))
    m = confusion(pred, truth)
    assert (m.tp, m.fp, m.fn) == (100, 100, 100)
    assert m.iou == pytest.approx(1 / 3)
    assert m.precision == m.recall == m.f1 == pytest.approx(0.5)


def test_empty_maps_report_nodata():
    empty = bool_raster((8, 8))
    m = confusion(empty, empty)
    assert m.tn == 64
    assert m.iou is None and m.precision is None
    assert m.recall is None and m.f1 is None


def test_counts_partition_the_grid():
    rng = np.random.default_rng(2)
    pred = raster_of(rng.random((19, 23)) < 0.4)
    truth = raster_of(rng.random((19, 23)) < 0.4)
    m = confusion(pred, truth)
    assert m.tp + m.fp + m.fn + m.tn == 19 * 23


def test_swapping_maps_swaps_precision_and_recall():
    rng = np.random.default_rng(6)
    a = raster_of(rng.random((20, 20)) < 0.35)
    b = raster_of(rng.random((20, 20)) < 0.35)
    ab = confusion(a, b)
    ba = confusion(b, a)
    assert ab.precision == ba.recall and ab.recall == ba.precision
    assert ab.iou == ba.iou and ab.f1 == ba.f1


def test_confusion_requires_same_grid():
    with pytest.raises(SpecMismatch):
        confusion(bool_raster((4, 4)), bool_raster((4, 5)))


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


def test_fourteen_km_extent_gives_784_tiles():
    arr = np.zeros((1400, 1400), bool)  # 14 km at 10 m cells
    rep = tiling_comparison(raster_of(arr, gsd=10.0), raster_of(arr, gsd=10.0))
    assert rep.tile_count == 784
    assert (rep.tiles_x, rep.tiles_y) == (28, 28)
    spec = GridSpec(0.0, 0.0, 10.0, 1400, 1400)
    assert rep.tile_bounds(29, spec) == (500.0, 500.0, 1000.0, 1000.0)


def test_identical_maps_tile_at_one():
    mask = np.zeros((200, 200), bool)
    mask[10:40, 10:40] = True
    mask[150:190, 120:180] = True
    r = raster_of(mask, gsd=0.5)  # 100 m extent, 50 m tiles -> 4 tiles
    rep = tiling_comparison(r, r, tile_size=50.0)
    assert rep.tile_count == 4
    defined = ~np.isnan(rep.iou)
    assert defined.any()
    assert (rep.iou[defined] == 1.0).all()


def test_single_bad_tile_ranks_first():
    pred = np.zeros((200, 200), bool)
    truth = np.zeros((200, 200), bool)
    truth[120:140, 10:30] = True  # disagreement in tile row 1, col 0 -> id 2
    pred[10:30, 10:30] = truth[120:140, 10:30] * 0  # keep pred empty there
    pred[150:170, 150:170] = True
    truth[150:170, 150:170] = True  # perfect agreement in tile id 3
    rep = tiling_comparison(
        raster_of(pred, gsd=0.5), raster_of(truth, gsd=0.5), tile_size=50.0
    )
    assert rep.ranking[0] == 2
    assert rep.ranking[1] == 3
    assert list(rep.ranking[2:]) == [0, 1]  # nodata tiles keep id order


def test_tile_sums_equal_global_counts():
    rng = np.random.default_rng(10)
    pred = raster_of(rng.random((137, 211)) < 0.3, gsd=0.5)
    truth = raster_of(rng.random((137, 211)) < 0.3, gsd=0.5)
    rep = tiling_comparison(pred, truth, tile_size=20.0)
    m = confusion(pred, truth)
    assert rep.tp.sum() == m.tp
    assert rep.fp.sum() == m.fp
    assert rep.fn.sum() == m.fn
    assert rep.tn.sum() == m.tn
    assert sorted(rep.ranking) == list(range(rep.tile_count))


def test_cells_assigned_by_lower_left_corner():
    pred = np.zeros((4, 8), bool)
    pred[:, 4] = True  # x = 2.0, exactly the tile boundary
    truth = np.zeros((4, 8), bool)
    rep = tiling_comparison(
        raster_of(pred, gsd=0.5), raster_of(truth, gsd=0.5), tile_size=2.0
    )
    assert rep.tile_count == 2
    assert rep.fp[0] == 0 and rep.fp[1] == 4


def test_tile_size_must_be_positive():
    r = bool_raster((4, 4))
    for bad in (0.0, -1.0, float("nan"), float("inf"), "500"):
        with pytest.raises(ConfigError, match="^tile_size must be finite and positive"):
            tiling_comparison(r, r, tile_size=bad)


# ---------------------------------------------------------------------------
# instance matching
# ---------------------------------------------------------------------------


def labels_of(arr) -> "raster_of":
    return raster_of(np.asarray(arr, np.int64))


def test_fully_covered_instance_detected():
    truth = np.zeros((20, 20), np.int64)
    truth[5:15, 5:15] = 1
    pred = truth > 0
    rep = match_instances(raster_of(pred), labels_of(truth))
    assert rep.detected[1]
    assert rep.detection_rate == 1.0
    # 100 cells at 0.25 m^2 = 25 m^2 -> first band
    assert rep.bands[0].gt_count == 1 and rep.bands[0].detected == 1
    assert rep.bands[0].detection_rate == 1.0


def test_exactly_half_coverage_is_not_detected():
    truth = np.zeros((10, 10), np.int64)
    truth[0:10, 0:10] = 1  # 100 cells
    pred = np.zeros((10, 10), bool)
    pred[0:5, :] = True  # 50 of 100
    rep = match_instances(raster_of(pred), labels_of(truth))
    assert not rep.detected[1]
    truth_raster = labels_of(truth)
    pred[5, 0] = True  # 51 of 100
    rep = match_instances(raster_of(pred), truth_raster)
    assert rep.detected[1]


def test_disjoint_small_blob_is_accessorial_commission():
    truth = np.zeros((60, 60), np.int64)
    truth[40:56, 40:56] = 1
    pred = np.zeros((60, 60), bool)
    pred[2:12, 2:14] = True  # 120 cells = 30 m^2
    rep = match_instances(raster_of(pred), labels_of(truth))
    assert rep.n_pred == 1
    assert rep.commission[1]
    assert rep.bands[0].pred_count == 1
    assert rep.bands[0].commission_count == 1


def test_exactly_half_overlap_is_commission():
    truth = np.zeros((12, 12), np.int64)
    truth[0:6, 0:12] = 1
    pred = np.zeros((12, 12), bool)
    pred[3:9, 0:12] = True  # half its cells on truth
    rep = match_instances(raster_of(pred), labels_of(truth))
    assert rep.commission[1]
    pred[8, 0] = False  # 36/71 > half now overlaps
    rep = match_instances(raster_of(pred), labels_of(truth))
    assert not rep.commission[1]


def test_rates_normalize_by_band_truth_count():
    truth = np.zeros((40, 80), np.int64)
    truth[2:12, 2:12] = 1  # 100 cells = 25 m^2, accessorial
    truth[2:12, 20:30] = 2  # same band
    pred = np.zeros((40, 80), bool)
    pred[2:12, 2:12] = True  # detects instance 1
    pred[25:33, 2:10] = True  # three clear commissions, 16 m^2 each
    pred[25:33, 20:28] = True
    pred[25:33, 40:48] = True
    rep = match_instances(raster_of(pred), labels_of(truth))
    band = rep.bands[0]
    assert band.gt_count == 2
    assert band.detection_rate == pytest.approx(0.5)
    assert band.commission_count == 3
    assert band.commission_rate == pytest.approx(1.5)  # may exceed one


def test_band_edges_are_half_open():
    # 1 m cells: areas 49, 50, 500, 10000 land in bands 0, 1, 2, 3
    truth = np.zeros((220, 220), np.int64)
    truth[0:7, 0:7] = 1  # 49 cells
    truth[10:15, 0:10] = 2  # 50
    truth[20:40, 0:25] = 3  # 500
    truth[50:150, 50:150] = 4  # 10000
    rep = match_instances(
        raster_of(np.zeros((220, 220), bool), gsd=1.0), raster_of(truth, gsd=1.0)
    )
    assert [b.gt_count for b in rep.bands] == [1, 1, 1, 1]


def test_band_names():
    assert [band_name(lo, hi) for lo, hi in AREA_BANDS] == [
        "0-50",
        "50-500",
        "500-10000",
        "10000+",
    ]


def test_empty_truth_raises():
    with pytest.raises(EmptyTruth):
        match_instances(bool_raster((5, 5)), labels_of(np.zeros((5, 5))))


def test_census_matches_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(6):
        truth_mask = rng.random((48, 48)) < 0.3
        tlab, _ = flood_labels(truth_mask, eight=True)
        if tlab.max() == 0:
            continue
        pred = rng.random((48, 48)) < 0.35
        rep = match_instances(raster_of(pred), labels_of(tlab))
        det = {i for i in range(1, rep.n_truth + 1) if rep.detected[i]}
        com = {i for i in range(1, rep.n_pred + 1) if rep.commission[i]}
        oracle_det, oracle_com = instance_census(pred, tlab)
        assert det == oracle_det
        assert com == oracle_com


# ---------------------------------------------------------------------------
# polygon rasterization
# ---------------------------------------------------------------------------


def ring(*pts) -> np.ndarray:
    return np.asarray(list(pts) + [pts[0]], np.float64)


def test_unit_square_covers_four_cells():
    spec = GridSpec(0.0, 0.0, 0.5, 4, 4)
    labels = rasterize_polygons([[ring((0, 0), (1, 0), (1, 1), (0, 1))]], spec)
    expected = np.zeros((4, 4), np.int32)
    expected[0:2, 0:2] = 1
    assert np.array_equal(labels.values, expected)


def test_hole_punches_out_center_cell():
    spec = GridSpec(0.0, 0.0, 0.5, 3, 3)
    outer = ring((0, 0), (1.5, 0), (1.5, 1.5), (0, 1.5))
    hole = ring((0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0))
    labels = rasterize_polygons([[outer, hole]], spec).values
    assert labels[1, 1] == 0
    assert labels.sum() == 8  # ring of eight cells


def test_later_polygons_overwrite():
    spec = GridSpec(0.0, 0.0, 0.5, 6, 6)
    a = ring((0, 0), (2, 0), (2, 2), (0, 2))
    b = ring((1, 1), (3, 1), (3, 3), (1, 3))
    labels = rasterize_polygons([[a], [b]], spec).values
    assert labels[3, 3] == 2  # center (1.75, 1.75) in both -> later wins
    assert labels[0, 0] == 1
    assert labels[5, 5] == 2


def test_polygon_clipped_at_grid_edge():
    spec = GridSpec(0.0, 0.0, 0.5, 4, 4)
    big = ring((-5, -5), (10, -5), (10, 10), (-5, 10))
    labels = rasterize_polygons([[big]], spec).values
    assert (labels == 1).all()


def test_right_triangle_boundary_is_deterministic():
    spec = GridSpec(0.0, 0.0, 0.5, 5, 5)
    tri = [ring((0, 0), (2, 0), (0, 2))]
    labels = rasterize_polygons([tri], spec).values
    expected = np.zeros((5, 5), np.int32)
    for r in range(5):
        for c in range(5):
            xc, yc = (c + 0.5) * 0.5, (r + 0.5) * 0.5
            expected[r, c] = point_in_rings(xc, yc, tri)
    assert np.array_equal(labels > 0, expected > 0)
    # the hypotenuse passes exactly through (0.75, 1.25): excluded
    assert labels[2, 1] == 0


def lattice_shapes(rng, spec: GridSpec) -> list[np.ndarray]:
    """Rectangles and triangles with corners on cell centres of a lattice
    reaching 4 cells past the grid, so spans end exactly on centres, plus
    shapes wholly left of, right of, across and below the grid."""
    lat_x = spec.origin_x + (np.arange(-4, spec.width + 4) + 0.5) * spec.gsd
    lat_y = spec.origin_y + (np.arange(-4, spec.height + 4) + 0.5) * spec.gsd

    def box(x0, y0, x1, y1):
        return ring((x0, y0), (x1, y0), (x1, y1), (x0, y1))

    x_lo, x_hi, y_lo = spec.origin_x, spec.x_max, spec.origin_y
    shapes = [
        box(x_lo - 3, y_lo + 1, x_lo - 1, y_lo + 3),  # left of the grid
        box(x_hi + 1, y_lo + 1, x_hi + 3, y_lo + 3),  # right of the grid
        box(x_lo - 3, y_lo + 1, x_hi + 3, y_lo + 3),  # across it
        box(x_lo + 1, y_lo - 5, x_lo + 2, y_lo - 1),  # below every row
    ]
    for _ in range(20):
        i = np.sort(rng.choice(lat_x.size, 2, replace=False))
        j = np.sort(rng.choice(lat_y.size, 2, replace=False))
        shapes.append(box(lat_x[i[0]], lat_y[j[0]], lat_x[i[1]], lat_y[j[1]]))
        ax, bx, cx = lat_x[rng.choice(lat_x.size, 3)]
        ay, by, cy = lat_y[rng.choice(lat_y.size, 3)]
        if (bx - ax) * (cy - ay) != (by - ay) * (cx - ax):  # not collinear
            shapes.append(ring((ax, ay), (bx, by), (cx, cy)))
    return shapes


def test_matches_point_in_polygon_oracle():
    for origin in ((0.0, 0.0), (-1.3, 0.7)):
        rng = np.random.default_rng(23)
        spec = GridSpec(*origin, 0.5, 24, 24)
        shapes = []
        for _ in range(8):
            n = int(rng.integers(5, 11))
            ang = np.sort(rng.uniform(0, 2 * math.pi, n))
            rad = rng.uniform(1.0, 5.5, n)
            cx, cy = rng.uniform(3, 9, 2) + origin
            pts = np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)])
            shapes.append(np.vstack([pts, pts[:1]]))
        for shape in shapes + lattice_shapes(rng, spec):
            labels = rasterize_polygons([[shape]], spec).values
            for r in range(24):
                for c in range(24):
                    xc, yc = origin[0] + (c + 0.5) * 0.5, origin[1] + (r + 0.5) * 0.5
                    assert bool(labels[r, c]) == point_in_rings(xc, yc, [shape])


def test_open_ring_rejected():
    spec = GridSpec(0.0, 0.0, 0.5, 4, 4)
    unclosed = np.asarray([(0, 0), (1, 0), (1, 1), (0, 1)], np.float64)
    with pytest.raises(OpenRing):
        rasterize_polygons([[unclosed]], spec)
    with pytest.raises(OpenRing):
        rasterize_polygons([[np.asarray([(0, 0), (1, 0), (0, 0)], np.float64)]], spec)


def test_bowtie_rejected():
    spec = GridSpec(0.0, 0.0, 0.5, 6, 6)
    bowtie = ring((0, 0), (2, 2), (2, 0), (0, 2))
    with pytest.raises(SelfIntersection):
        rasterize_polygons([[bowtie]], spec)


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------


def square_coords(x0, y0, s):
    return [[x0, y0], [x0 + s, y0], [x0 + s, y0 + s], [x0, y0 + s], [x0, y0]]


def test_geojson_feature_collection(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {},
                "geometry": {"type": "Polygon", "coordinates": [square_coords(0, 0, 1)]},
            },
            {
                "type": "Feature",
                "properties": {},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [square_coords(2, 2, 1)],
                        [square_coords(4, 4, 1)],
                    ],
                },
            },
        ],
    }
    path = tmp_path / "truth.geojson"
    path.write_text(json.dumps(doc))
    polygons = load_geojson_polygons(str(path))
    assert len(polygons) == 3  # each MultiPolygon part stands alone
    spec = GridSpec(0.0, 0.0, 0.5, 12, 12)
    labels = rasterize_polygons(polygons, spec).values
    assert labels[0, 0] == 1
    assert labels[5, 5] == 2
    assert labels[9, 9] == 3


def test_geojson_bare_geometry(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(
        json.dumps({"type": "Polygon", "coordinates": [square_coords(0, 0, 2)]})
    )
    assert len(load_geojson_polygons(str(path))) == 1


def test_geojson_polygon_without_rings_is_skipped(tmp_path):
    # RFC 7946 lets a processor read empty coordinates as a null geometry.
    empty_polygon = {"type": "Polygon", "coordinates": []}
    empty_part = {"type": "MultiPolygon", "coordinates": [[square_coords(0, 0, 1)], []]}
    path = tmp_path / "truth.geojson"
    for geom, kept in ((empty_polygon, 0), (empty_part, 1)):
        path.write_text(json.dumps(geom))
        assert len(load_geojson_polygons(str(path))) == kept
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": empty_polygon},
            {"type": "Feature", "geometry": empty_part},
            {"type": "Feature", "geometry": {"type": "Polygon",
                                             "coordinates": [square_coords(4, 4, 1)]}},
        ],
    }
    path.write_text(json.dumps(doc))
    polygons = load_geojson_polygons(str(path))
    assert len(polygons) == 2
    labels = rasterize_polygons(polygons, GridSpec(0.0, 0.0, 0.5, 12, 12)).values
    assert labels[0, 0] == 1 and labels[9, 9] == 2


def test_geojson_failures(tmp_path):
    missing = tmp_path / "absent.geojson"
    with pytest.raises(IoFailure):
        load_geojson_polygons(str(missing))
    bad = tmp_path / "bad.geojson"
    bad.write_text("{not json")
    with pytest.raises(IoFailure):
        load_geojson_polygons(str(bad))
    wrong = tmp_path / "wrong.geojson"
    wrong.write_text(json.dumps({"type": "Point", "coordinates": [0, 0]}))
    with pytest.raises(IoFailure):
        load_geojson_polygons(str(wrong))
