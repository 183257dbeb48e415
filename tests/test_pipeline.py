"""Orchestration tests: window planning, mosaicking, product files,
the eval driver, and parameter sweeps."""

import json
import logging
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from lidarmaps import pipeline
from lidarmaps.config import OUTPUT_NAMES, PipelineConfig, serialize_config
from lidarmaps.errors import ConfigError, DegenerateScene, SpecMismatch
from lidarmaps.evaluate import ConfusionMetrics, confusion
from lidarmaps.extract import ExtractParams
from lidarmaps.formats import read_ascii_grid, write_ascii_grid
from lidarmaps.grid import GridSpec, Raster
from lidarmaps.ingest import PointCloud, write_xyz_text
from lidarmaps.pipeline import (
    SWEEPABLE,
    Window,
    _sample_external,
    load_pred_mask,
    load_truth_labels,
    plan_windows,
    run_eval,
    run_pipeline,
    run_sweep,
)

from conftest import points_from_field, raster_of


def cloud_of(field: np.ndarray, gsd: float = 1.0, origin=(0.0, 0.0)) -> PointCloud:
    pts = points_from_field(field, gsd, origin)
    bounds = (
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )
    return PointCloud(pts, bounds, )


def small_cfg(**overrides) -> PipelineConfig:
    base = dict(
        gsd=1.0,
        ht=1.5,
        k1=3,
        k2=3,
        rt=4,
        dt=0.1,
        k3=3,
        water_window=3,
        window_size_m=1000.0,
        overlap_m=6.0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def straddle_field() -> np.ndarray:
    # 6x6 block crossing the core boundary at row/col 20 of a 20 m window
    field = np.zeros((40, 40))
    field[17:23, 17:23] = 6.0
    return field


# ---------------------------------------------------------------------------
# window planning
# ---------------------------------------------------------------------------


def test_plan_cores_partition_grid():
    spec = GridSpec(0.0, 0.0, 1.0, 37, 23)
    windows = plan_windows(spec, 10.0, 3.0)
    painted = np.zeros((spec.height, spec.width), int)
    for w in windows:
        c0, r0, cw, ch = w.core
        painted[r0 : r0 + ch, c0 : c0 + cw] += 1
        pc0, pr0, pw, ph = w.padded
        assert pc0 >= 0 and pr0 >= 0
        assert pc0 + pw <= spec.width and pr0 + ph <= spec.height
        assert pc0 <= c0 and pr0 <= r0
        assert pc0 + pw >= c0 + cw and pr0 + ph >= r0 + ch
    assert (painted == 1).all()
    assert [w.index for w in windows] == list(range(len(windows)))


def test_plan_interior_padding_exact():
    spec = GridSpec(0.0, 0.0, 1.0, 40, 40)
    windows = plan_windows(spec, 10.0, 3.0)
    by_core = {w.core: w for w in windows}
    assert by_core[(10, 10, 10, 10)].padded == (7, 7, 16, 16)
    assert by_core[(0, 0, 10, 10)].padded == (0, 0, 13, 13)
    assert by_core[(30, 30, 10, 10)].padded == (27, 27, 13, 13)


def test_plan_core_cell_rounding():
    spec = GridSpec(0.0, 0.0, 1.0, 10, 7)
    windows = plan_windows(spec, 4.0, 0.0)
    cores = [w.core for w in windows]
    assert cores == [
        (0, 0, 4, 4),
        (4, 0, 4, 4),
        (8, 0, 2, 4),
        (0, 4, 4, 3),
        (4, 4, 4, 3),
        (8, 4, 2, 3),
    ]


def test_plan_tiny_window_one_cell_floor():
    spec = GridSpec(0.0, 0.0, 1.0, 3, 2)
    windows = plan_windows(spec, 0.4, 0.0)
    assert len(windows) == 6
    assert all(w.core[2] == 1 and w.core[3] == 1 for w in windows)


def test_plan_pad_in_cells():
    spec = GridSpec(0.0, 0.0, 0.5, 60, 60)
    windows = plan_windows(spec, 5.0, 2.2)
    mid = [w for w in windows if w.core == (10, 10, 10, 10)]
    assert len(mid) == 1
    # pad = ceil(2.2 / 0.5) = 5 cells
    assert mid[0].padded == (5, 5, 20, 20)


# ---------------------------------------------------------------------------
# external terrain resampling
# ---------------------------------------------------------------------------


def test_sample_external_nearest_cell():
    ext = raster_of(np.arange(25, dtype=float).reshape(5, 5), gsd=2.0, origin=(0.0, 0.0))
    sub = GridSpec(0.5, 0.5, 1.0, 4, 3)
    out = _sample_external(ext, sub)
    cols = [0, 1, 1, 2]
    rows = [0, 1, 1]
    expect = ext.values[np.ix_(rows, cols)]
    assert out.spec == sub
    np.testing.assert_array_equal(out.values, expect)


def test_sample_external_clamps_to_border():
    ext = raster_of(np.arange(16, dtype=float).reshape(4, 4), gsd=1.0, origin=(0.0, 0.0))
    sub = GridSpec(-3.0, -3.0, 1.0, 10, 10)
    out = _sample_external(ext, sub)
    # everything left of / below the grid reads the first cell
    assert out.values[0, 0] == ext.values[0, 0]
    # everything beyond the far corner reads the last cell
    assert out.values[-1, -1] == ext.values[-1, -1]
    # the overlapping interior is passed through untouched
    np.testing.assert_array_equal(out.values[3:7, 3:7], ext.values)


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------


def test_single_window_scene():
    res = run_pipeline(small_cfg(), [cloud_of(straddle_field())])
    assert res.windows == 1
    assert res.empty_windows == 0
    assert res.point_count == 1600
    assert res.spec.width == 40 and res.spec.height == 40
    assert res.spec.origin_x == pytest.approx(0.5)
    assert set(res.products) == set(OUTPUT_NAMES)

    expect2d = np.zeros((40, 40), bool)
    expect2d[16:24, 16:24] = True
    np.testing.assert_array_equal(res.products["map2d"].values, expect2d)
    ndhm = res.products["ndhm"].values
    assert np.allclose(ndhm[17:23, 17:23], 6.0)
    assert np.allclose(res.products["dtm"].values, 0.0)
    diff = res.products["diff"].values
    assert (diff[expect2d & ~(ndhm > 0)] == 4).all()
    assert not res.products["water"].values.any()


def test_merge_order_does_not_change_grid_bytes(tmp_path):
    # Every cell's lowest returns are 0.0 from one cloud and -0.0 from the
    # other: tied minima, which must not take their sign from the order.
    zero, minus_zero = cloud_of(np.zeros((12, 12))), cloud_of(np.full((12, 12), -0.0))
    written = []
    for i, clouds in enumerate(([zero, minus_zero], [minus_zero, zero])):
        out = tmp_path / str(i)
        run_pipeline(small_cfg(outputs=("dsm", "dtm")), clouds, out_dir=str(out))
        written.append([(out / f"{n}.asc").read_bytes() for n in ("dsm", "dtm")])
    assert written[0] == written[1]
    assert b"-0.000" not in written[0][0]


def assert_products_equal(a: dict, b: dict) -> None:
    for name in OUTPUT_NAMES:
        va, vb = a[name].values, b[name].values
        if va.dtype.kind == "f":
            np.testing.assert_array_equal(np.isnan(va), np.isnan(vb), err_msg=name)
            np.testing.assert_array_equal(
                va[~np.isnan(va)], vb[~np.isnan(vb)], err_msg=name
            )
        else:
            np.testing.assert_array_equal(va, vb, err_msg=name)


def test_mosaic_matches_single_window():
    cloud = cloud_of(straddle_field())
    tiled = run_pipeline(small_cfg(window_size_m=20.0), [cloud])
    mono = run_pipeline(small_cfg(), [cloud])
    assert tiled.windows == 4 and mono.windows == 1
    assert tiled.products["map2d"].values.any()
    assert_products_equal(tiled.products, mono.products)


def test_parallel_workers_match_serial(monkeypatch):
    cloud = cloud_of(straddle_field())
    serial = run_pipeline(small_cfg(window_size_m=20.0), [cloud], workers=1)
    parallel = run_pipeline(small_cfg(window_size_m=20.0), [cloud], workers=2)
    assert_products_equal(serial.products, parallel.products)

    # One window runs in-process whatever `workers` asks for: no pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-window run started a process pool")

    monkeypatch.setattr("lidarmaps.pipeline.ProcessPoolExecutor", no_pool)
    one = run_pipeline(small_cfg(), [cloud], workers=1)
    assert one.windows == 1
    one_parallel = run_pipeline(small_cfg(), [cloud], workers=2)
    assert_products_equal(one.products, one_parallel.products)


def test_empty_window_core_stays_nodata(caplog):
    field = np.zeros((10, 40))
    field[:, 4:26] = np.nan
    cloud = cloud_of(field)
    with caplog.at_level(logging.WARNING, logger="lidarmaps.pipeline"):
        res = run_pipeline(small_cfg(window_size_m=10.0), [cloud])
    assert res.windows == 4
    assert res.empty_windows == 1
    assert any(
        r.getMessage() == "window 1 is empty; its core stays nodata"
        for r in caplog.records
    )
    assert np.isnan(res.products["dsm"].values[:, 10:20]).all()
    assert np.isnan(res.products["ndhm"].values[:, 10:20]).all()
    assert not res.products["map2d"].values[:, 10:20].any()
    assert (res.products["diff"].values[:, 10:20] == 0).all()
    # neighbours still produced values
    assert np.isfinite(res.products["dsm"].values[:, 0:4]).all()


def test_file_inputs_match_memory(tmp_path):
    cloud = cloud_of(straddle_field())
    path = str(tmp_path / "scene.xyz")
    write_xyz_text(cloud.points, path)
    from_file = run_pipeline(small_cfg(), [path])
    from_mem = run_pipeline(small_cfg(), [cloud])
    assert_products_equal(from_file.products, from_mem.products)
    # duplicated input changes the count but not the minimum surface
    merged = run_pipeline(small_cfg(), [cloud, path])
    assert merged.point_count == 3200
    assert_products_equal(merged.products, from_mem.products)


def test_forced_input_format(tmp_path):
    cloud = cloud_of(straddle_field())
    path = str(tmp_path / "scene.dat")
    write_xyz_text(cloud.points, path)
    res = run_pipeline(small_cfg(), [path], input_format="xyz")
    assert res.point_count == 1600


def test_empty_inputs_rejected():
    with pytest.raises(ConfigError):
        run_pipeline(small_cfg(), [])


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2"])
def test_workers_must_be_positive_integer(tmp_path, workers):
    cloud = cloud_of(np.zeros((12, 12)))
    with pytest.raises(ConfigError, match="^workers must be a positive integer"):
        run_pipeline(small_cfg(), [cloud], workers=workers)
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps({"type": "Polygon", "coordinates": [
        [[2, 2], [6, 2], [6, 6], [2, 6], [2, 2]]
    ]}))
    with pytest.raises(ConfigError, match="^workers must be a positive integer"):
        run_sweep(small_cfg(), "k1", [3], [cloud], str(truth), workers=workers)


def test_stage_error_names_window():
    field = np.indices((12, 12)).sum(axis=0) % 2 * 8.0
    with pytest.raises(DegenerateScene, match=r"^window 0 \(0, 0, 12, 12\): "):
        run_pipeline(small_cfg(), [cloud_of(field)])


def test_external_dtm_grid_and_path(tmp_path):
    field = np.full((20, 20), 10.0)
    cloud = cloud_of(field)
    ext = raster_of(np.full((6, 6), 3.0), gsd=5.0, origin=(0.0, 0.0))
    res = run_pipeline(small_cfg(), [cloud], external_dtm=ext)
    assert np.allclose(res.products["dtm"].values, 3.0)
    assert np.allclose(res.products["ndhm"].values, 7.0)
    assert res.products["map2d"].values.all()
    assert np.allclose(res.products["map3d"].values, 7.0)

    path = str(tmp_path / "ref_dtm.asc")
    write_ascii_grid(path, ext)
    res2 = run_pipeline(small_cfg(), [cloud], external_dtm=path)
    np.testing.assert_array_equal(res.products["dtm"].values, res2.products["dtm"].values)


@pytest.mark.parametrize(
    "origin,gsd", [((-3.3, -1.7), 0.7), ((0.123, 0.456), 0.3), ((0.0, 0.0), 0.25)]
)
def test_windowed_dtm_is_one_global_sample(origin, gsd):
    # Each window cuts its box of one global resample, so the dtm mosaic is
    # that resample cell for cell, overlaps included.
    ext_shape = (int(45 / gsd), int(45 / gsd))
    values = np.random.default_rng(5).uniform(-1.0, 1.0, ext_shape)
    ext = raster_of(values, gsd=gsd, origin=origin)
    res = run_pipeline(small_cfg(window_size_m=20.0), [cloud_of(straddle_field())],
                       external_dtm=ext, workers=2)
    assert res.windows == 4
    np.testing.assert_array_equal(
        res.products["dtm"].values, _sample_external(ext, res.spec).values
    )


# ---------------------------------------------------------------------------
# product files
# ---------------------------------------------------------------------------


def test_write_products_default_outputs(tmp_path):
    cfg = small_cfg(window_size_m=20.0)
    out = tmp_path / "run"
    res = run_pipeline(cfg, [cloud_of(straddle_field())], out_dir=str(out))
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt",
        "map2d.asc",
        "map3d.asc",
        "summary.txt",
    ]
    assert (out / "config.txt").read_text() == serialize_config(cfg)

    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    assert summary["grid"] == "40x40"
    assert summary["gsd"] == "1.0"
    assert summary["windows"] == "4"
    assert summary["empty_windows"] == "0"
    assert summary["points"] == "1600"
    assert summary["dropped_nonfinite"] == "0"
    assert int(summary["map2d_cells"]) == int(res.products["map2d"].values.sum())
    assert summary["water_cells"] == "0"

    mask = load_pred_mask(str(out / "map2d.asc"))
    np.testing.assert_array_equal(mask.values, res.products["map2d"].values)


def test_write_products_custom_outputs(tmp_path):
    cfg = small_cfg(outputs=("dsm", "ndhm", "map2d"))
    assert cfg.outputs == ("map2d", "dsm", "ndhm")
    out = tmp_path / "run"
    res = run_pipeline(cfg, [cloud_of(straddle_field())], out_dir=str(out))
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.txt", "dsm.asc", "map2d.asc", "ndhm.asc", "summary.txt"]
    back = read_ascii_grid(str(out / "dsm.asc"))
    assert back.spec == res.spec
    np.testing.assert_allclose(back.values, res.products["dsm"].values, atol=1e-3)


def test_product_files_byte_identical(tmp_path):
    cfg = small_cfg(window_size_m=20.0)
    cloud = cloud_of(straddle_field())
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, [cloud], out_dir=str(a))
    run_pipeline(cfg, [cloud], out_dir=str(b))
    for name in ("map2d.asc", "map3d.asc", "config.txt", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# eval driver
# ---------------------------------------------------------------------------


def eval_pred() -> Raster:
    mask = np.zeros((20, 40), bool)
    mask[2:8, 3:9] = True
    mask[12:18, 25:35] = True
    return raster_of(mask, gsd=1.0)


def test_load_pred_mask_thresholds(tmp_path):
    vals = np.array([[0.0, 1.0], [np.nan, 0.4]])
    path = str(tmp_path / "pred.asc")
    write_ascii_grid(path, raster_of(vals, gsd=1.0))
    mask = load_pred_mask(path)
    np.testing.assert_array_equal(mask.values, [[False, True], [False, False]])


def test_load_truth_labels_from_grid(tmp_path):
    pred = eval_pred()
    path = str(tmp_path / "truth.asc")
    write_ascii_grid(path, raster_of(pred.values.astype(float), gsd=1.0))
    labels = load_truth_labels(path, pred.spec)
    assert labels.values.max() == 2
    assert set(np.unique(labels.values)) == {0, 1, 2}
    np.testing.assert_array_equal(labels.values > 0, pred.values)
    with pytest.raises(SpecMismatch):
        load_truth_labels(path, GridSpec(0.0, 0.0, 1.0, 39, 20))


def test_load_truth_labels_from_geojson(tmp_path):
    spec = GridSpec(0.0, 0.0, 1.0, 10, 10)
    gj = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[2, 2], [6, 2], [6, 7], [2, 7], [2, 2]]],
                },
            }
        ],
    }
    path = str(tmp_path / "truth.geojson")
    with open(path, "w", encoding="ascii") as f:
        json.dump(gj, f)
    labels = load_truth_labels(path, spec)
    expect = np.zeros((10, 10), bool)
    expect[2:7, 2:6] = True
    np.testing.assert_array_equal(labels.values > 0, expect)


def test_run_eval_reports(tmp_path):
    pred = eval_pred()
    tpath = str(tmp_path / "truth.asc")
    write_ascii_grid(tpath, raster_of(pred.values.astype(float), gsd=1.0))
    truth = load_truth_labels(tpath, pred.spec)
    out = tmp_path / "eval"
    res = run_eval(pred, truth, tile_size=10.0, out_dir=str(out))

    assert res.cells.iou == 1.0
    assert res.cells.tp == int(pred.values.sum())
    assert res.instances.detection_rate == 1.0
    assert res.instances.commission_rate == 0.0

    summary = (out / "eval_summary.txt").read_text().splitlines()
    assert summary[0] == "== cells =="
    assert summary[1] == f"tp={res.cells.tp} fp=0 fn=0 tn={res.cells.tn}"
    assert "iou=1.000000" in summary

    tiles = (out / "tiles.txt").read_text().splitlines()
    assert tiles[1] == "# rank tile_id x0 y0 x1 y1 tp fp fn tn iou"
    assert len(tiles) == 2 + res.tiles.tile_count
    assert res.tiles.tile_count == 8

    inst = (out / "instances.txt").read_text().splitlines()
    assert len(inst) == 1 + len(res.instances.bands)
    assert all(len(row.split()) == 8 for row in inst[1:])
    assert inst[-1].split()[1] == "inf"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_scene(tmp_path) -> tuple[PointCloud, str]:
    field = np.zeros((40, 40))
    field[10:18, 6:10] = 6.0  # 4 m wide: removed once k1 >= 5
    field[10:18, 20:28] = 6.0  # 8 m wide: survives k1 <= 7
    gj = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[6.5, 10.5], [10.5, 10.5], [10.5, 18.5], [6.5, 18.5], [6.5, 10.5]]
                    ],
                },
            },
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[20.5, 10.5], [28.5, 10.5], [28.5, 18.5], [20.5, 18.5], [20.5, 10.5]]
                    ],
                },
            },
        ],
    }
    path = str(tmp_path / "truth.geojson")
    with open(path, "w", encoding="ascii") as f:
        json.dump(gj, f)
    return cloud_of(field), path


def test_sweep_rejects_bad_requests(tmp_path):
    cloud, truth = sweep_scene(tmp_path)
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(), "gsd", [1.0], [cloud], truth)
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(), "k1", [], [cloud], truth)


def test_sweep_k1_orders_values_and_reports(tmp_path):
    cloud, truth = sweep_scene(tmp_path)
    cfg = small_cfg(overlap_m=10.0)
    out = tmp_path / "sweep"
    rows = run_sweep(cfg, "k1", [7, 3, 5], [cloud], truth, out_dir=str(out))

    assert [v for v, _ in rows] == [3, 5, 7]
    assert all(isinstance(m, ConfusionMetrics) for _, m in rows)
    recalls = [m.recall for _, m in rows]
    assert recalls[0] == 1.0
    assert recalls[0] >= recalls[1] >= recalls[2]
    assert recalls[2] < 1.0

    lines = (out / "sweep.txt").read_text().splitlines()
    assert lines[0] == "# sweep param=k1"
    assert lines[1] == "# value iou precision recall f1 tp fp fn tn"
    assert len(lines) == 5
    assert [row.split()[0] for row in lines[2:]] == ["3", "5", "7"]
    assert all(len(row.split()) == 9 for row in lines[2:])


def test_cloud_gridded_once(tmp_path, monkeypatch):
    grids = []
    real = pipeline.rasterize_min

    def counted(points, spec):
        grids.append(real(points, spec))
        return grids[-1]

    sampled = []
    real_sample = pipeline._sample_external

    def sample_counted(ext, spec):
        sampled.append(real_sample(ext, spec))
        return sampled[-1]

    monkeypatch.setattr(pipeline, "rasterize_min", counted)
    monkeypatch.setattr(pipeline, "_sample_external", sample_counted)
    ext = raster_of(np.zeros((8, 8)), gsd=5.0)
    res = run_pipeline(small_cfg(window_size_m=20.0), [cloud_of(straddle_field())],
                       external_dtm=ext)
    assert res.windows == 4 and len(grids) == 1 and len(sampled) == 1
    # windows get views into overlapping boxes of the three global grids
    dsm, occ = grids[0]
    assert not dsm.values.flags.writeable and not occ.values.flags.writeable
    assert sampled[0].spec == res.spec and not sampled[0].values.flags.writeable

    cloud, truth_path = sweep_scene(tmp_path)
    grids.clear()
    rows = run_sweep(small_cfg(window_size_m=20.0, overlap_m=10.0), "k1", [3, 5, 7],
                     [cloud], truth_path)
    assert len(rows) == 3 and len(grids) == 1
    assert grids[0][0].spec.shape == (40, 40)  # 4 windows of 20 cells


SWEEP_VALUES = {"k1": [7, 3, 5], "dt": [0.1, 0.95, 0.5], "k3": [1, 5, 3], "ht": [7.0, 1.0, 3.0]}


def test_sweep_rows_match_pipeline_runs(tmp_path):
    cloud, truth_path = sweep_scene(tmp_path)
    # a rough narrow roof gives dt a component to drop
    pts = cloud.points.copy()
    narrow = (pts[:, 2] > 0) & (pts[:, 0] < 15)
    pts[narrow, 2] += np.random.default_rng(3).integers(0, 5, np.count_nonzero(narrow))
    cloud = PointCloud(pts, cloud.bounds, )
    cfg = small_cfg(window_size_m=20.0, overlap_m=10.0)
    assert set(SWEEP_VALUES) == set(SWEEPABLE)
    for param, values in SWEEP_VALUES.items():
        expected = []
        for v in sorted(values):
            res = run_pipeline(replace(cfg, **{param: v}), [cloud])
            assert res.windows == 4
            truth = load_truth_labels(truth_path, res.spec)
            truth_mask = truth.with_values(truth.values > 0)
            expected.append((v, confusion(res.products["map2d"], truth_mask)))
        assert len({(m.tp, m.fp) for _, m in expected}) > 1, f"{param} changes nothing"
        for workers in (1, 2):
            assert run_sweep(cfg, param, values, [cloud], truth_path, workers=workers) == expected


def test_sweep_runs_surface_once_per_window(tmp_path, monkeypatch):
    field = np.zeros((10, 40))
    field[:, 4:26] = np.nan  # the padded box of window 1 holds no point
    field[2:8, 30:36] = 6.0
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps({"type": "Polygon", "coordinates": [
        [[30.5, 2.5], [36.5, 2.5], [36.5, 8.5], [30.5, 8.5], [30.5, 2.5]]
    ]}))
    calls = []
    real = pipeline.derive_terrain

    def counted(dsm, *args, **kwargs):
        calls.append(dsm.spec)
        return real(dsm, *args, **kwargs)

    monkeypatch.setattr(pipeline, "derive_terrain", counted)
    cfg = small_cfg(window_size_m=10.0)
    rows = run_sweep(cfg, "k3", [1, 3, 5], [cloud_of(field)], str(truth))
    assert [v for v, _ in rows] == [1, 3, 5]
    assert rows[0][1].fp < rows[1][1].fp < rows[2][1].fp
    # four windows, one empty: one terrain pass for each of the other three
    assert len(calls) == 3 == len(set(calls))


def test_sweepable_params_are_extraction_settings():
    # The surface stages never see ExtractParams, so a sweep may share them
    # between values only while every sweepable parameter is one of its fields.
    assert set(SWEEPABLE) <= {f.name for f in fields(ExtractParams)}
