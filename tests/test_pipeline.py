"""Orchestration tests: window planning, mosaicking, product files,
the eval driver, and parameter sweeps."""

import json
import logging
import os
import re
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from lidarmaps import _kernels, ingest, pipeline
from lidarmaps.config import OUTPUT_NAMES, PipelineConfig, serialize_config
from lidarmaps.errors import ConfigError, DegenerateScene, IoFailure, SpecMismatch
from lidarmaps.evaluate import (
    ConfusionMetrics,
    confusion,
    load_pred_mask,
    load_truth_labels,
    run_eval,
)
from lidarmaps.extract import ExtractParams
from lidarmaps.formats import read_ascii_grid, write_ascii_grid
from lidarmaps.grid import GridSpec, Raster
from lidarmaps.ingest import PointCloud
from lidarmaps.pipeline import (
    SWEEPABLE,
    Window,
    _sample_external,
    plan_windows,
    run_pipeline,
    run_sweep,
)

from conftest import (
    SECOND_PASS_CHANGES,
    build_las,
    change_second_las_pass,
    dequantize_las,
    flood_labels,
    pipeline_oracle,
    points_from_field,
    raster_of,
    write_xyz_text,
)


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
    res = run_pipeline(small_cfg(outputs=OUTPUT_NAMES), [cloud_of(straddle_field())])
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


@pytest.mark.parametrize("window_size_m", [1000.0, 20.0], ids=["one_window", "four_windows"])
def test_products_are_the_outputs_plus_map2d_and_water(window_size_m):
    # A run keeps only the grids it writes, plus map2d and water, which
    # the summary counts, in output order; each is the grid of a
    # seven-grid run.
    cloud = cloud_of(straddle_field())
    every = run_pipeline(small_cfg(window_size_m=window_size_m, outputs=OUTPUT_NAMES), [cloud])
    for outputs, kept in (
        (("map2d", "map3d"), ["map2d", "map3d", "water"]),
        (("diff", "dsm"), ["map2d", "dsm", "water", "diff"]),
        (("water", "ndhm"), ["map2d", "ndhm", "water"]),
    ):
        cfg = small_cfg(window_size_m=window_size_m, outputs=outputs)
        products = run_pipeline(cfg, [cloud]).products
        assert list(products) == kept
        for name, product in products.items():
            want = every.products[name].values
            assert product.values.dtype == want.dtype, name
            assert product.values.tobytes() == want.tobytes(), name


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
    tiled = run_pipeline(small_cfg(window_size_m=20.0, outputs=OUTPUT_NAMES), [cloud])
    mono = run_pipeline(small_cfg(outputs=OUTPUT_NAMES), [cloud])
    assert tiled.windows == 4 and mono.windows == 1
    assert tiled.products["map2d"].values.any()
    assert_products_equal(tiled.products, mono.products)


def test_parallel_workers_match_serial(monkeypatch):
    # `workers` is validated but starts no pool: two workers run the same
    # windows in this process and give the grids of one.
    def no_pool(*args, **kwargs):
        raise AssertionError("a run started a process pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cloud = cloud_of(straddle_field())
    for cfg, windows in ((small_cfg(window_size_m=20.0, outputs=OUTPUT_NAMES), 4),
                         (small_cfg(outputs=OUTPUT_NAMES), 1)):
        serial = run_pipeline(cfg, [cloud], workers=1)
        parallel = run_pipeline(cfg, [cloud], workers=2)
        assert serial.windows == parallel.windows == windows
        assert_products_equal(serial.products, parallel.products)


def test_windows_hold_one_window_of_grids_at_a_time(tmp_path, monkeypatch):
    # Each grid a window returns is a core view on one of that window's
    # padded grids; every one of them is freed before the next window starts.
    real = pipeline._window_products
    refs = []

    def tracked(*args, **kwargs):
        alive = [r for r in refs if r() is not None]
        assert not alive, f"{len(alive)} grids of an earlier window are alive"
        cores = real(*args, **kwargs)
        refs.extend(weakref.ref(v.base) for c in cores or () for v in c.values())
        return cores

    monkeypatch.setattr(pipeline, "_window_products", tracked)
    cloud = cloud_of(straddle_field())
    cfg = small_cfg(window_size_m=20.0, outputs=OUTPUT_NAMES)
    assert run_pipeline(cfg, [cloud]).windows == 4
    assert len(refs) == 4 * len(OUTPUT_NAMES)
    # The mosaics hold copies, so the last window's grids are freed too.
    assert all(r() is None for r in refs)
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps({"type": "Polygon", "coordinates": [
        [[2, 2], [6, 2], [6, 6], [2, 6], [2, 2]]
    ]}))
    refs.clear()
    run_sweep(cfg, "k3", [1, 3, 5], [cloud], str(truth), workers=2)
    assert len(refs) == 4 * 3 and all(r() is None for r in refs)


@pytest.mark.parametrize(
    "command", ["map", "map all outputs", "sweep", "sweep map3d from dsm", "sweep external dtm"]
)
def test_one_window_frees_each_grid_after_its_last_reader(tmp_path, monkeypatch, command):
    # In a one-window run the raw min-z grid is freed once the fill has
    # read it and the occupancy grid once water has; a map of the default
    # outputs writes ndhm over dtm, and frees dsm unless map3d is made from
    # it, before extraction, and a sweep, which makes no map3d, frees dsm
    # whatever its map3d_source; an external terrain grid, sampled onto
    # the map's grid, is kept as dtm and freed once terrain has read it.
    # Each grid is watched through a weak reference.
    refs = {}
    alive_at = {}

    def alive():
        return sorted(name for name, ref in refs.items() if ref() is not None)

    def watch(name, real, keep):
        def wrapped(*args, **kwargs):
            alive_at.setdefault(name, alive())
            out = real(*args, **kwargs)
            for grid, values in keep(out).items():
                refs[grid] = weakref.ref(values)
            return out
        monkeypatch.setattr(pipeline, name, wrapped)

    watch("rasterize_min_clouds", pipeline.rasterize_min_clouds,
          lambda out: {"min_z": out[0].values, "occupied": out[1].values})
    watch("interpolate_nearest", pipeline.interpolate_nearest, lambda out: {})
    watch("detect_water", pipeline.detect_water, lambda out: {})
    kept_dtm = []

    def terrain_grids(out):
        kept_dtm.append(out.dtm is not None)
        return {"dsm": out.dsm.values, **({} if out.dtm is None else {"dtm": out.dtm.values})}

    watch("derive_terrain", pipeline.derive_terrain, terrain_grids)
    watch("extract_buildings", pipeline.extract_buildings, lambda out: {})
    watch("_sample_external", pipeline._sample_external,
          lambda out: {"external": out.values})
    cloud, truth_path = sweep_scene(tmp_path)
    if command == "map":
        run_pipeline(small_cfg(), [cloud])
        kept = []
    elif command == "map all outputs":
        run_pipeline(small_cfg(outputs=OUTPUT_NAMES), [cloud])
        kept = ["dsm", "dtm"]
    elif command == "sweep external dtm":
        ext = raster_of(np.zeros((8, 8)), gsd=5.0)
        run_sweep(small_cfg(), "k3", [1, 3], [cloud], truth_path, external_dtm=ext)
        assert alive_at == {
            "rasterize_min_clouds": [],
            "_sample_external": ["min_z", "occupied"],
            "interpolate_nearest": ["external", "min_z", "occupied"],
            "detect_water": ["external", "occupied"],
            "derive_terrain": ["external"],
            "extract_buildings": [],
        }
        assert kept_dtm == [True]
        return
    else:
        source = "dsm" if command.endswith("dsm") else "ndhm"
        run_sweep(small_cfg(map3d_source=source), "k3", [1, 3], [cloud], truth_path)
        kept = []
    assert alive_at == {
        "rasterize_min_clouds": [],
        "interpolate_nearest": ["min_z", "occupied"],
        "detect_water": ["occupied"],
        "derive_terrain": [],
        "extract_buildings": kept,
    }
    assert kept_dtm == ["dtm" in kept]


def test_empty_window_core_stays_nodata(caplog):
    field = np.zeros((10, 40))
    field[:, 4:26] = np.nan
    cloud = cloud_of(field)
    with caplog.at_level(logging.WARNING, logger="lidarmaps.pipeline"):
        res = run_pipeline(small_cfg(window_size_m=10.0, outputs=OUTPUT_NAMES), [cloud])
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
    cfg = small_cfg(outputs=OUTPUT_NAMES)
    from_file = run_pipeline(cfg, [path])
    from_mem = run_pipeline(cfg, [cloud])
    assert_products_equal(from_file.products, from_mem.products)
    # duplicated input changes the count but not the minimum surface
    merged = run_pipeline(cfg, [cloud, path])
    assert merged.point_count == 3200
    assert_products_equal(merged.products, from_mem.products)


def test_las_files_grid_as_they_are_read(tmp_path, monkeypatch):
    # A LAS input is scanned for its bounds, then gridded chunk by chunk as
    # it is read again; read_las, which holds every point, is not called.
    # The products, counts and summary equal those of the clouds read_las
    # returns, here over chunks of 7 records gridded in blocks of 5 points.
    pts = points_from_field(straddle_field(), 1.0)
    west = pts[:, 0] < 20.0
    a, b = str(tmp_path / "west.las"), str(tmp_path / "east.las")
    with open(a, "wb") as f:
        f.write(build_las(pts[west]))
    # A z scale of 2^1023 makes every non-zero z of the east file
    # infinite: its 18 roof points and one raised ground point are dropped.
    east = pts[~west].copy()
    east[0, 2] = 0.003
    las = bytearray(build_las(east))
    las[147:155] = np.float64(2.0**1023).tobytes()
    with open(b, "wb") as f:
        f.write(las)
    with np.errstate(over="ignore"):
        clouds = [ingest.read_las(a), ingest.read_las(b)]
    assert clouds[1].dropped_nonfinite == 19
    cfg = small_cfg(outputs=OUTPUT_NAMES)
    want = run_pipeline(cfg, clouds, out_dir=str(tmp_path / "memory"))

    def held_whole(path):
        raise AssertionError("read_las holds the whole file")

    monkeypatch.setattr(ingest, "read_las", held_whole)
    monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 7)
    monkeypatch.setattr(_kernels, "_BLOCK", 5)
    with np.errstate(over="ignore"):
        got = run_pipeline(cfg, [a, b], out_dir=str(tmp_path / "files"))
    assert got.spec == want.spec
    assert (got.point_count, got.dropped_nonfinite) == (want.point_count, 19) == (1581, 19)
    assert_products_equal(got.products, want.products)
    files = sorted(p.name for p in (tmp_path / "files").iterdir())
    assert files == sorted(["config.txt", "summary.txt", *(f"{n}.asc" for n in OUTPUT_NAMES)])
    for name in files:
        assert (tmp_path / "files" / name).read_bytes() == (tmp_path / "memory" / name).read_bytes()


@pytest.mark.parametrize("change", sorted(SECOND_PASS_CHANGES))
def test_map_rejects_a_las_file_changed_between_passes(tmp_path, monkeypatch, change):
    # The scan counts the file's finite points and sizes the grid; a
    # gridding pass that reads another number of them is an IoFailure,
    # not a map of what it read under the scan's point count.
    path = str(tmp_path / "scene.las")
    with open(path, "wb") as f:
        f.write(build_las(points_from_field(straddle_field(), 1.0)))
    assert run_pipeline(small_cfg(), [path]).point_count == 1600
    change_second_las_pass(monkeypatch, change)
    then = SECOND_PASS_CHANGES[change]
    with pytest.raises(IoFailure, match=(
        f"^{re.escape(path)} changed while it was read: 1600 finite points, then {then}$"
    )):
        run_pipeline(small_cfg(), [path])


def oracle_scene(rng: np.random.Generator, gsd: float, terrace: bool) -> np.ndarray:
    """Points of a random scene of 30-40 cells a side at `gsd`: 1-3
    returns per cell (a few cells none) over ground that is flat at
    exactly 0.0 m, then ramps up 0.3 m per cell; on it two flat-roofed
    blocks (at the border or not), two rough tree crowns, a 3 x 3 cell
    void patch and a round pond with no returns.  With `terrace` the
    ground steps up 2 m across the whole scene, so a smooth region other
    than the largest touches the border; else a 2-cell wall 2 cells in
    from the border seals the largest smooth region off from it."""
    h, w = (int(v) for v in rng.integers(30, 41, 2))
    per_cell = rng.integers(1, 4, (h, w))
    per_cell[rng.random((h, w)) < 0.04] = 0
    i, j = np.indices((h, w))
    pi, pj = rng.integers(12, h - 12), rng.integers(12, w - 12)
    per_cell[np.hypot(i - pi, j - pj) < rng.uniform(3.5, 6.0)] = 0
    vi, vj = rng.integers(2, h - 5), rng.integers(2, w - 5)
    per_cell[vi:vi + 3, vj:vj + 3] = 0
    per_cell[0, 0] = per_cell[-1, -1] = 1  # the scene spans the whole grid
    rows = np.repeat(i.ravel(), per_cell.ravel())
    cols = np.repeat(j.ravel(), per_cell.ravel())
    # A fifth of the returns lie on their cell's lower-left edges.
    edge = rng.random((2, len(rows))) < 0.2
    u = np.where(edge, 0.0, rng.random((2, len(rows))))
    ci, cj = rows + u[0], cols + u[1]
    ramp = rng.integers(8, w - 8)
    z = 0.3 * np.clip(cj - ramp, 0.0, None)
    if terrace:
        z[ci >= rng.integers(4, 8)] += 2.0
    else:
        inset = np.minimum(np.minimum(ci, h - ci), np.minimum(cj, w - cj))
        z[(inset >= 2) & (inset < 4)] += 3.0
    for _ in range(2):
        bh, bw = rng.integers(5, 9, 2)
        bi, bj = rng.integers(0, h - bh + 1), rng.integers(0, w - bw + 1)
        roof = (ci >= bi) & (ci < bi + bh) & (cj >= bj) & (cj < bj + bw)
        z[roof] = z[roof].max() + rng.uniform(3.0, 8.0)
    for _ in range(2):
        ti, tj = rng.uniform(4, h - 4), rng.uniform(4, w - 4)
        crown = np.hypot(ci - ti, cj - tj) < rng.uniform(2.0, 4.0)
        z[crown] += rng.uniform(2.0, 10.0, np.count_nonzero(crown))
    x0, y0 = rng.uniform(-50.0, 50.0, 2)
    pts = np.column_stack([x0 + cj * gsd, y0 + ci * gsd, z])
    return pts[rng.permutation(len(pts))]


def test_run_pipeline_matches_chain_oracle(tmp_path):
    # All seven grids of run_pipeline equal pipeline_oracle's, bit for bit,
    # on random scenes written as two LAS files, run three ways: on the
    # paths (read as they are gridded), on load_points of each, and on the
    # oracle's own dequantization of the file bytes in memory.  The second
    # file stores z with a negative scale and a -0.0 offset, so its ground
    # is -0.0 where the first file's is 0.0: the two tie.  Each scene runs
    # twice: first with no water area floor and no buffer, so the water
    # grid holds every flagged body, then with the floor at exactly one
    # body's area and a buffer of a fractional number of cells.
    rng = np.random.default_rng(57)
    seen, bodies_dropped = np.zeros(5, int), 0
    for trial in range(5):
        gsd = (1.0, 0.5)[trial % 2]
        pts = oracle_scene(rng, gsd, terrace=trial % 2 == 0)
        paths, parts = [], []
        for k, (scale, offset) in enumerate(((0.001, 0.0), (-0.001, -0.0))):
            data = build_las(pts[k::2], scale=(0.001, 0.001, scale), offset=(0.0, 0.0, offset))
            paths.append(str(tmp_path / f"scene{trial}_{k}.las"))
            with open(paths[-1], "wb") as f:
                f.write(data)
            parts.append(dequantize_las(data)[0])
        points = np.concatenate(parts)
        zeros = np.signbit(points[points[:, 2] == 0.0, 2])
        assert zeros.any() and not zeros.all()
        bounds = (*points[:, :2].min(axis=0), *points[:, :2].max(axis=0))
        cfg = small_cfg(
            gsd=gsd, dt=0.5, kernel_shape=("square", "diamond")[trial % 2],
            median_roof=(0, 3)[trial % 3 == 2], map3d_source=("ndhm", "dsm")[trial % 4 == 3],
            water_window=int(rng.choice([3, 5])), water_min_area=1e-9, water_buffer=0.0,
            overlap_m=12.0, outputs=OUTPUT_NAMES,
        )
        for run in range(2):
            want = pipeline_oracle(points, cfg)
            for inputs in (paths, [ingest.load_points(p) for p in paths],
                           [PointCloud(points, bounds)]):
                res = run_pipeline(cfg, inputs)
                assert res.windows == 1
                for name in OUTPUT_NAMES:
                    got = res.products[name].values
                    assert got.dtype == want[name].dtype, (trial, run, name)
                    assert got.tobytes() == want[name].tobytes(), (trial, run, name)
            sizes = np.sort(np.bincount(flood_labels(want["water"], eight=True)[0].ravel())[1:])
            floor = int(sizes[len(sizes) // 2])
            cfg = replace(
                cfg, water_min_area=floor * gsd**2,
                water_buffer=float(rng.choice([0.4, 1.2, 2.0])) * gsd,
            )
        bodies_dropped += int(np.count_nonzero(sizes < floor))
        seen += np.bincount(want["diff"].ravel(), minlength=5) > 0
    # Between them the scenes drop water bodies under the floor, remove
    # candidates by water, opening and planarity, and add cells by the
    # dilation.
    assert bodies_dropped and (seen > 0).all(), (bodies_dropped, seen)


def test_forced_input_format(tmp_path):
    cloud = cloud_of(straddle_field())
    path = str(tmp_path / "scene.dat")
    write_xyz_text(cloud.points, path)
    res = run_pipeline(small_cfg(), [path], input_format="xyz")
    assert res.point_count == 1600


def test_empty_inputs_rejected():
    with pytest.raises(ConfigError):
        run_pipeline(small_cfg(), [])


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
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
    cfg = small_cfg(outputs=OUTPUT_NAMES)
    res = run_pipeline(cfg, [cloud], external_dtm=ext)
    assert np.allclose(res.products["dtm"].values, 3.0)
    assert np.allclose(res.products["ndhm"].values, 7.0)
    assert res.products["map2d"].values.all()
    assert np.allclose(res.products["map3d"].values, 7.0)

    path = str(tmp_path / "ref_dtm.asc")
    write_ascii_grid(path, ext)
    res2 = run_pipeline(cfg, [cloud], external_dtm=path)
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
    res = run_pipeline(small_cfg(window_size_m=20.0, outputs=("dtm",)),
                       [cloud_of(straddle_field())], external_dtm=ext, workers=2)
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


def test_two_inputs_grid_together(tmp_path):
    # Two XYZ files, the west and the east half of the field, the second
    # with one non-finite point: the grid spans the union of their bounds
    # and summary.txt counts the points of both.
    cfg = small_cfg(window_size_m=20.0, outputs=OUTPUT_NAMES)
    one = run_pipeline(cfg, [cloud_of(straddle_field())])
    pts = points_from_field(straddle_field(), 1.0)
    west = pts[:, 0] < 20.0
    a, b = tmp_path / "west.xyz", tmp_path / "east.xyz"
    write_xyz_text(pts[west], str(a))
    write_xyz_text(pts[~west], str(b))
    with open(b, "a", encoding="utf-8") as f:
        f.write("30.5 3.5 nan\n")
    out = tmp_path / "run"
    res = run_pipeline(cfg, [str(a), str(b)], out_dir=str(out))
    assert res.spec == one.spec == GridSpec(0.5, 0.5, 1.0, 40, 40)
    assert (res.point_count, res.dropped_nonfinite) == (1600, 1)
    assert list(res.products) == list(one.products) == list(OUTPUT_NAMES)
    for name, product in one.products.items():
        np.testing.assert_array_equal(res.products[name].values, product.values)
    summary = (out / "summary.txt").read_text().splitlines()
    assert "points=1600" in summary and "dropped_nonfinite=1" in summary


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
    real = pipeline.rasterize_min_clouds

    def counted(clouds, spec, *box):
        grids.append(real(clouds, spec, *box))
        return grids[-1]

    sampled = []
    real_sample = pipeline._sample_external

    def sample_counted(ext, spec):
        sampled.append(real_sample(ext, spec))
        return sampled[-1]

    monkeypatch.setattr(pipeline, "rasterize_min_clouds", counted)
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


SWEEP_VALUES = {
    "ht": [7.0, 1.0, 3.0], "k1": [7, 3, 5], "k2": [5, 3, 7], "rt": [4, 1, 2], "dt": [0.1, 0.95, 0.5],
    "k3": [1, 5, 3], "kernel_shape": ["square", "diamond"], "median_roof": [0, 3],
    "map3d_source": ["ndhm", "dsm"],
}
# These shape only map3d, so their sweep rows repeat.
MAP3D_ONLY = {"median_roof", "map3d_source"}


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
        distinct = len({(m.tp, m.fp) for _, m in expected})
        if param in MAP3D_ONLY:
            assert distinct == 1, f"{param} changes map2d"
        else:
            assert distinct > 1, f"{param} changes nothing"
        for workers in (1, 2):
            assert run_sweep(cfg, param, values, [cloud], truth_path, workers=workers) == expected


def test_sweep_rejects_a_repeated_value_before_reading(tmp_path):
    # Nothing is read: the input does not exist.
    missing = str(tmp_path / "missing.las")
    with pytest.raises(ConfigError, match=r"^sweep value k3=3 is given more than once$"):
        run_sweep(small_cfg(), "k3", [3, 1, 3], [missing], missing)
    with pytest.raises(ConfigError, match=r"^sweep value dt=0.1 is given more than once$"):
        run_sweep(small_cfg(), "dt", [0.10, 0.1], [missing], missing)


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


# ---------------------------------------------------------------------------
# the settings each stage reads
# ---------------------------------------------------------------------------

# The PipelineConfig fields each stage of pipeline._CHAIN reads (rasterize,
# which makes the fill's and water's input grids, reads gsd), and those no
# stage reads.  pipeline._CHAIN declares the grids.
STAGE_SETTINGS = {
    "fill": {"gsd"},
    "water": {"gsd", "water_window", "water_sigma_k", "water_min_area", "water_buffer"},
    "terrain": {"gsd", "slope_threshold"},
    "extract": {f.name for f in fields(ExtractParams)},
    None: {"window_size_m", "overlap_m", "outputs"},
}
# Each stage's function in pipeline, and the grids it returns.
STAGE_CALLS = {
    "fill": ("interpolate_nearest", lambda out: [out]),
    "water": ("detect_water", lambda out: [out.mask]),
    "terrain": ("derive_terrain", lambda out: [out.dtm, out.ndhm]),
    "extract": ("extract_buildings", lambda out: [out.map2d, out.map3d, out.difference]),
}
# Every grid is an output, so every stage makes all the grids it can.
DECLARED_BASE = dict(
    k1=3, k2=3, k3=3, water_window=3, water_min_area=20.0, water_buffer=1.0, overlap_m=12.0,
    outputs=OUTPUT_NAMES,
)
# A second valid value of every field; each still gives the scenes one window.
SECOND_VALUES = {
    "gsd": 0.5, "slope_threshold": 2.5,
    "ht": 4.0, "k1": 5, "k2": 7, "rt": 2, "dt": 0.0, "k3": 1,
    "kernel_shape": "diamond", "median_roof": 3, "map3d_source": "dsm",
    "water_window": 5, "water_sigma_k": 1.0, "water_min_area": 200.0, "water_buffer": 0.0,
    "window_size_m": 500.0, "overlap_m": 30.0, "outputs": ("dsm",),
}


def declared_upstream(stage: str) -> set[str]:
    """The settings of `stage` and of every stage it reads a grid from
    through pipeline._CHAIN (extract's map3d_source may name dsm)."""
    maker = {grid: s for s, _, makes in pipeline._CHAIN for grid in makes}
    reads = {s: reads for s, reads, _ in pipeline._CHAIN}[stage]
    if stage == "extract":
        reads = (*reads, "dsm")
    settings = set(STAGE_SETTINGS[stage])
    for grid in reads:
        if grid in maker:
            settings |= declared_upstream(maker[grid])
    return settings


def test_stage_settings_are_declared(monkeypatch):
    # A stage's grids stay bit-identical unless it or a stage it reads from
    # declares the changed setting, and every setting a stage declares
    # changes its grids on some scene.  So no sweepable setting moves dsm,
    # water, dtm or ndhm, which a sweep shares between its values.
    all_fields = {f.name for f in fields(PipelineConfig)}
    assert set().union(*STAGE_SETTINGS.values()) == set(SECOND_VALUES) == all_fields
    assert [s for s, _, _ in pipeline._CHAIN] == list(STAGE_CALLS)
    for param in SWEEPABLE:
        assert [s for s in STAGE_CALLS if param in declared_upstream(s)] == ["extract"]

    got = {}
    for stage, (name, grids) in STAGE_CALLS.items():
        def recorded(*args, _stage=stage, _real=getattr(pipeline, name), _grids=grids, **kw):
            out = _real(*args, **kw)
            assert _stage not in got, f"{_stage} ran twice"
            got[_stage] = [
                None if g is None else (g.spec, g.values.dtype, g.values.tobytes())
                for g in _grids(out)
            ]
            return out
        monkeypatch.setattr(pipeline, name, recorded)

    def stages(cfg, cloud):
        got.clear()
        assert run_pipeline(cfg, [cloud]).windows == 1
        return dict(got)

    rng = np.random.default_rng(24)
    moved = {stage: set() for stage in STAGE_CALLS}
    for terrace in (False, True):
        pts = oracle_scene(rng, 1.0, terrace)
        cloud = PointCloud(pts, (*pts[:, :2].min(axis=0), *pts[:, :2].max(axis=0)))
        base = small_cfg(**DECLARED_BASE)
        want = stages(base, cloud)
        for field, value in SECOND_VALUES.items():
            assert getattr(base, field) != value, field
            changed = stages(replace(base, **{field: value}), cloud)
            # Only a run that writes neither dtm, nor map3d and diff, skips
            # making them.
            skipped = [s for s in STAGE_CALLS if None in changed[s]]
            assert skipped == (["terrain", "extract"] if field == "outputs" else []), field
            for stage in STAGE_CALLS:
                made = [(a, b) for a, b in zip(changed[stage], want[stage]) if a is not None]
                if any(a != b for a, b in made):
                    assert field in declared_upstream(stage), (terrace, field, stage)
                    moved[stage].add(field)
    for stage, settings in STAGE_SETTINGS.items():
        if stage is not None:
            assert settings <= moved[stage], (stage, settings - moved[stage])
