"""Memory gates: each stage's scratch memory per cell, and product ownership.

Every stage runs once on a synthetic 256 x 256 cell scene under tracemalloc.
Its peak above the memory held before it (outputs included) must stay under
a budget in bytes per cell, set at the value measured when the budget was
written plus 25%.  A stage that starts building full-grid temporaries again
(a dense int64 column pass, shifted float copies, a rounded copy of the
grid, a whole-file text, one Python string per cell read) breaks its
budget.  The XYZ load stage reads the scene as text and is held to bytes
per point, so a Python object per point breaks it.  The rasterize stage
grids 4,096 points at a time, so the scene spans many blocks and a
temporary the size of the cloud breaks its budget; so does the load_grid
stage, which scans the LAS file and grids it as it is read, in chunks of
2,048 records, as a map of a LAS file does.  The write stage writes the
scene's dsm and a float grid whose millimetre keys span the writer's
whole key table, its largest; the write_map3d stage writes the map3d
grid, NaN but for the few distinct roof heights, so its byte table is
small and a sort copy of the whole grid breaks its budget; the
write_distinct stage writes a float grid whose every cell is a distinct
value, and the write_keyed stage one over 0-32 m, whose keys fit the key
table, so a table fill or check over all distinct values at once breaks
its budget.  All four write the cells in blocks of 4,096, a sixteenth of
the grid (the default, 16,384, is a quarter of it but a 244th of a
1 km² grid).  The read stage reads back the dsm.

The run stage is a whole one-window run_pipeline of the LAS file, all
seven grids, nothing written; the run_default stage is the same run with
the default outputs, which frees dsm and dtm after terrain.  Their
budgets are the value measured plus 0.75 bytes per cell, less than the 1
of a bool grid such as the occupancy mask, so that a grid kept alive
past its last reader breaks them.

The second half checks that run_pipeline's products are writeable arrays
that share no memory with the read-only global grids the windows are cut
from, for one window and for four, with and without an external terrain.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import GSD, build_las, raster_of, write_xyz_text
from lidarmaps import _kernels, formats, ingest, pipeline
from lidarmaps.config import OUTPUT_NAMES, PipelineConfig
from lidarmaps.extract import ExtractParams, extract_buildings
from lidarmaps.formats import read_ascii_grid, write_ascii_grid
from lidarmaps.grid import grid_from_bounds, interpolate_nearest, rasterize_min, rasterize_min_clouds
from lidarmaps.hydro import WaterParams, detect_water
from lidarmaps.ingest import PointCloud, read_las, read_xyz_text, scan_las
from lidarmaps.pipeline import run_pipeline
from lidarmaps.terrain import breakline_map, derive_terrain, extract_objects, fill_ground

SIDE = 256  # cells a side at GSD

# Peak bytes per cell (per point for load_xyz) above what was held before
# the stage: the value measured on this scene when the budget was set,
# plus 25% (plus 0.75 bytes per cell for run and run_default).  A budget
# is never raised: where a stage now measures more than when its budget
# was set, the comment gives both values.
BUDGETS = {
    "load": 40.3,  # measured 38.3; set at 32.2
    "load_xyz": 34.8,  # measured 27.8
    "load_grid": 13.5,  # measured 10.8
    "rasterize": 13.3,  # measured 10.6
    "fill": 57.5,  # measured 46.0
    "ground_fill": 29.5,  # measured 23.6
    "water": 16.4,  # measured 13.1
    "terrain": 30.8,  # measured 24.6
    "extract": 45.8,  # measured 36.6
    "write": 9.3,  # measured 7.4
    "write_map3d": 3.0,  # measured 2.4
    "write_distinct": 38.3,  # measured 30.6
    "write_keyed": 27.9,  # measured 22.3
    "read": 21.0,  # measured 17.1; set at 16.8
    "run": 62.4,  # measured 61.7
    "run_default": 55.8,  # measured 55.0
}


def memory_scene() -> np.ndarray:
    """About one return per cell (so about 37% void cells), on a gentle
    slope, with four flat roofs, two rough crowns and a lake of 1,257 m^2."""
    rng = np.random.default_rng(2024)
    top = SIDE * GSD - GSD / 2
    n = SIDE * SIDE
    x = np.concatenate([[0.0, top], rng.uniform(0.0, top, n)])
    y = np.concatenate([[0.0, top], rng.uniform(0.0, top, n)])
    z = 100.0 + 0.02 * x + 0.01 * y
    for x0, y0, x1, y1 in ((10, 10, 30, 25), (60, 8, 85, 28), (12, 70, 27, 100), (40, 105, 70, 120)):
        roof = (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
        z[roof] += 8.0
    for cx, cy in ((50, 50), (110, 20)):
        crown = np.hypot(x - cx, y - cy) < 5.0
        z[crown] += rng.uniform(2.0, 12.0, np.count_nonzero(crown))
    keep = np.hypot(x - 95.0, y - 70.0) > 20.0
    keep[:2] = True
    return np.column_stack([x[keep], y[keep], z[keep]])


def traced_peak(fn):
    """(result, peak bytes allocated while fn ran above what was held)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def stage_peaks(tmp_path_factory):
    """Bytes per cell (per point for load_xyz) of each stage's peak,
    stages run in pipeline order."""
    tmp = tmp_path_factory.mktemp("memory")
    las, xyz = tmp / "scene.las", tmp / "scene.xyz"
    pts = memory_scene()
    las.write_bytes(build_las(pts))
    write_xyz_text(pts, str(xyz))
    peaks = {}

    def run(name, fn, per=SIDE * SIDE):
        out, peak = traced_peak(fn)
        peaks[name] = peak / per
        return out

    run("load_xyz", lambda: read_xyz_text(str(xyz)), per=len(pts))
    cloud = run("load", lambda: read_las(str(las)))
    spec = grid_from_bounds(*cloud.bounds, GSD)
    assert spec.shape == (SIDE, SIDE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", 4096)
        assert len(cloud) > 10 * _kernels._BLOCK
        dsm_raw, occ = run("rasterize", lambda: rasterize_min(cloud.points, spec))
    del cloud

    def load_grid():
        scan = scan_las(str(las))
        return rasterize_min_clouds(scan.chunks(), spec, 0, 0, SIDE, SIDE)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_RECORDS", 2048)
        assert len(pts) > 10 * ingest._CHUNK_RECORDS
        streamed = run("load_grid", load_grid)
    for got, want in zip(streamed, (dsm_raw, occ)):
        np.testing.assert_array_equal(got.values, want.values)
    del streamed
    dsm = run("fill", lambda: interpolate_nearest(dsm_raw))
    water = run("water", lambda: detect_water(occ, WaterParams()))
    objects = extract_objects(breakline_map(dsm, 1.0))
    run("ground_fill", lambda: fill_ground(dsm, objects))
    terrain = run("terrain", lambda: derive_terrain(dsm, 1.0))
    res = run("extract", lambda: extract_buildings(terrain, water, ExtractParams()))
    assert res.map2d.values.any() and water.mask.values.any()
    # 0.0 and -0.0 to `top` m, NaN and the infinities: the key range sits
    # exactly at the table bound, max(cells, _KEY_TABLE_MIN) entries.
    top = (max(SIDE * SIDE, formats._KEY_TABLE_MIN) - 4) // 2 / 1000
    widest = raster_of(np.resize([0.0, -0.0, top, np.nan, np.inf, -np.inf], (SIDE, SIDE)))

    def write():
        write_ascii_grid(str(tmp / "dsm.asc"), terrain.dsm)
        write_ascii_grid(str(tmp / "widest.asc"), widest)

    # Every cell a distinct float whose millimetre keys overflow the key
    # table: one text per cell, found by np.searchsorted.
    distinct = raster_of(np.random.default_rng(7).uniform(-1000.0, 1000.0, (SIDE, SIDE)))
    assert np.unique(distinct.values).size == SIDE * SIDE
    # The same over 0-32 m, whose keys fit the key table: it is filled
    # and checked for every distinct value.
    keyed = raster_of(np.random.default_rng(7).uniform(0.0, 32.0, (SIDE, SIDE)))
    floats = np.unique(keyed.values)
    assert floats.size == SIDE * SIDE
    words = formats._byte_table(floats.size, formats._joined(floats, "%.3f"))
    assert formats._millimetre_index(floats, words, floats.size) is not None
    del floats, words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_BLOCK_CELLS", 4096)
        run("write", write)
        run("write_map3d", lambda: write_ascii_grid(str(tmp / "map3d.asc"), res.map3d))
        run("write_distinct", lambda: write_ascii_grid(str(tmp / "distinct.asc"), distinct))
        run("write_keyed", lambda: write_ascii_grid(str(tmp / "keyed.asc"), keyed))
    run("read", lambda: read_ascii_grid(str(tmp / "dsm.asc")))
    del dsm_raw, occ, dsm, water, objects, terrain, res
    result = run("run", lambda: run_pipeline(PipelineConfig(outputs=OUTPUT_NAMES), [str(las)]))
    assert result.windows == 1 and result.spec == spec
    del result
    result = run("run_default", lambda: run_pipeline(PipelineConfig(), [str(las)]))
    assert sorted(result.products) == ["map2d", "map3d", "water"]
    return peaks


@pytest.mark.parametrize("stage", sorted(BUDGETS))
def test_stage_peak_within_budget(stage_peaks, stage):
    got = stage_peaks[stage]
    assert got <= BUDGETS[stage], (
        f"{stage} peaked at {got:.1f} bytes per cell, budget {BUDGETS[stage]}"
    )


@pytest.mark.parametrize("external", [False, True], ids=["breaklines", "external_dtm"])
@pytest.mark.parametrize("window_size_m", [1000.0, 64.0], ids=["one_window", "four_windows"])
def test_products_are_writeable_and_own_their_memory(monkeypatch, window_size_m, external):
    pts = memory_scene()
    cloud = PointCloud(pts, (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max()))
    globals_ = []
    real_rasterize, real_sample = pipeline.rasterize_min_clouds, pipeline._sample_external

    def rasterize_kept(clouds, spec, *box):
        dsm, occ = real_rasterize(clouds, spec, *box)
        globals_.extend([dsm.values, occ.values])
        return dsm, occ

    def sample_kept(ext, spec):
        sampled = real_sample(ext, spec)
        globals_.append(sampled.values)
        return sampled

    monkeypatch.setattr(pipeline, "rasterize_min_clouds", rasterize_kept)
    monkeypatch.setattr(pipeline, "_sample_external", sample_kept)
    # The sample grid matches the map grid cell for cell, so the dtm
    # product would be a plain cut of the global sample if not copied.
    ext = raster_of(np.full((SIDE, SIDE), 100.0)) if external else None
    cfg = PipelineConfig(window_size_m=window_size_m, overlap_m=16.0, outputs=OUTPUT_NAMES)
    res = run_pipeline(cfg, [cloud], external_dtm=ext)
    assert res.windows == (1 if window_size_m > SIDE * GSD else math.ceil(SIDE * GSD / window_size_m) ** 2)
    assert len(globals_) == (3 if external else 2)
    products = list(res.products.items())
    for i, (name, product) in enumerate(products):
        values = product.values
        assert values.shape == res.spec.shape
        assert values.flags.writeable, name
        for grid in globals_:
            assert not grid.flags.writeable
            assert not np.shares_memory(values, grid), name
        for other, later in products[i + 1:]:
            assert not np.shares_memory(values, later.values), (name, other)
    if external:
        assert (res.products["dtm"].values == 100.0).all()
