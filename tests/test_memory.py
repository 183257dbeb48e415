"""Memory gates: each stage's scratch memory per cell, and product ownership.

Every stage runs once on a synthetic 256 x 256 cell scene under tracemalloc.
Its peak above the memory held before it (outputs included) must stay under
a budget in bytes per cell, set at the value measured when the budget was
written plus 25%.  A stage that starts building full-grid temporaries again
(a dense int64 column pass, shifted float copies, a rounded copy of the
grid, a whole-file text) breaks its budget.

The second half checks that run_pipeline's products are writeable arrays
that share no memory with the read-only global grids the windows are cut
from, for one window and for four, with and without an external terrain.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import GSD, build_las, raster_of
from lidarmaps import pipeline
from lidarmaps.config import PipelineConfig
from lidarmaps.extract import ExtractParams, extract_buildings
from lidarmaps.formats import write_ascii_grid
from lidarmaps.grid import grid_from_bounds, interpolate_nearest, rasterize_min
from lidarmaps.hydro import WaterParams, detect_water
from lidarmaps.ingest import PointCloud, read_las
from lidarmaps.pipeline import run_pipeline
from lidarmaps.terrain import breakline_map, derive_terrain, extract_objects, fill_ground

SIDE = 256  # cells a side at GSD

# Peak bytes per cell above what was held before the stage: the value
# measured on this scene when the budget was set, plus 25%.
BUDGETS = {
    "load": 40.3,  # measured 32.2
    "rasterize": 35.4,  # measured 28.3
    "fill": 57.5,  # measured 46.0
    "ground_fill": 29.5,  # measured 23.6
    "water": 25.0,  # measured 20.0
    "terrain": 32.2,  # measured 25.7
    "extract": 52.0,  # measured 41.6
    "write": 25.8,  # measured 20.6
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
    """Bytes per cell of each stage's peak, stages run in pipeline order."""
    tmp = tmp_path_factory.mktemp("memory")
    las = tmp / "scene.las"
    las.write_bytes(build_las(memory_scene()))
    peaks = {}

    def run(name, fn):
        out, peak = traced_peak(fn)
        peaks[name] = peak / (SIDE * SIDE)
        return out

    cloud = run("load", lambda: read_las(str(las)))
    spec = grid_from_bounds(*cloud.bounds, GSD)
    assert spec.shape == (SIDE, SIDE)
    dsm_raw, occ = run("rasterize", lambda: rasterize_min(cloud.points, spec))
    del cloud
    dsm = run("fill", lambda: interpolate_nearest(dsm_raw))
    water = run("water", lambda: detect_water(occ, WaterParams()))
    objects = extract_objects(breakline_map(dsm, 1.0))
    run("ground_fill", lambda: fill_ground(dsm, objects))
    terrain = run("terrain", lambda: derive_terrain(dsm, 1.0))
    res = run("extract", lambda: extract_buildings(terrain, water, ExtractParams()))
    assert res.map2d.values.any() and water.mask.values.any()
    run("write", lambda: write_ascii_grid(str(tmp / "dsm.asc"), terrain.dsm))
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
    real_rasterize, real_sample = pipeline.rasterize_min, pipeline._sample_external

    def rasterize_kept(points, spec):
        dsm, occ = real_rasterize(points, spec)
        globals_.extend([dsm.values, occ.values])
        return dsm, occ

    def sample_kept(ext, spec):
        sampled = real_sample(ext, spec)
        globals_.append(sampled.values)
        return sampled

    monkeypatch.setattr(pipeline, "rasterize_min", rasterize_kept)
    monkeypatch.setattr(pipeline, "_sample_external", sample_kept)
    # The sample grid matches the map grid cell for cell, so the dtm
    # product would be a plain cut of the global sample if not copied.
    ext = raster_of(np.full((SIDE, SIDE), 100.0)) if external else None
    cfg = PipelineConfig(window_size_m=window_size_m, overlap_m=16.0)
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
