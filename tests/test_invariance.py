"""Invariance gates: transformations of the input cloud that must not move
the output grids.

Every coordinate of the scene lies on a 1/16 m lattice and every z on a
1/64 m one, so the translations below are exact in float64 and any
difference they make comes from the pipeline's own cell and tie rules.
Each gate runs the scene as one window and as four.
"""

from __future__ import annotations

import numpy as np
import pytest

from lidarmaps.config import OUTPUT_NAMES, PipelineConfig
from lidarmaps.ingest import PointCloud
from lidarmaps.pipeline import run_pipeline

EXTENT = 40.0  # m; 80 x 80 cells at the default 0.5 m


def invariance_scene() -> np.ndarray:
    """About three points a cell, many on cell edges: flat ground holding
    0.0 and -0.0 ties, a ramp, two flat roofs, rough trees and a void."""
    rng = np.random.default_rng(404)
    n = 19_200
    x = rng.integers(0, int(EXTENT * 16), n) / 16.0
    y = rng.integers(0, int(EXTENT * 16), n) / 16.0
    z = np.round(np.maximum(x - 10.0, 0.0) * 0.05 * 64) / 64
    z[(z == 0.0) & (rng.random(n) < 0.5)] = -0.0
    for x0, y0, x1, y1, h in ((5, 25, 15, 35, 6.0), (22, 22, 34, 30, 9.0)):
        z[(x >= x0) & (x < x1) & (y >= y0) & (y < y1)] += h
    trees = (x >= 20) & (x < 30) & (y >= 4) & (y < 12)
    z[trees] += rng.integers(2 * 64, 8 * 64, int(trees.sum())) / 64
    lake = (x - 10.0) ** 2 + (y - 8.0) ** 2 < 25.0
    return np.column_stack([x, y, z])[~lake]


def cloud_of(pts: np.ndarray) -> PointCloud:
    bounds = (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())
    return PointCloud(pts, tuple(float(b) for b in bounds))


def grids(pts: np.ndarray, window_size_m: float):
    cfg = PipelineConfig(window_size_m=window_size_m, overlap_m=8.0, water_min_area=25.0)
    res = run_pipeline(cfg, [cloud_of(pts)])
    assert res.windows == (1 if window_size_m > EXTENT else 4)
    return res.spec, res.products


def assert_bit_identical(a, b, names=OUTPUT_NAMES):
    for name in names:
        va, vb = a[name].values, b[name].values
        assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), name


@pytest.fixture(scope="module", params=[1000.0, 20.0], ids=["one_window", "four_windows"])
def reference(request):
    pts = invariance_scene()
    spec, products = grids(pts, request.param)
    # The scene exercises every stage: buildings kept, trees dropped by
    # planarity, water found, voids filled.
    assert products["map2d"].values.any() and products["water"].values.any()
    assert (products["diff"].values == 3).any()
    return request.param, pts, spec, products


def test_point_order_does_not_matter(reference):
    window, pts, _, products = reference
    order = np.random.default_rng(5).permutation(len(pts))
    assert_bit_identical(grids(pts[order], window)[1], products)


def test_duplicated_points_do_not_matter(reference):
    window, pts, _, products = reference
    assert_bit_identical(grids(np.concatenate([pts, pts[::-1]]), window)[1], products)


def test_horizontal_translation_does_not_matter(reference):
    window, pts, spec, products = reference
    moved = pts + np.array([1024.0, 1024.0, 0.0])
    got_spec, got = grids(moved, window)
    assert (got_spec.origin_x, got_spec.origin_y) == (spec.origin_x + 1024.0, spec.origin_y + 1024.0)
    assert got_spec.shape == spec.shape
    assert_bit_identical(got, products)


def test_vertical_offset_keeps_the_maps(reference):
    window, pts, _, products = reference
    raised = pts + np.array([0.0, 0.0, 64.0])
    assert_bit_identical(grids(raised, window)[1], products, ("map2d", "water", "diff"))
