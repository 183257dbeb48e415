"""Break-line classification, ground filling, and the normalized height model."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import breakline_scan, raster_of
from lidarmaps.errors import DegenerateScene, NoGround, SpecMismatch
from lidarmaps.grid import OccupancyCount
from lidarmaps.terrain import (
    breakline_map,
    compute_ndhm,
    derive_terrain,
    extract_objects,
    fill_ground,
)


def box_field(h=20, w=20, rows=slice(5, 11), cols=slice(5, 11), z=5.0):
    field = np.zeros((h, w))
    field[rows, cols] = z
    return field


def deck_field(with_ramp: bool) -> np.ndarray:
    """Raised deck, optionally reached by a ramp climbing 0.5 m per cell."""
    field = np.zeros((20, 30))
    field[6:15, 18:27] = 5.0
    if with_ramp:
        field[6:15, 8:18] = 0.5 * (np.arange(8, 18) - 7)
    return field


def occupancy_like(field: np.ndarray) -> OccupancyCount:
    return OccupancyCount(raster_of(np.ones(field.shape, np.int64)))


# ---------------------------------------------------------------------------
# breakline_map
# ---------------------------------------------------------------------------


def test_flat_surface_has_no_breaklines():
    br = breakline_map(raster_of(np.full((12, 12), 41.0)), 1.0)
    assert not br.values.any()


def test_vertical_step_flags_both_flanking_columns():
    field = np.zeros((20, 20))
    field[:, 10:] = 5.0
    br = breakline_map(raster_of(field), 1.0).values
    expected = np.zeros((20, 20), bool)
    expected[:, 9:11] = True
    assert np.array_equal(br, expected)


def test_gentle_ramp_below_threshold_is_smooth():
    field = np.tile(0.2 * np.arange(30), (10, 1))
    br = breakline_map(raster_of(field), 1.0)
    assert not br.values.any()


def test_step_exactly_at_threshold_is_not_flagged():
    field = np.zeros((8, 8))
    field[:, 4:] = 1.0
    assert not breakline_map(raster_of(field), 1.0).values.any()
    field[:, 4:] = 1.0 + 1e-9
    assert breakline_map(raster_of(field), 1.0).values.any()


def test_diagonal_neighbors_count():
    field = np.zeros((5, 5))
    field[2, 2] = 3.0
    br = breakline_map(raster_of(field), 1.0).values
    expected = np.zeros((5, 5), bool)
    expected[1:4, 1:4] = True
    assert np.array_equal(br, expected)


@pytest.mark.parametrize("shape", [(23, 31), (1, 9), (9, 1), (1, 1), (2, 2)])
def test_breaklines_match_scan(shape):
    rng = np.random.default_rng(sum(shape))
    # heights on a 0.5 m lattice make steps of exactly the 1 m threshold,
    # which must not count, next to steps of 0.5 and 1.5 m
    vals = 0.5 * rng.integers(0, 4, shape) + 100.0
    for threshold in (1.0, 0.5, 0.25):
        got = breakline_map(raster_of(vals), threshold).values
        np.testing.assert_array_equal(got, breakline_scan(vals, threshold))


def test_threshold_must_be_positive():
    dsm = raster_of(np.zeros((4, 4)))
    for bad in (0.0, -1.0, float("nan"), float("inf"), "1"):
        with pytest.raises(ValueError):
            breakline_map(dsm, bad)


def test_breaklines_require_interpolated_surface():
    field = np.zeros((4, 4))
    field[1, 1] = np.nan
    with pytest.raises(ValueError):
        breakline_map(raster_of(field), 1.0)


# ---------------------------------------------------------------------------
# extract_objects
# ---------------------------------------------------------------------------


def object_mask(field: np.ndarray) -> np.ndarray:
    return extract_objects(breakline_map(raster_of(field), 1.0)).values


def test_enclosed_plateau_is_object():
    mask = object_mask(box_field())
    expected = np.zeros((20, 20), bool)
    expected[5:11, 5:11] = True
    assert np.array_equal(mask, expected)


def test_deck_with_ramp_stays_ground():
    assert not object_mask(deck_field(with_ramp=True)).any()


def test_deck_without_ramp_is_object():
    mask = object_mask(deck_field(with_ramp=False))
    expected = np.zeros((20, 30), bool)
    expected[6:15, 18:27] = True
    assert np.array_equal(mask, expected)


def test_plateau_cut_by_border_is_ground():
    field = box_field(rows=slice(0, 6), cols=slice(5, 11))
    assert not object_mask(field).any()


def test_degenerate_when_breaklines_reach_95_percent():
    mask = np.ones((20, 20), bool)
    mask[0:2, 0:10] = False  # 380 of 400 remain true
    with pytest.raises(DegenerateScene):
        extract_objects(raster_of(mask))


def test_just_below_degenerate_fraction_classifies():
    mask = np.ones((20, 20), bool)
    mask[0:3, 0:7] = False  # 379 of 400 true
    out = extract_objects(raster_of(mask))
    assert out.values.shape == (20, 20)


def test_objects_invariant_to_elevation_offset():
    rng = np.random.default_rng(7)
    field = np.where(rng.random((25, 25)) < 0.2, 6.0, 0.0)
    a = breakline_map(raster_of(field), 1.0)
    b = breakline_map(raster_of(field + 123.4), 1.0)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(extract_objects(a).values, extract_objects(b).values)


# ---------------------------------------------------------------------------
# fill_ground / compute_ndhm
# ---------------------------------------------------------------------------


def test_fill_flat_ground_under_object():
    dsm = raster_of(np.full((20, 20), 100.0))
    objects = raster_of(box_field(z=1.0).astype(bool))
    dtm = fill_ground(dsm, objects)
    assert np.array_equal(dtm.values, np.full((20, 20), 100.0))


def test_fill_without_objects_is_identity():
    field = np.arange(36, dtype=float).reshape(6, 6)
    dtm = fill_ground(raster_of(field), raster_of(np.zeros((6, 6), bool)))
    assert np.array_equal(dtm.values, field)


def test_fill_on_slope_stays_within_source_range():
    field = np.tile(100.0 + 0.1 * np.arange(21), (15, 1))
    objects = np.zeros((15, 21), bool)
    objects[5:10, 8:14] = True
    dtm = fill_ground(raster_of(field), raster_of(objects)).values
    assert np.array_equal(dtm[~objects], field[~objects])
    assert dtm[objects].min() >= 100.0
    assert dtm[objects].max() <= 102.0


def test_fill_requires_some_ground():
    dsm = raster_of(np.zeros((4, 4)))
    with pytest.raises(NoGround):
        fill_ground(dsm, raster_of(np.ones((4, 4), bool)))


def test_fill_rejects_mismatched_grids():
    dsm = raster_of(np.zeros((4, 4)))
    objects = raster_of(np.zeros((4, 4), bool), origin=(10.0, 0.0))
    with pytest.raises(SpecMismatch):
        fill_ground(dsm, objects)


def test_ndhm_zero_when_surfaces_match():
    r = raster_of(np.full((5, 5), 77.0))
    assert not compute_ndhm(r, r).values.any()


def test_ndhm_plain_difference():
    dsm = raster_of(np.full((3, 3), 105.0))
    dtm = raster_of(np.full((3, 3), 100.0))
    assert np.allclose(compute_ndhm(dsm, dtm).values, 5.0)


def test_ndhm_clamps_negative_differences():
    dsm = raster_of(np.full((3, 3), 99.9))
    dtm = raster_of(np.full((3, 3), 100.0))
    assert np.array_equal(compute_ndhm(dsm, dtm).values, np.zeros((3, 3)))


def test_ndhm_rejects_mismatched_grids():
    dsm = raster_of(np.zeros((4, 4)))
    dtm = raster_of(np.zeros((5, 4)))
    with pytest.raises(SpecMismatch):
        compute_ndhm(dsm, dtm)


# ---------------------------------------------------------------------------
# derive_terrain
# ---------------------------------------------------------------------------


def test_box_scene_end_to_end():
    field = box_field()
    ts = derive_terrain(raster_of(field), occupancy_like(field))
    box = np.zeros((20, 20), bool)
    box[5:11, 5:11] = True
    assert np.allclose(ts.ndhm.values[box], 5.0, atol=1e-6)
    assert np.array_equal(ts.ndhm.values[~box], np.zeros((20, 20))[~box])
    # ground cells keep their surface elevation exactly
    assert np.array_equal(ts.dtm.values[~box], ts.dsm.values[~box])
    assert ts.dsm.spec == ts.dtm.spec == ts.ndhm.spec == ts.occupancy.counts.spec


def test_deck_scene_yields_zero_heights():
    field = deck_field(with_ramp=True)
    ts = derive_terrain(raster_of(field), occupancy_like(field))
    assert not ts.ndhm.values.any()


def test_external_terrain_model_is_used_verbatim():
    field = box_field(z=5.0) + 10.0
    ext = raster_of(np.full((20, 20), 12.0))
    ts = derive_terrain(raster_of(field), occupancy_like(field), external_dtm=ext)
    assert ts.dtm is ext
    assert np.allclose(ts.ndhm.values, np.maximum(field - 12.0, 0.0))


def test_external_terrain_model_must_share_grid():
    field = box_field()
    ext = raster_of(np.zeros((20, 20)), origin=(5.0, 5.0))
    with pytest.raises(SpecMismatch):
        derive_terrain(raster_of(field), occupancy_like(field), external_dtm=ext)
