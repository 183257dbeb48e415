"""Occupancy-based water flagging, area filtering, and buffering."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from conftest import flood_labels, raster_of
from lidarmaps.errors import BadKernel, ConfigError, DegenerateOccupancy
from lidarmaps.hydro import (
    WaterParams,
    classify_water,
    detect_water,
    filter_and_buffer,
    occupied_cell_count,
    window_cell_count,
)


def occupancy_of(occ: np.ndarray):
    """The point-count raster of the given counts."""
    return raster_of(np.asarray(occ, np.int64))


def occupied_scan(occ: np.ndarray, k: int) -> np.ndarray:
    """Window-scan oracle for occupied-cell tallies, clipped at borders."""
    r = k // 2
    h, w = occ.shape
    out = np.zeros((h, w), np.int64)
    for i in range(h):
        for j in range(w):
            win = occ[max(0, i - r): i + r + 1, max(0, j - r): j + r + 1]
            out[i, j] = int(np.count_nonzero(win > 0))
    return out


# ---------------------------------------------------------------------------
# window tallies
# ---------------------------------------------------------------------------


def test_full_grid_window_counts():
    counts = occupied_cell_count(occupancy_of(np.ones((20, 20))), 9).values
    assert counts[4:16, 4:16].min() == 81
    assert counts[0, 0] == 25  # clipped 5x5 corner window
    assert counts[0, 10] == 45


def test_empty_grid_counts_zero():
    counts = occupied_cell_count(occupancy_of(np.zeros((10, 10))), 9).values
    assert not counts.any()


def test_single_occupied_cell_window3():
    occ = np.zeros((11, 11))
    occ[5, 5] = 4  # multiplicity does not matter, occupancy does
    counts = occupied_cell_count(occupancy_of(occ), 3).values
    expected = np.zeros((11, 11), np.int64)
    expected[4:7, 4:7] = 1
    assert np.array_equal(counts, expected)


def test_tally_matches_window_scan():
    rng = np.random.default_rng(11)
    for shape in ((23, 31), (1, 17), (17, 1), (1, 1)):
        for k in (1, 3, 5, 9):
            occ = rng.integers(0, 3, size=shape)
            counts = occupancy_of(occ)
            got = occupied_cell_count(counts, k).values
            assert np.array_equal(got, occupied_scan(occ, k))
            cells = window_cell_count(counts, k).values
            assert np.array_equal(cells, occupied_scan(np.ones(shape), k))


def test_window_cell_count_shrinks_at_borders():
    n = window_cell_count(occupancy_of(np.zeros((20, 20))), 9).values
    assert n[10, 10] == 81
    assert n[0, 0] == 25
    assert n[0, 10] == 45
    assert n[19, 19] == 25


def test_window_must_be_positive_odd():
    counts = occupancy_of(np.ones((8, 8)))
    for bad in (0, -3, 4, 2):
        with pytest.raises(BadKernel):
            occupied_cell_count(counts, bad)
        with pytest.raises(BadKernel):
            classify_water(counts, window=bad)


# ---------------------------------------------------------------------------
# classify_water
# ---------------------------------------------------------------------------


def test_no_occupied_cells_is_degenerate():
    with pytest.raises(DegenerateOccupancy):
        classify_water(occupancy_of(np.zeros((10, 10))))


def test_fully_occupied_warns_and_returns_empty(caplog):
    with caplog.at_level(logging.WARNING, logger="lidarmaps.hydro"):
        mask = classify_water(occupancy_of(np.ones((10, 10))))
    assert not mask.values.any()
    assert [r.getMessage() for r in caplog.records] == [
        "every cell is occupied (p = 1); no water detectable"
    ]


@pytest.mark.parametrize("sigma_k", [1.0, 2.0, 3.0])
def test_threshold_formula_cellwise(sigma_k):
    rng = np.random.default_rng(3)
    occ = (rng.random((17, 19)) < 0.6).astype(np.int64)
    occ[3:9, 4:12] = 0
    counts = occupancy_of(occ)
    got = classify_water(counts, window=5, sigma_k=sigma_k).values

    p = np.count_nonzero(occ) / occ.size
    n = occupied_scan(np.ones_like(occ), 5).astype(float)
    tally = occupied_scan(occ, 5).astype(float)
    expected = tally <= n * p - sigma_k * np.sqrt(n * p * (1.0 - p))
    assert np.array_equal(got, expected)


def test_hole_interior_flagged():
    occ = np.ones((200, 200), np.int64)
    occ[100:130, 100:130] = 0
    mask = classify_water(occupancy_of(occ), window=9, sigma_k=2.0).values

    p = (200 * 200 - 900) / (200 * 200)
    threshold = 81 * p - 2.0 * math.sqrt(81 * p * (1.0 - p))
    assert 0 <= threshold < 81  # full windows cannot be flagged
    assert mask[104:126, 104:126].all()  # windows fully inside the hole
    assert not mask[:80, :].any()
    assert not mask[:, :80].any()


def test_flagged_fraction_matches_binomial_tail():
    """At p = 0.5 the interior flag rate is the exact lower-tail mass."""
    n = 81
    cutoff = int(math.floor(n * 0.5 - 2.0 * math.sqrt(n * 0.25)))
    tail = sum(math.comb(n, i) * 0.5 ** n for i in range(cutoff + 1))

    flagged = 0
    total = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        occ = (rng.random((200, 200)) < 0.5).astype(np.int64)
        mask = classify_water(occupancy_of(occ), window=9, sigma_k=2.0).values
        interior = mask[4:196, 4:196]
        flagged += int(np.count_nonzero(interior))
        total += interior.size
    assert abs(flagged / total - tail) < 0.015


def test_fixed_p_monotonicity():
    """Removing returns can only grow the flagged set at a fixed threshold."""
    rng = np.random.default_rng(5)
    base = (rng.random((60, 60)) < 0.7).astype(np.int64)
    removed = base.copy()
    drop = rng.random((60, 60)) < 0.2
    removed[drop] = 0

    p = np.count_nonzero(base) / base.size
    n = window_cell_count(occupancy_of(base), 9).values.astype(float)
    threshold = n * p - 2.0 * np.sqrt(n * p * (1.0 - p))
    flag_base = occupied_cell_count(occupancy_of(base), 9).values <= threshold
    flag_removed = occupied_cell_count(occupancy_of(removed), 9).values <= threshold
    assert (flag_base <= flag_removed).all()


# ---------------------------------------------------------------------------
# filter_and_buffer
# ---------------------------------------------------------------------------


def test_blob_under_area_floor_is_removed():
    water = np.zeros((100, 100), bool)
    water[20:80, 20:80] = True  # 3600 cells = 900 m^2 at 0.5 m
    out = filter_and_buffer(raster_of(water))
    assert not out.mask.values.any()


def test_blob_over_floor_grows_by_buffer():
    water = np.zeros((120, 120), bool)
    water[20:100, 20:100] = True  # 6400 cells = 1600 m^2
    out = filter_and_buffer(raster_of(water))
    expected = np.zeros((120, 120), bool)
    expected[10:110, 10:110] = True  # 5 m buffer = 10 cells per side
    assert np.array_equal(out.mask.values, expected)


def test_area_floor_is_inclusive():
    water = np.zeros((80, 100), bool)
    water[10:60, 10:90] = True  # 4000 cells = exactly 1000 m^2
    kept = filter_and_buffer(raster_of(water), WaterParams(buffer=0.0))
    assert kept.mask.values.sum() == 4000
    water[10, 10] = False  # 3999 cells
    removed = filter_and_buffer(raster_of(water), WaterParams(buffer=0.0))
    assert not removed.mask.values.any()


def test_empty_water_stays_empty():
    out = filter_and_buffer(raster_of(np.zeros((30, 30), bool)))
    assert not out.mask.values.any()


def test_refilter_without_buffer_is_idempotent():
    rng = np.random.default_rng(9)
    water = rng.random((64, 64)) < 0.4
    params = WaterParams(min_area=5.0, buffer=0.0)
    once = filter_and_buffer(raster_of(water), params)
    twice = filter_and_buffer(once.mask, params)
    assert np.array_equal(once.mask.values, twice.mask.values)


def test_every_kept_component_meets_the_floor():
    rng = np.random.default_rng(13)
    water = rng.random((64, 64)) < 0.35
    params = WaterParams(min_area=5.0, buffer=0.0)
    kept = filter_and_buffer(raster_of(water), params).mask.values

    lab, count = flood_labels(kept, eight=True)
    for i in range(1, count + 1):
        assert np.count_nonzero(lab == i) * 0.25 >= 5.0
    # and the kept mask is exactly the union of qualifying input components
    lab_in, count_in = flood_labels(water, eight=True)
    expected = np.zeros_like(water)
    for i in range(1, count_in + 1):
        cells = lab_in == i
        if np.count_nonzero(cells) * 0.25 >= 5.0:
            expected |= cells
    assert np.array_equal(kept, expected)


def test_buffered_mask_contains_unbuffered():
    rng = np.random.default_rng(21)
    water = rng.random((64, 64)) < 0.45
    params = WaterParams(min_area=5.0)
    plain = filter_and_buffer(raster_of(water), WaterParams(min_area=5.0, buffer=0.0))
    buffered = filter_and_buffer(raster_of(water), params)
    assert (plain.mask.values <= buffered.mask.values).all()


def test_detect_water_composes_the_stages():
    occ = np.ones((200, 200), np.int64)
    occ[60:130, 60:130] = 0  # 70x70 hole = 1225 m^2
    params = WaterParams()
    out = detect_water(occupancy_of(occ), params)
    composed = filter_and_buffer(
        classify_water(occupancy_of(occ), params.window, params.sigma_k), params
    )
    assert np.array_equal(out.mask.values, composed.mask.values)
    assert out.mask.values[64:126, 64:126].all()
    assert not out.mask.values[:40, :40].any()


def test_default_parameters():
    p = WaterParams()
    assert (p.window, p.sigma_k, p.min_area, p.buffer) == (9, 2.0, 1000.0, 5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 4},
        {"window": 0},
        {"sigma_k": math.nan},
        {"sigma_k": 0.0},
        {"min_area": -1.0},
        {"min_area": math.inf},
        {"buffer": math.nan},
        {"buffer": -0.5},
    ],
)
def test_parameter_validation(kwargs):
    # Messages name the config key, water_<field>.
    (field,) = kwargs
    with pytest.raises(ConfigError, match=f"^water_{field} must be"):
        WaterParams(**kwargs)
