"""Candidate thresholding, the four filter stages, and the 3D roof map."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import distinct_scan, masked_median_scan, raster_of
from lidarmaps.errors import BadKernel, ConfigError, SpecMismatch
from lidarmaps.extract import (
    DIFF_DILATION,
    DIFF_MORPHOLOGY,
    DIFF_PLANARITY,
    DIFF_WATER,
    ExtractParams,
    apply_water_mask,
    build_3d,
    extract_buildings,
    morphological_filter,
    planarity_filter,
    refine_boundary,
    roughness_layer,
    threshold_candidates,
)
from lidarmaps import _kernels
from lidarmaps._kernels import round_half_away
from lidarmaps.hydro import WaterMask, WaterParams
from lidarmaps.terrain import TerrainSet, derive_terrain


def terrain_from(field) -> TerrainSet:
    """TerrainSet whose NDHM is the given field (flat terrain at zero)."""
    arr = np.asarray(field, np.float64)
    surface = raster_of(arr)
    return TerrainSet(surface, raster_of(np.zeros_like(arr)), surface)


def water_of(mask) -> WaterMask:
    return WaterMask(raster_of(np.asarray(mask, bool)))


def block(shape, rows, cols, value=True, base=None):
    arr = np.zeros(shape, type(value)) if base is None else base
    arr[rows, cols] = value
    return arr


# ---------------------------------------------------------------------------
# stage operations
# ---------------------------------------------------------------------------


def test_threshold_is_inclusive():
    ndhm = raster_of(np.array([[2.0, 1.0, 1.5]]))
    assert threshold_candidates(ndhm, 1.5).values.tolist() == [[True, False, True]]


def test_water_mask_cuts_candidates():
    cand = raster_of(np.ones((6, 6), bool))
    water = np.zeros((6, 6), bool)
    water[2:4, 2:4] = True
    out = apply_water_mask(cand, water_of(water))
    assert np.array_equal(out.values, ~water)


def test_empty_water_mask_is_identity():
    cand = raster_of(np.eye(5, dtype=bool))
    out = apply_water_mask(cand, water_of(np.zeros((5, 5), bool)))
    assert np.array_equal(out.values, cand.values)


def test_all_water_clears_everything():
    cand = raster_of(np.ones((5, 5), bool))
    out = apply_water_mask(cand, water_of(np.ones((5, 5), bool)))
    assert not out.values.any()


def test_water_mask_requires_same_grid():
    cand = raster_of(np.ones((5, 5), bool))
    water = WaterMask(raster_of(np.zeros((6, 5), bool)))
    with pytest.raises(SpecMismatch):
        apply_water_mask(cand, water)


def test_opening_erases_narrow_blobs():
    small = raster_of(block((20, 20), slice(5, 11), slice(5, 11)))  # 3 m wide
    assert not morphological_filter(small, 7).values.any()
    big = raster_of(block((20, 20), slice(5, 13), slice(5, 13)))  # 4 m wide
    out = morphological_filter(big, 7)
    assert np.array_equal(out.values, big.values)


def test_opening_erases_singletons():
    rng = np.random.default_rng(2)
    scatter = rng.random((30, 30)) < 0.02
    out = morphological_filter(raster_of(scatter), 3)
    assert not out.values.any()


def test_diamond_kernel_keeps_diamond_corners():
    di, dj = np.meshgrid(np.arange(21) - 10, np.arange(21) - 10, indexing="ij")
    diamond = np.abs(di) + np.abs(dj) <= 6
    kept_diamond = morphological_filter(raster_of(diamond), 5, "diamond").values
    kept_square = morphological_filter(raster_of(diamond), 5, "square").values
    assert np.array_equal(kept_diamond, diamond)
    assert kept_square.sum() < diamond.sum()
    assert not kept_square[10, 16]  # tip clipped by the square kernel
    assert (kept_square <= kept_diamond).all()


def test_roughness_constant_field():
    rough = roughness_layer(raster_of(np.full((9, 9), 3.0)), 5)
    assert (rough.values == 1).all()


def test_roughness_staircase():
    field = np.tile(np.arange(20.0), (9, 1))
    rough = roughness_layer(raster_of(field), 5).values
    assert (rough[:, 2:18] == 5).all()
    assert (rough[:, 0] == 3).all()  # window clipped at the border


def test_roughness_three_distinct_counts_as_planar():
    field = np.zeros((5, 5))
    field[0, :3] = 3.0
    field[1, 2] = 5.0
    rough = roughness_layer(raster_of(field), 5).values
    assert rough[2, 2] == 3
    assert rough[2, 2] < 4  # planar under the default cutoff


def test_roughness_rounds_halves_away_from_zero():
    field = np.full((7, 7), 2.5)
    field[3, 3] = 3.4
    rough = roughness_layer(raster_of(field), 3).values
    assert (rough == 1).all()


def test_roughness_matches_distinct_oracle():
    rng = np.random.default_rng(17)
    field = rng.uniform(0.0, 6.0, (21, 26))
    ints = round_half_away(field)
    for k2 in (3, 5, 7):
        got = roughness_layer(raster_of(field), k2).values
        assert np.array_equal(got, distinct_scan(ints, k2))


def test_roughness_where_matches_oracle_on_its_cells():
    rng = np.random.default_rng(23)
    shapes = [(1, 17), (17, 1), (1, 1)]
    for trial in range(200):
        if trial < len(shapes):
            shape = shapes[trial]
        else:
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        field = rng.uniform(-4.0, 6.0, shape)
        k2 = int(rng.choice([1, 3, 5, 7]))
        kind = trial % 4
        if kind == 0:
            m = np.zeros(shape, bool)
        elif kind == 1:
            m = np.ones(shape, bool)
            m[1:-1, 1:-1] = False  # border cells only
        else:
            m = rng.random(shape) < rng.uniform(0.05, 0.6)
        got = roughness_layer(raster_of(field), k2, where=raster_of(m)).values
        want = distinct_scan(round_half_away(field), k2)
        np.testing.assert_array_equal(got[m], want[m], err_msg=f"k2={k2}")
        assert not got[~m].any()  # not computed
        np.testing.assert_array_equal(
            roughness_layer(raster_of(field), k2).values, want
        )


@pytest.mark.parametrize("block", [1, 30, 1 << 16])
def test_roughness_non_finite_heights_count_as_one_value(monkeypatch, block):
    # NaN and infinite heights have no rounded value; all of them in a
    # window count as one value, apart from every height.  Small blocks
    # gather the windows a few cells at a time.
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for _ in range(20):
        shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        field = rng.uniform(-3.0, 5.0, shape)
        odd = rng.random(shape)
        field[odd < 0.1] = np.nan
        field[(odd >= 0.1) & (odd < 0.15)] = np.inf
        field[(odd >= 0.15) & (odd < 0.2)] = -np.inf
        k2 = int(rng.choice([1, 3, 5]))
        want = distinct_scan(np.where(np.isfinite(field), round_half_away(field), -np.inf), k2)
        np.testing.assert_array_equal(roughness_layer(raster_of(field), k2).values, want)
    field = np.full((3, 3), 2.0)
    field[1, 1] = np.nan
    assert (roughness_layer(raster_of(field), 3).values == 2).all()


def test_roughness_where_requires_same_grid():
    with pytest.raises(SpecMismatch):
        roughness_layer(
            raster_of(np.zeros((5, 5))), 3, where=raster_of(np.ones((5, 6), bool))
        )


def test_roughness_window_validation():
    ndhm = raster_of(np.zeros((5, 5)))
    for bad in (0, 2, -3):
        with pytest.raises(BadKernel):
            roughness_layer(ndhm, bad)


def test_planarity_ratio_of_a_fifth():
    cand = block((12, 12), slice(1, 11), slice(1, 11))
    rough = np.full((12, 12), 7)
    rough[1:3, 1:11] = 1  # 20 planar cells of 100
    cs = planarity_filter(raster_of(cand), raster_of(rough), rt=4, dt=0.1)
    assert cs.count == 1
    assert cs.planarity[1] == pytest.approx(0.2)
    assert cs.kept[1]
    assert np.array_equal(cs.mask.values, cand)


def test_planarity_below_cutoff_drops_component():
    cand = block((12, 12), slice(1, 11), slice(1, 11))
    rough = np.full((12, 12), 7)
    rough[1, 1:6] = 1  # 5 planar cells of 100
    cs = planarity_filter(raster_of(cand), raster_of(rough), rt=4, dt=0.1)
    assert cs.planarity[1] == pytest.approx(0.05)
    assert not cs.kept[1]
    assert not cs.mask.values.any()
    assert not cs.labels.values.any()  # labels cleared with the mask


def test_planarity_zero_cutoff_keeps_everything():
    rng = np.random.default_rng(4)
    cand = rng.random((24, 24)) < 0.3
    rough = rng.integers(1, 9, (24, 24))
    cs = planarity_filter(raster_of(cand), raster_of(rough), rt=4, dt=0.0)
    assert np.array_equal(cs.mask.values, cand)
    assert np.array_equal(cs.labels.values > 0, cand)


def test_planarity_full_cutoff_demands_all_planar():
    cand = np.zeros((10, 20), bool)
    cand[2:6, 2:6] = True
    cand[2:6, 10:14] = True
    rough = np.ones((10, 20), np.int64)
    rough[3, 11] = 9  # one rough cell in the second block
    cs = planarity_filter(raster_of(cand), raster_of(rough), rt=4, dt=1.0)
    assert cs.mask.values[2:6, 2:6].all()
    assert not cs.mask.values[2:6, 10:14].any()


def test_planarity_stats_are_consistent():
    rng = np.random.default_rng(8)
    cand = rng.random((30, 30)) < 0.35
    rough = rng.integers(1, 8, (30, 30))
    cs = planarity_filter(raster_of(cand), raster_of(rough), rt=4, dt=0.3)
    for i in range(1, cs.count + 1):
        assert cs.cell_count[i] > 0
        assert cs.planarity[i] == pytest.approx(cs.planar_count[i] / cs.cell_count[i])
        assert cs.kept[i] == (cs.planarity[i] >= 0.3)
    assert np.array_equal(cs.labels.values > 0, cs.mask.values)


def test_planarity_never_reads_roughness_outside_candidates():
    rng = np.random.default_rng(9)
    for trial in range(40):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        cand = rng.random(shape) < rng.uniform(0.1, 0.6)
        rough = rng.integers(1, 9, shape)
        rt = int(rng.integers(1, 8))
        dt = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        ref = planarity_filter(raster_of(cand), raster_of(rough), rt, dt)
        assert ref.planar_count[0] == 0
        for garbage in (-1, 10**6):
            noisy = np.where(cand, rough, garbage)
            cs = planarity_filter(raster_of(cand), raster_of(noisy), rt, dt)
            np.testing.assert_array_equal(cs.kept[1:], ref.kept[1:])
            np.testing.assert_array_equal(cs.planarity[1:], ref.planarity[1:])
            np.testing.assert_array_equal(cs.mask.values, ref.mask.values)
            np.testing.assert_array_equal(cs.labels.values, ref.labels.values)


def test_boundary_dilation_examples():
    blob = raster_of(block((20, 20), slice(5, 15), slice(5, 15)))
    grown = refine_boundary(blob, 5).values
    assert np.array_equal(grown, block((20, 20), slice(3, 17), slice(3, 17)))
    assert np.array_equal(refine_boundary(blob, 1).values, blob.values)


def test_boundary_dilation_merges_close_blobs():
    two = np.zeros((10, 20), bool)
    two[4:6, 2:6] = True
    two[4:6, 9:13] = True  # 3-cell gap
    from conftest import flood_labels

    merged = refine_boundary(raster_of(two), 5).values
    _, count = flood_labels(merged, eight=True)
    assert count == 1


def test_build_3d_flat_roof():
    heights = raster_of(block((12, 12), slice(2, 9), slice(2, 9), 5.0, np.zeros((12, 12))))
    footprint = block((12, 12), slice(2, 9), slice(2, 9))
    out = build_3d(heights, raster_of(footprint)).values
    assert np.array_equal(np.isnan(out), ~footprint)
    assert (out[footprint] == 5.0).all()


def test_build_3d_empty_footprint():
    heights = raster_of(np.full((6, 6), 4.0))
    out = build_3d(heights, raster_of(np.zeros((6, 6), bool))).values
    assert np.isnan(out).all()


def test_build_3d_median_removes_spike():
    field = block((12, 12), slice(2, 9), slice(2, 9), 5.0, np.zeros((12, 12)))
    field[5, 5] = 20.0
    footprint = block((12, 12), slice(2, 9), slice(2, 9))
    out = build_3d(raster_of(field), raster_of(footprint), median_roof=3).values
    assert (out[footprint] == 5.0).all()
    assert np.isnan(out[~footprint]).all()


def test_build_3d_median_ignores_outside_heights():
    field = np.full((10, 10), 999.0)
    footprint = block((10, 10), slice(3, 7), slice(3, 7))
    field[footprint] = 5.0
    out = build_3d(raster_of(field), raster_of(footprint), median_roof=3).values
    assert (out[footprint] == 5.0).all()


def test_build_3d_median_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(120):
        shape = (int(rng.integers(1, 32)), int(rng.integers(1, 32)))
        vals = rng.normal(0, 10, shape)
        mask = rng.random(shape) < rng.uniform(0.2, 0.9)
        k = int(rng.choice([1, 3, 5, 7]))
        got = build_3d(raster_of(vals), raster_of(mask), median_roof=k).values
        np.testing.assert_array_equal(
            got, masked_median_scan(vals, mask, k), err_msg=f"k={k}"
        )


def test_build_3d_requires_same_grid():
    heights = raster_of(np.zeros((5, 5)))
    with pytest.raises(SpecMismatch):
        build_3d(heights, raster_of(np.zeros((6, 5), bool)))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_default_parameters():
    p = ExtractParams()
    assert (p.ht, p.k1, p.k2, p.rt, p.dt, p.k3) == (1.5, 7, 5, 4, 0.1, 5)
    assert (p.kernel_shape, p.median_roof, p.map3d_source) == ("square", 0, "ndhm")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k1": 4},
        {"k1": 0},
        {"k2": 6},
        {"k3": -1},
        {"ht": -0.5},
        {"rt": 0},
        {"dt": -0.1},
        {"dt": 1.5},
        {"kernel_shape": "disc"},
        {"median_roof": 2},
        {"map3d_source": "dtm"},
        {"ht": float("nan")},
        {"ht": float("inf")},
        {"ht": 0.0},
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ConfigError):
        ExtractParams(**kwargs)


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------

TREES = [(5, 5), (3, 30), (30, 4), (33, 33), (25, 30)]


def box_and_trees() -> np.ndarray:
    field = np.zeros((40, 40))
    field[10:20, 10:20] = 5.0
    for r, c in TREES:
        field[r, c] = 3.0
    return field


def test_box_scene_full_chain():
    res = extract_buildings(terrain_from(box_and_trees()))
    box = block((40, 40), slice(10, 20), slice(10, 20))
    grown = block((40, 40), slice(8, 22), slice(8, 22))
    assert np.array_equal(res.map2d.values, grown)
    assert np.array_equal(np.isnan(res.map3d.values), ~grown)
    assert (res.map3d.values[box] == 5.0).all()
    assert (res.map3d.values[grown & ~box] == 0.0).all()

    expected = np.zeros((40, 40), np.uint8)
    for r, c in TREES:
        expected[r, c] = DIFF_MORPHOLOGY
    expected[grown & ~box] = DIFF_DILATION
    assert np.array_equal(res.difference.values, expected)


def test_rough_canopy_dropped_by_planarity():
    rng = np.random.default_rng(31)
    field = np.zeros((60, 60))
    field[10:50, 10:50] = rng.uniform(2.0, 15.0, (40, 40))
    res = extract_buildings(terrain_from(field))

    canopy = block((60, 60), slice(10, 50), slice(10, 50))
    assert res.candidates.count == 1
    assert res.candidates.planarity[1] < 0.1  # construction sanity
    assert not res.map2d.values.any()
    assert np.array_equal(res.difference.values == DIFF_PLANARITY, canopy)


def test_submerged_scene_marks_water_stage():
    field = block((20, 20), slice(4, 14), slice(4, 14), 5.0, np.zeros((20, 20)))
    water = water_of(np.ones((20, 20), bool))
    res = extract_buildings(terrain_from(field), water)
    assert not res.map2d.values.any()
    assert np.isnan(res.map3d.values).all()
    box = field > 0
    assert np.array_equal(res.difference.values == DIFF_WATER, box)
    assert not res.difference.values[~box].any()


def test_stages_shrink_then_dilation_grows():
    rng = np.random.default_rng(12)
    for trial in range(24):
        coarse = rng.uniform(0.0, 5.0, (8, 8))
        field = np.kron(coarse, np.ones((4, 4))) + rng.normal(0, 0.3, (32, 32))
        field = np.maximum(field, 0.0)
        water = rng.random((32, 32)) < 0.1
        params = ExtractParams(
            ht=float(rng.choice([1.0, 1.5])),
            k1=int(rng.choice([3, 5, 7])),
            k2=int(rng.choice([1, 3, 5, 7])),
            rt=int(rng.integers(1, 8)),
            k3=int(rng.choice([1, 3, 5])),
            dt=float(rng.choice([0.0, 0.1, 0.5])),
            kernel_shape="diamond" if trial % 2 else "square",
        )
        ts = terrain_from(field)
        wm = water_of(water)

        raw = threshold_candidates(ts.ndhm, params.ht)
        aw = apply_water_mask(raw, wm)
        ao = morphological_filter(aw, params.k1, params.kernel_shape)
        cs = planarity_filter(
            ao, roughness_layer(ts.ndhm, params.k2), params.rt, params.dt
        )
        final = refine_boundary(cs.mask, params.k3)

        assert (aw.values <= raw.values).all()
        assert (ao.values <= aw.values).all()
        assert (cs.mask.values <= ao.values).all()
        assert (cs.mask.values <= final.values).all()
        assert (field[cs.mask.values] >= params.ht).all()

        res = extract_buildings(ts, wm, params)
        assert np.array_equal(res.map2d.values, final.values)


def test_map2d_invariant_to_elevation_offset():
    field = np.zeros((30, 30))
    field[8:20, 8:20] = 5.0
    low = extract_buildings(derive_terrain(raster_of(field)))
    high = extract_buildings(derive_terrain(raster_of(field + 13.25)))
    assert np.array_equal(low.map2d.values, high.map2d.values)
    assert low.map2d.values.any()


def test_map3d_can_use_surface_elevations():
    field = box_and_trees() + 0.0
    ts = TerrainSet(
        raster_of(field + 100.0),
        raster_of(np.full(field.shape, 100.0)),
        raster_of(field),
    )
    res = extract_buildings(ts, params=ExtractParams(map3d_source="dsm"))
    box = block((40, 40), slice(10, 20), slice(10, 20))
    assert (res.map3d.values[box] == 105.0).all()


WIDTH_COLS = {4: 10, 6: 30, 8: 50, 10: 75, 12: 100}


def detected_widths(k1: int) -> set:
    field = np.zeros((30, 130))
    for wdt, c0 in WIDTH_COLS.items():
        field[8: 8 + wdt, c0: c0 + wdt] = 5.0
    res = extract_buildings(terrain_from(field), params=ExtractParams(k1=k1))
    return {
        wdt
        for wdt, c0 in WIDTH_COLS.items()
        if res.map2d.values[8: 8 + wdt, c0: c0 + wdt].any()
    }


def test_k1_trades_small_buildings_for_noise():
    at5, at7, at9 = detected_widths(5), detected_widths(7), detected_widths(9)
    assert at5 == {6, 8, 10, 12}
    assert at7 == {8, 10, 12}
    assert at9 == {10, 12}
    assert at9 <= at7 <= at5
