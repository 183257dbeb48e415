"""Candidate thresholding, the four filter stages, and the 3D roof map."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    distinct_scan,
    extract_scan,
    flood_labels,
    masked_median_scan,
    raster_of,
    round_half_away,
)
from lidarmaps.errors import BadKernel, ConfigError, SpecMismatch
from lidarmaps.extract import (
    DIFF_DILATION,
    DIFF_MORPHOLOGY,
    DIFF_PLANARITY,
    DIFF_WATER,
    ExtractParams,
    build_3d,
    extract_buildings,
    planarity_filter,
    roughness_at,
)
from lidarmaps import _kernels
from lidarmaps.grid import dilate, opening
from lidarmaps.hydro import WaterMask, WaterParams
from lidarmaps.terrain import TerrainSet, derive_terrain

# k1 = k2 = k3 = 1: the opening and the dilation are identities and every
# cell's roughness is 1, below rt, so the map is the thresholded, water-cut
# candidates.
KEEP_ALL = ExtractParams(k1=1, k2=1, k3=1)


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


def roughness_grid(field, k2: int) -> np.ndarray:
    """Roughness at every cell of field, as a grid."""
    field = np.asarray(field, np.float64)
    return roughness_at(raster_of(field), k2, np.arange(field.size)).reshape(field.shape)


def planarity_of(monkeypatch, cand, rough, rt=4, dt=0.1, asked=None):
    """planarity_filter on the candidates `cand` with the roughness grid
    `rough` read at the cells it asks for; those cells go to `asked`."""

    def read(heights, k, cells):
        if asked is not None:
            asked.append(cells.copy())
        return np.asarray(rough).reshape(-1)[cells]

    monkeypatch.setattr(_kernels, "distinct_count", read)
    cand = np.asarray(cand, bool)
    return planarity_filter(raster_of(cand), raster_of(np.zeros(cand.shape)), 5, rt, dt)


# ---------------------------------------------------------------------------
# stage operations
# ---------------------------------------------------------------------------


def test_threshold_is_inclusive():
    res = extract_buildings(terrain_from([[2.0, 1.0, 1.5]]), params=KEEP_ALL)
    assert res.map2d.values.tolist() == [[True, False, True]]


def test_water_mask_cuts_candidates():
    water = np.zeros((6, 6), bool)
    water[2:4, 2:4] = True
    res = extract_buildings(terrain_from(np.full((6, 6), 5.0)), water_of(water), KEEP_ALL)
    assert np.array_equal(res.map2d.values, ~water)
    assert np.array_equal(res.difference.values == DIFF_WATER, water)


def test_empty_water_mask_is_identity():
    cand = np.eye(5, dtype=bool)
    res = extract_buildings(terrain_from(cand * 5.0), water_of(np.zeros((5, 5), bool)), KEEP_ALL)
    assert np.array_equal(res.map2d.values, cand)
    assert not res.difference.values.any()


def test_all_water_clears_everything():
    res = extract_buildings(
        terrain_from(np.full((5, 5), 5.0)), water_of(np.ones((5, 5), bool)), KEEP_ALL
    )
    assert not res.map2d.values.any()
    assert (res.difference.values == DIFF_WATER).all()


def test_water_mask_requires_same_grid():
    water = WaterMask(raster_of(np.zeros((6, 5), bool)))
    with pytest.raises(SpecMismatch):
        extract_buildings(terrain_from(np.full((5, 5), 5.0)), water)


def test_opening_erases_narrow_blobs():
    small = raster_of(block((20, 20), slice(5, 11), slice(5, 11)))  # 3 m wide
    assert not opening(small, 7).values.any()
    big = raster_of(block((20, 20), slice(5, 13), slice(5, 13)))  # 4 m wide
    out = opening(big, 7)
    assert np.array_equal(out.values, big.values)


def test_opening_erases_singletons():
    rng = np.random.default_rng(2)
    scatter = rng.random((30, 30)) < 0.02
    out = opening(raster_of(scatter), 3)
    assert not out.values.any()


def test_diamond_kernel_keeps_diamond_corners():
    di, dj = np.meshgrid(np.arange(21) - 10, np.arange(21) - 10, indexing="ij")
    diamond = np.abs(di) + np.abs(dj) <= 6
    kept_diamond = opening(raster_of(diamond), 5, "diamond").values
    kept_square = opening(raster_of(diamond), 5, "square").values
    assert np.array_equal(kept_diamond, diamond)
    assert kept_square.sum() < diamond.sum()
    assert not kept_square[10, 16]  # tip clipped by the square kernel
    assert (kept_square <= kept_diamond).all()


def test_roughness_constant_field():
    rough = roughness_grid(np.full((9, 9), 3.0), 5)
    assert rough.dtype == np.int32
    assert (rough == 1).all()


def test_roughness_staircase():
    field = np.tile(np.arange(20.0), (9, 1))
    rough = roughness_grid(field, 5)
    assert (rough[:, 2:18] == 5).all()
    assert (rough[:, 0] == 3).all()  # window clipped at the border


def test_roughness_three_distinct_counts_as_planar():
    field = np.zeros((5, 5))
    field[0, :3] = 3.0
    field[1, 2] = 5.0
    rough = roughness_grid(field, 5)
    assert rough[2, 2] == 3
    assert rough[2, 2] < 4  # planar under the default cutoff


def test_roughness_rounds_halves_away_from_zero():
    field = np.full((7, 7), 2.5)
    field[3, 3] = 3.4
    rough = roughness_grid(field, 3)
    assert (rough == 1).all()


def test_roughness_matches_distinct_oracle():
    rng = np.random.default_rng(17)
    field = rng.uniform(0.0, 6.0, (21, 26))
    ints = round_half_away(field)
    for k2 in (3, 5, 7):
        got = roughness_grid(field, k2)
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
        cells = np.flatnonzero(m)
        got = roughness_at(raster_of(field), k2, cells)
        want = distinct_scan(round_half_away(field), k2)
        assert got.dtype == np.int32 and got.shape == cells.shape
        np.testing.assert_array_equal(got, want.reshape(-1)[cells], err_msg=f"k2={k2}")
        np.testing.assert_array_equal(roughness_grid(field, k2), want)


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
        np.testing.assert_array_equal(roughness_grid(field, k2), want)
    field = np.full((3, 3), 2.0)
    field[1, 1] = np.nan
    assert (roughness_grid(field, 3) == 2).all()


def test_planarity_requires_same_grid():
    with pytest.raises(SpecMismatch):
        planarity_filter(raster_of(np.ones((5, 5), bool)), raster_of(np.zeros((5, 6))), 3)


def test_roughness_window_validation():
    ndhm = raster_of(np.zeros((5, 5)))
    for bad in (0, 2, -3):
        with pytest.raises(BadKernel):
            roughness_at(ndhm, bad, np.arange(25))


def test_planarity_ratio_of_a_fifth(monkeypatch):
    cand = block((12, 12), slice(1, 11), slice(1, 11))
    rough = np.full((12, 12), 7)
    rough[1:3, 1:11] = 1  # 20 planar cells of 100
    cs = planarity_of(monkeypatch, cand, rough, rt=4, dt=0.1)
    assert cs.count == 1
    assert cs.planarity[1] == pytest.approx(0.2)
    assert cs.kept[1]
    assert np.array_equal(cs.mask.values, cand)


def test_planarity_below_cutoff_drops_component(monkeypatch):
    cand = block((12, 12), slice(1, 11), slice(1, 11))
    rough = np.full((12, 12), 7)
    rough[1, 1:6] = 1  # 5 planar cells of 100
    cs = planarity_of(monkeypatch, cand, rough, rt=4, dt=0.1)
    assert cs.planarity[1] == pytest.approx(0.05)
    assert not cs.kept[1]
    assert not cs.mask.values.any()


def test_planarity_zero_cutoff_keeps_everything(monkeypatch):
    rng = np.random.default_rng(4)
    cand = rng.random((24, 24)) < 0.3
    rough = rng.integers(1, 9, (24, 24))
    cs = planarity_of(monkeypatch, cand, rough, rt=4, dt=0.0)
    assert np.array_equal(cs.mask.values, cand)
    assert cs.kept[1:].all()


def test_planarity_full_cutoff_demands_all_planar(monkeypatch):
    cand = np.zeros((10, 20), bool)
    cand[2:6, 2:6] = True
    cand[2:6, 10:14] = True
    rough = np.ones((10, 20), np.int64)
    rough[3, 11] = 9  # one rough cell in the second block
    cs = planarity_of(monkeypatch, cand, rough, rt=4, dt=1.0)
    assert cs.mask.values[2:6, 2:6].all()
    assert not cs.mask.values[2:6, 10:14].any()


def test_planarity_stats_are_consistent(monkeypatch):
    rng = np.random.default_rng(8)
    cand = rng.random((30, 30)) < 0.35
    rough = rng.integers(1, 8, (30, 30))
    cs = planarity_of(monkeypatch, cand, rough, rt=4, dt=0.3)
    labels, count = flood_labels(cand, eight=True)
    assert cs.count == count
    assert cs.cell_count[0] == 0 and cs.planarity[0] == 0.0 and not cs.kept[0]
    for i in range(1, cs.count + 1):
        cells = labels == i
        assert cs.cell_count[i] == np.count_nonzero(cells)
        planar = np.count_nonzero(rough[cells] < 4)
        assert cs.planarity[i] * cs.cell_count[i] == pytest.approx(planar)
        assert cs.kept[i] == (cs.planarity[i] >= 0.3)
    np.testing.assert_array_equal(cs.mask.values, cs.kept[labels])


def test_planarity_never_reads_roughness_outside_candidates(monkeypatch):
    # The roughness kernel is asked for the candidate cells only, once, in
    # row-major order; changing roughness elsewhere changes nothing.
    rng = np.random.default_rng(9)
    for trial in range(40):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        cand = rng.random(shape) < rng.uniform(0.1, 0.6)
        rough = rng.integers(1, 9, shape)
        rt = int(rng.integers(1, 8))
        dt = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        asked = []
        ref = planarity_of(monkeypatch, cand, rough, rt, dt, asked)
        assert len(asked) == 1
        np.testing.assert_array_equal(asked[0], np.flatnonzero(cand))
        for garbage in (-1, 10**6):
            noisy = np.where(cand, rough, garbage)
            cs = planarity_of(monkeypatch, cand, noisy, rt, dt)
            np.testing.assert_array_equal(cs.kept, ref.kept)
            np.testing.assert_array_equal(cs.planarity, ref.planarity)
            np.testing.assert_array_equal(cs.mask.values, ref.mask.values)
    # In the chain, the cells asked for are the candidates the water cut
    # and the opening left: raw cells with no water or opening code.
    monkeypatch.undo()
    real, asked = _kernels.distinct_count, []

    def spy(heights, k, cells):
        asked.append(cells.copy())
        return real(heights, k, cells)

    monkeypatch.setattr(_kernels, "distinct_count", spy)
    field = np.kron(rng.uniform(0.0, 5.0, (8, 8)), np.ones((4, 4)))
    res = extract_buildings(terrain_from(field), water_of(rng.random((32, 32)) < 0.1))
    diff = res.difference.values
    opened = (field >= 1.5) & (diff != DIFF_WATER) & (diff != DIFF_MORPHOLOGY)
    assert len(asked) == 1
    np.testing.assert_array_equal(asked[0], np.flatnonzero(opened))


def test_boundary_dilation_examples():
    blob = raster_of(block((20, 20), slice(5, 15), slice(5, 15)))
    grown = dilate(blob, 5, "square").values
    assert np.array_equal(grown, block((20, 20), slice(3, 17), slice(3, 17)))
    assert np.array_equal(dilate(blob, 1, "square").values, blob.values)


def test_boundary_dilation_merges_close_blobs():
    two = np.zeros((10, 20), bool)
    two[4:6, 2:6] = True
    two[4:6, 9:13] = True  # 3-cell gap
    merged = dilate(raster_of(two), 5, "square").values
    _, count = flood_labels(merged, eight=True)
    assert count == 1
    # The chain grows the kept candidates by the same square k3 dilation.
    res = extract_buildings(terrain_from(two * 5.0), params=ExtractParams(k1=1, k2=1, k3=5))
    assert np.array_equal(res.map2d.values, merged)


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
    # Each filter only removes candidates and the dilation only adds, as
    # the difference codes show: a removed cell is a raw candidate coded by
    # the stage that cut it, an added cell is coded as dilation.
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
        res = extract_buildings(terrain_from(field), water_of(water), params)
        raw = field >= params.ht
        kept, final, diff = res.candidates.mask.values, res.map2d.values, res.difference.values

        assert (kept <= raw & ~water).all()
        assert (kept <= final).all()
        assert (field[kept] >= params.ht).all()
        assert np.array_equal(diff == DIFF_DILATION, final & ~raw)
        assert np.array_equal(np.isin(diff, (DIFF_WATER, DIFF_MORPHOLOGY, DIFF_PLANARITY)), raw & ~final)
        assert np.array_equal(diff == DIFF_WATER, raw & water & ~final)
        assert not (kept & (diff != 0)).any()


def test_extract_matches_scan_oracle():
    # The whole chain against extract_scan, bit for bit, on random blocky
    # scenes with cells exactly at ht, both kernel shapes, the roof median
    # on and off, both map3d sources, and water that misses or overlaps
    # the candidates.
    rng = np.random.default_rng(41)
    for trial in range(60):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        coarse = rng.uniform(0.0, 5.0, (h // 4 + 1, w // 4 + 1))
        field = np.kron(coarse, np.ones((4, 4)))[:h, :w] + rng.normal(0, 0.4, (h, w))
        params = ExtractParams(
            ht=float(rng.choice([1.0, 1.5, 2.25])),
            k1=int(rng.choice([1, 3, 5, 7])),
            k2=int(rng.choice([1, 3, 5])),
            rt=int(rng.integers(1, 8)),
            dt=float(rng.choice([0.0, 0.1, 0.5, 1.0])),
            k3=int(rng.choice([1, 3, 5])),
            kernel_shape="diamond" if trial % 2 else "square",
            median_roof=3 if trial % 3 == 0 else 0,
            map3d_source="dsm" if trial % 4 >= 2 else "ndhm",
        )
        field[rng.random((h, w)) < 0.15] = params.ht  # ties at the threshold
        kind = trial % 3
        if kind == 0:
            water = None
        elif kind == 1:
            water = (field < params.ht) & (rng.random((h, w)) < 0.5)  # misses the candidates
        else:
            water = rng.random((h, w)) < 0.15  # overlaps them
        dsm = field + rng.uniform(90.0, 110.0, (h, w))
        ts = TerrainSet(raster_of(dsm), raster_of(dsm - field), raster_of(field))
        res = extract_buildings(ts, None if water is None else water_of(water), params)
        map2d, map3d, diff, kept = extract_scan(field, water, params, dsm)
        msg = f"trial {trial}: {params}"
        np.testing.assert_array_equal(res.map2d.values, map2d, err_msg=msg)
        np.testing.assert_array_equal(res.map3d.values, map3d, err_msg=msg)
        np.testing.assert_array_equal(res.difference.values, diff, err_msg=msg)
        np.testing.assert_array_equal(res.candidates.kept, kept, err_msg=msg)
        assert res.candidates.count == kept.size - 1


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
