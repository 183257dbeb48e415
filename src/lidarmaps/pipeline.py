"""End-to-end orchestration: overlapped-window planning, the per-window
stage chain, mosaicking, and the eval and sweep drivers.

Windows are processed independently (optionally in parallel) and only each
window's core region is written back, so any seam effect from a stage's
finite support stays inside the discarded padding.  Cell indexing always
refers to the one global grid, making the mosaic bit-identical to a
single-window run away from the global boundary.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, apply_overrides, serialize_config
from .errors import ConfigError, LidarMapsError, NoPointsInGrid
from .evaluate import (
    ConfusionMetrics,
    InstanceReport,
    TileReport,
    band_name,
    confusion,
    load_geojson_polygons,
    match_instances,
    rasterize_polygons,
    tiling_comparison,
)
from .extract import extract_buildings
from .formats import read_ascii_grid, write_ascii_grid
from .grid import (
    GridSpec,
    Raster,
    connected_components,
    grid_from_bounds,
    interpolate_nearest,
    rasterize_min_window,
    require_same_spec,
)
from .hydro import detect_water
from .ingest import PointCloud, load_points, merge_clouds
from .terrain import derive_terrain

log = logging.getLogger(__name__)

SWEEPABLE = ("k1", "dt", "k3", "ht")


# ---------------------------------------------------------------------------
# window planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """One unit of work: a core cell block plus its padded surroundings.

    Both boxes are (col0, row0, width, height) in global grid cells; the
    core is what the window contributes to the mosaic, the padding only
    feeds the stages' spatial support.
    """

    index: int
    core: tuple[int, int, int, int]
    padded: tuple[int, int, int, int]


def plan_windows(spec: GridSpec, window_size_m: float, overlap_m: float) -> list[Window]:
    """Partition the grid into cores and pad each by the overlap.

    Cores tile the grid exactly; pads clip at the global boundary, which is
    the one place mosaics can differ from a monolithic run.
    """
    core_cells = max(1, round(window_size_m / spec.gsd))
    pad = math.ceil(overlap_m / spec.gsd)
    windows: list[Window] = []
    for r0 in range(0, spec.height, core_cells):
        ch = min(core_cells, spec.height - r0)
        for c0 in range(0, spec.width, core_cells):
            cw = min(core_cells, spec.width - c0)
            pc0 = max(0, c0 - pad)
            pr0 = max(0, r0 - pad)
            pc1 = min(spec.width, c0 + cw + pad)
            pr1 = min(spec.height, r0 + ch + pad)
            windows.append(
                Window(
                    index=len(windows),
                    core=(c0, r0, cw, ch),
                    padded=(pc0, pr0, pc1 - pc0, pr1 - pr0),
                )
            )
    return windows


def _select_window_points(points: np.ndarray, spec: GridSpec, box: tuple[int, int, int, int]) -> np.ndarray:
    """Points whose global cell lies in the box; same floor() as the
    rasterizer, so selection can never disagree with gridding."""
    c0, r0, w, h = box
    gc = np.floor((points[:, 0] - spec.origin_x) / spec.gsd)
    gr = np.floor((points[:, 1] - spec.origin_y) / spec.gsd)
    keep = (gc >= c0) & (gc < c0 + w) & (gr >= r0) & (gr < r0 + h)
    return points[keep]


# ---------------------------------------------------------------------------
# per-window stage chain
# ---------------------------------------------------------------------------

PRODUCT_NAMES = ("dsm", "dtm", "ndhm", "water", "map2d", "map3d", "diff")


def _sample_external(ext: Raster, sub: GridSpec) -> Raster:
    """Clamped nearest-cell resample of an external terrain grid onto a
    window grid (no interpolation; reference DTMs are already smooth)."""
    g = ext.spec
    cols = np.floor((sub.origin_x + (np.arange(sub.width) + 0.5) * sub.gsd - g.origin_x) / g.gsd)
    rows = np.floor((sub.origin_y + (np.arange(sub.height) + 0.5) * sub.gsd - g.origin_y) / g.gsd)
    cols = np.clip(cols.astype(np.int64), 0, g.width - 1)
    rows = np.clip(rows.astype(np.int64), 0, g.height - 1)
    return Raster(sub, ext.values[np.ix_(rows, cols)])


def _window_products(
    sub: np.ndarray,
    spec: GridSpec,
    window: Window,
    cfg: PipelineConfig,
    external_dtm: Raster | None,
) -> dict | None:
    """Run the stage chain on one window; `sub` holds exactly the points
    that _select_window_points picked for the window's padded box."""
    pc0, pr0, pw, ph = window.padded
    try:
        dsm_raw, occ = rasterize_min_window(sub, spec, pc0, pr0, pw, ph)
    except NoPointsInGrid:
        log.warning("window %d is empty; its core stays nodata", window.index)
        return None
    try:
        dsm = interpolate_nearest(dsm_raw)
        water = detect_water(occ, cfg.water_params())
        ext = _sample_external(external_dtm, dsm.spec) if external_dtm is not None else None
        terrain = derive_terrain(dsm, occ, cfg.slope_threshold, ext)
        result = extract_buildings(terrain, water, cfg.extract_params())
    except LidarMapsError as exc:
        raise type(exc)(f"window {window.index} {window.core}: {exc}") from exc
    cc0 = window.core[0] - pc0
    cr0 = window.core[1] - pr0
    sl = (slice(cr0, cr0 + window.core[3]), slice(cc0, cc0 + window.core[2]))
    return {
        "dsm": terrain.dsm.values[sl],
        "dtm": terrain.dtm.values[sl],
        "ndhm": terrain.ndhm.values[sl],
        "water": water.mask.values[sl],
        "map2d": result.map2d.values[sl],
        "map3d": result.map3d.values[sl],
        "diff": result.difference.values[sl],
    }


def _run_window_task(task) -> tuple[int, dict | None]:
    points, spec, window, cfg, external_dtm = task
    return window.index, _window_products(points, spec, window, cfg, external_dtm)


# ---------------------------------------------------------------------------
# the map pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    spec: GridSpec
    products: dict[str, Raster]
    windows: int
    point_count: int
    dropped_nonfinite: int
    empty_windows: int


def _empty_products(spec: GridSpec) -> dict[str, np.ndarray]:
    return {
        "dsm": np.full(spec.shape, np.nan),
        "dtm": np.full(spec.shape, np.nan),
        "ndhm": np.full(spec.shape, np.nan),
        "water": np.zeros(spec.shape, bool),
        "map2d": np.zeros(spec.shape, bool),
        "map3d": np.full(spec.shape, np.nan),
        "diff": np.zeros(spec.shape, np.uint8),
    }


def run_pipeline(
    cfg: PipelineConfig,
    inputs: list,
    out_dir: str | None = None,
    workers: int = 1,
    external_dtm: Raster | str | None = None,
    input_format: str = "auto",
) -> PipelineResult:
    """Plan windows over the merged cloud, run each, mosaic the cores.

    `inputs` mixes file paths and in-memory clouds.  With out_dir set, the
    configured outputs plus the canonical config and a run summary are
    written there; files are byte-identical across repeat runs.
    """
    if not inputs:
        raise ConfigError("at least one input cloud is required")
    clouds = [
        c if isinstance(c, PointCloud) else load_points(c, input_format) for c in inputs
    ]
    cloud = merge_clouds(clouds)
    if isinstance(external_dtm, str):
        external_dtm = read_ascii_grid(external_dtm)
    min_x, min_y, max_x, max_y = cloud.bounds
    spec = grid_from_bounds(min_x, min_y, max_x, max_y, cfg.gsd)
    windows = plan_windows(spec, cfg.window_size_m, cfg.overlap_m)
    log.info(
        "grid %dx%d cells at %.3g m, %d window(s)",
        spec.width, spec.height, cfg.gsd, len(windows),
    )

    mosaic = _empty_products(spec)
    tasks = (
        (_select_window_points(cloud.points, spec, w.padded), spec, w, cfg, external_dtm)
        for w in windows
    )
    empty = 0
    # A pool for one window would only pickle the whole cloud to one worker.
    workers = min(workers, len(windows))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_window_task, tasks))
    else:
        results = [_run_window_task(t) for t in tasks]
    for idx, prod in results:
        if prod is None:
            empty += 1
            continue
        c0, r0, w, h = windows[idx].core
        sl = (slice(r0, r0 + h), slice(c0, c0 + w))
        for name in PRODUCT_NAMES:
            mosaic[name][sl] = prod[name]

    products = {name: Raster(spec, mosaic[name]) for name in PRODUCT_NAMES}
    result = PipelineResult(
        spec=spec,
        products=products,
        windows=len(windows),
        point_count=len(cloud),
        dropped_nonfinite=cloud.dropped_nonfinite,
        empty_windows=empty,
    )
    if out_dir is not None:
        _write_products(out_dir, cfg, result)
    return result


def _write_products(out_dir: str, cfg: PipelineConfig, result: PipelineResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in cfg.outputs:
        write_ascii_grid(os.path.join(out_dir, f"{name}.asc"), result.products[name])
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="ascii", newline="\n") as f:
        f.write(serialize_config(cfg))
    lines = [
        f"grid={result.spec.width}x{result.spec.height}",
        f"gsd={cfg.gsd!r}",
        f"windows={result.windows}",
        f"empty_windows={result.empty_windows}",
        f"points={result.point_count}",
        f"dropped_nonfinite={result.dropped_nonfinite}",
        f"map2d_cells={int(np.count_nonzero(result.products['map2d'].values))}",
        f"water_cells={int(np.count_nonzero(result.products['water'].values))}",
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    cells: ConfusionMetrics
    tiles: TileReport
    instances: InstanceReport


def load_pred_mask(path: str) -> Raster:
    r = read_ascii_grid(path)
    mask = np.nan_to_num(r.values, nan=0.0) > 0.5
    return Raster(r.spec, mask)


def load_truth_labels(path: str, spec: GridSpec) -> Raster:
    """Truth instances from GeoJSON footprints or a mask/label grid.

    GeoJSON is rasterized onto `spec`; a grid file must already be on
    `spec` and is relabeled by 8-connectivity so both routes yield
    comparable instance ids.
    """
    if path.lower().endswith((".geojson", ".json")):
        labels = rasterize_polygons(load_geojson_polygons(path), spec)
    else:
        r = read_ascii_grid(path)
        mask = Raster(r.spec, np.nan_to_num(r.values, nan=0.0) > 0.5)
        labels, _ = connected_components(mask, 8)
    require_same_spec(Raster(spec, np.zeros(spec.shape, bool)), labels, "pred and truth")
    return labels


def run_eval(
    pred: Raster,
    truth_labels: Raster,
    tile_size: float = 500.0,
    out_dir: str | None = None,
) -> EvalResult:
    """Cellwise, tiled, and instance-level comparison of pred vs truth."""
    pred_mask = pred.with_values(pred.values.astype(bool))
    truth_mask = truth_labels.with_values(truth_labels.values > 0)
    res = EvalResult(
        cells=confusion(pred_mask, truth_mask),
        tiles=tiling_comparison(pred_mask, truth_mask, tile_size),
        instances=match_instances(pred_mask, truth_labels),
    )
    if out_dir is not None:
        _write_eval_reports(out_dir, res, pred.spec)
    return res


def _fmt_ratio(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return f"{v:.6f}"


def _write_eval_reports(out_dir: str, res: EvalResult, spec: GridSpec) -> None:
    os.makedirs(out_dir, exist_ok=True)
    c = res.cells
    t = res.tiles
    inst = res.instances

    summary = [
        "== cells ==",
        f"tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}",
        f"iou={_fmt_ratio(c.iou)}",
        f"precision={_fmt_ratio(c.precision)}",
        f"recall={_fmt_ratio(c.recall)}",
        f"f1={_fmt_ratio(c.f1)}",
        "",
        f"== tiles ({t.tile_size:g} m) ==",
        f"count={t.tile_count} defined={int(np.count_nonzero(~np.isnan(t.iou)))}",
    ]
    worst = [tid for tid in t.ranking[:10] if not np.isnan(t.iou[tid])]
    summary.append(
        "worst: " + " ".join(f"{tid}:{t.iou[tid]:.4f}" for tid in worst)
        if worst
        else "worst: none defined"
    )
    summary += [
        "",
        "== instances ==",
        f"truth={inst.n_truth} pred={inst.n_pred}",
        f"detection_rate={_fmt_ratio(inst.detection_rate)} "
        f"commission_rate={_fmt_ratio(inst.commission_rate)}",
    ]
    for b in inst.bands:
        summary.append(
            f"band {band_name(b.lo, b.hi)}: gt={b.gt_count} detected={b.detected} "
            f"rate={_fmt_ratio(b.detection_rate)} pred={b.pred_count} "
            f"commissions={b.commission_count} rate={_fmt_ratio(b.commission_rate)}"
        )
    with open(os.path.join(out_dir, "eval_summary.txt"), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(summary) + "\n")

    rows = [
        f"# tile_size={t.tile_size:g} tiles_x={t.tiles_x} tiles_y={t.tiles_y}",
        "# rank tile_id x0 y0 x1 y1 tp fp fn tn iou",
    ]
    for rank, tid in enumerate(t.ranking):
        x0, y0, x1, y1 = t.tile_bounds(int(tid), spec)
        iou = t.iou[tid]
        rows.append(
            f"{rank} {tid} {x0:.3f} {y0:.3f} {x1:.3f} {y1:.3f} "
            f"{t.tp[tid]} {t.fp[tid]} {t.fn[tid]} {t.tn[tid]} "
            f"{'nan' if np.isnan(iou) else f'{iou:.6f}'}"
        )
    with open(os.path.join(out_dir, "tiles.txt"), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(rows) + "\n")

    rows = ["# band_lo band_hi gt_count detected_count detection_rate "
            "pred_count commission_count commission_rate"]
    for b in inst.bands:
        hi = "inf" if math.isinf(b.hi) else f"{b.hi:g}"
        rows.append(
            f"{b.lo:g} {hi} {b.gt_count} {b.detected} {_fmt_ratio(b.detection_rate)} "
            f"{b.pred_count} {b.commission_count} {_fmt_ratio(b.commission_rate)}"
        )
    with open(os.path.join(out_dir, "instances.txt"), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------


def run_sweep(
    cfg: PipelineConfig,
    param: str,
    values: list,
    inputs: list,
    truth_path: str,
    out_dir: str | None = None,
    workers: int = 1,
    external_dtm: Raster | str | None = None,
    input_format: str = "auto",
) -> list[tuple[object, ConfusionMetrics]]:
    """One pipeline+eval run per parameter value, everything else fixed.

    Returns (value, metrics) rows ordered by value; with out_dir set, a
    sweep.txt table is written alongside.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    clouds = [
        c if isinstance(c, PointCloud) else load_points(c, input_format) for c in inputs
    ]
    cloud = merge_clouds(clouds)
    truth: Raster | None = None
    rows: list[tuple[object, ConfusionMetrics]] = []
    for v in sorted(values):
        cfg_v = apply_overrides(cfg, {param: v})
        res = run_pipeline(cfg_v, [cloud], workers=workers, external_dtm=external_dtm)
        if truth is None:
            truth = load_truth_labels(truth_path, res.spec)
        pred = res.products["map2d"]
        truth_mask = truth.with_values(truth.values > 0)
        rows.append((v, confusion(pred, truth_mask)))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = [f"# sweep param={param}", "# value iou precision recall f1 tp fp fn tn"]
        for v, m in rows:
            lines.append(
                f"{v} {_fmt_ratio(m.iou)} {_fmt_ratio(m.precision)} "
                f"{_fmt_ratio(m.recall)} {_fmt_ratio(m.f1)} {m.tp} {m.fp} {m.fn} {m.tn}"
            )
        with open(os.path.join(out_dir, "sweep.txt"), "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    return rows
