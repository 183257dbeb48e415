"""End-to-end orchestration: overlapped-window planning, the per-window
stage chain, mosaicking, and the eval and sweep drivers.

The merged cloud is gridded once into a global min-z grid and a global
count grid, and an external terrain grid is sampled once onto the same
grid; each window cuts its padded box from those grids and never sees a
point.  Windows are processed independently (optionally in
parallel) and only each window's core region is written back.  The
mosaic differs from a one-window run (the default window_size_m gives one
to any extent under 1000 m on a side): every stage with a non-local rule
(the occupancy rate p, the ground regions, the nearest fills, the
per-component statistics) sees only the window's padded box.

The chain splits at terrain: the surface stages run once per window, then
extraction once per ExtractParams, one for `map` and one per value for
`sweep`, both in one windowed pass (`_run_windows`).
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import OUTPUT_NAMES, PipelineConfig, apply_overrides, serialize_config
from .errors import ConfigError, IoFailure, LidarMapsError
from .evaluate import (
    DEFAULT_TILE_SIZE,
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
from .extract import ExtractParams, extract_buildings
from .formats import read_ascii_grid, write_ascii_grid
from .grid import (
    GridSpec,
    Raster,
    _check_count,
    connected_components,
    grid_from_bounds,
    interpolate_nearest,
    rasterize_min,
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

    Cores tile the grid exactly; pads clip at the global boundary.
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


def _cut_window(
    dsm: Raster, counts: Raster, ext: Raster | None, box: tuple[int, int, int, int]
) -> tuple[Raster, Raster, Raster | None]:
    """The box of the global min-z, count and external-terrain grids as
    views on its own sub-grid."""
    c0, r0, w, h = box
    sub = dsm.spec.subgrid(c0, r0, w, h)
    sl = (slice(r0, r0 + h), slice(c0, c0 + w))
    return (
        Raster(sub, dsm.values[sl]),
        Raster(sub, counts.values[sl]),
        None if ext is None else Raster(sub, ext.values[sl]),
    )


# ---------------------------------------------------------------------------
# per-window stage chain
# ---------------------------------------------------------------------------

_NODATA = {
    "dsm": np.nan, "dtm": np.nan, "ndhm": np.nan, "water": False,
    "map2d": False, "map3d": np.nan, "diff": np.uint8(0),
}


def _sample_external(ext: Raster, spec: GridSpec) -> Raster:
    """Clamped nearest-cell resample of an external terrain grid onto
    `spec` (no interpolation; reference DTMs are already smooth)."""
    g = ext.spec
    rows, cols = g.cell_of(*spec.cell_center(np.arange(spec.height), np.arange(spec.width)))
    rows = np.clip(rows, 0, g.height - 1)
    cols = np.clip(cols, 0, g.width - 1)
    return Raster(spec, ext.values[np.ix_(rows, cols)])


def _window_products(
    gridded: tuple[Raster, Raster, Raster | None],
    window: Window,
    cfg: PipelineConfig,
    params: list[ExtractParams],
    names: tuple[str, ...],
) -> list[dict[str, np.ndarray]] | None:
    """Surface stages once, then extraction once per entry of `params`, on
    the min-z, count and external-terrain (or None) grids of the window's
    padded box.  Returns, per entry of `params`, the core slices of the
    grids in `names`; None for an empty window.
    """
    dsm_raw, counts, ext = gridded
    if not counts.values.any():
        log.warning("window %d is empty; its core stays nodata", window.index)
        return None
    pc0, pr0 = window.padded[:2]
    c0, r0, w, h = window.core
    sl = (slice(r0 - pr0, r0 - pr0 + h), slice(c0 - pc0, c0 - pc0 + w))
    try:
        dsm = interpolate_nearest(dsm_raw)
        water = detect_water(counts, cfg.water_params())
        terrain = derive_terrain(dsm, cfg.slope_threshold, ext)
        surface = {"dsm": terrain.dsm, "dtm": terrain.dtm, "ndhm": terrain.ndhm, "water": water.mask}
        out = []
        for p in params:
            res = extract_buildings(terrain, water, p)
            grids = {**surface, "map2d": res.map2d, "map3d": res.map3d, "diff": res.difference}
            out.append({n: grids[n].values[sl] for n in names})
            # Only the grids in `names` outlive this value's extraction.
            del res, grids
    except LidarMapsError as exc:
        raise type(exc)(f"window {window.index} {window.core}: {exc}") from exc
    return out


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


def _run_windows(
    cfg: PipelineConfig,
    params: list[ExtractParams],
    names: tuple[str, ...],
    inputs: list,
    workers: int,
    external_dtm: Raster | str | None,
    input_format: str,
) -> tuple[PipelineResult, list[dict[str, Raster]]]:
    """Load the inputs, grid them once, plan and run the windows, and
    mosaic the cores of the grids in `names` once per entry of `params`.
    The PipelineResult returned has no products; they are the list."""
    _check_count(workers, "workers")
    if not inputs:
        raise ConfigError("at least one input cloud is required")
    clouds = [
        c if isinstance(c, PointCloud) else load_points(c, input_format) for c in inputs
    ]
    cloud = merge_clouds(clouds)
    if isinstance(external_dtm, str):
        external_dtm = read_ascii_grid(external_dtm)
    spec = grid_from_bounds(*cloud.bounds, cfg.gsd)
    windows = plan_windows(spec, cfg.window_size_m, cfg.overlap_m)
    log.info(
        "grid %dx%d cells at %.3g m, %d window(s)",
        spec.width, spec.height, cfg.gsd, len(windows),
    )

    dsm_raw, counts = rasterize_min(cloud.points, spec)
    ext = None if external_dtm is None else _sample_external(external_dtm, spec)
    point_count, dropped = len(cloud), cloud.dropped_nonfinite
    del clouds, cloud
    # Serial windows get views into overlapping boxes of these grids;
    # read-only, so no stage can change a neighbouring window's input.
    for grid in (dsm_raw, counts, ext):
        if grid is not None:
            grid.values.flags.writeable = False

    # Each mosaic grid is allocated when the first window result for it
    # arrives.  A window whose core is the whole grid hands its grids over
    # as the products; a read-only one is a cut of a global grid (the
    # external terrain) and is copied, so every product is writeable.
    mosaics: list[dict[str, np.ndarray]] = [{} for _ in params]
    whole = (0, 0, spec.width, spec.height)
    run_window = partial(_window_products, cfg=cfg, params=params, names=names)
    cuts = (_cut_window(dsm_raw, counts, ext, w.padded) for w in windows)
    empty = 0
    # Each worker is sent only its window's padded box of the grids;
    # a pool for one window would only pickle the whole grid to one worker.
    workers = min(workers, len(windows))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for window, prod in zip(windows, (pool.map if pool else map)(run_window, cuts, windows)):
            if prod is None:
                empty += 1
                continue
            c0, r0, w, h = window.core
            for mosaic, window_cores in zip(mosaics, prod):
                for name, values in window_cores.items():
                    if window.core == whole:
                        mosaic[name] = values if values.flags.writeable else values.copy()
                        continue
                    if name not in mosaic:
                        mosaic[name] = np.full(spec.shape, _NODATA[name])
                    mosaic[name][r0:r0 + h, c0:c0 + w] = values

    result = PipelineResult(
        spec=spec,
        products={},
        windows=len(windows),
        point_count=point_count,
        dropped_nonfinite=dropped,
        empty_windows=empty,
    )
    return result, [{n: Raster(spec, v) for n, v in m.items()} for m in mosaics]


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
    result, (products,) = _run_windows(
        cfg, [cfg.extract_params()], OUTPUT_NAMES, inputs, workers, external_dtm, input_format
    )
    result.products = products
    if out_dir is not None:
        _write_products(out_dir, cfg, result)
    return result


def _write_report(out_dir: str, name: str, lines: list[str]) -> None:
    """Write a text report into out_dir (created if missing), one "\n"
    ending per line; any OSError becomes IoFailure."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_products(out_dir: str, cfg: PipelineConfig, result: PipelineResult) -> None:
    # config.txt first: writing it creates out_dir for the grids.
    _write_report(out_dir, "config.txt", serialize_config(cfg).splitlines())
    for name in cfg.outputs:
        write_ascii_grid(os.path.join(out_dir, f"{name}.asc"), result.products[name])
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
    _write_report(out_dir, "summary.txt", lines)


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
        labels, _ = connected_components(load_pred_mask(path), 8)
    require_same_spec(Raster(spec, np.zeros(spec.shape, bool)), labels, "pred and truth")
    return labels


def run_eval(
    pred: Raster,
    truth_labels: Raster,
    tile_size: float = DEFAULT_TILE_SIZE,
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
    _write_report(out_dir, "eval_summary.txt", summary)

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
    _write_report(out_dir, "tiles.txt", rows)

    rows = ["# band_lo band_hi gt_count detected_count detection_rate "
            "pred_count commission_count commission_rate"]
    for b in inst.bands:
        hi = "inf" if math.isinf(b.hi) else f"{b.hi:g}"
        rows.append(
            f"{b.lo:g} {hi} {b.gt_count} {b.detected} {_fmt_ratio(b.detection_rate)} "
            f"{b.pred_count} {b.commission_count} {_fmt_ratio(b.commission_rate)}"
        )
    _write_report(out_dir, "instances.txt", rows)


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
    """Score map2d once per parameter value, everything else fixed.

    All values are validated before any window runs, then share one
    surface pass per window (every SWEEPABLE parameter is an extraction
    setting).  Returns (value, metrics) rows ordered by value; with
    out_dir set, a sweep.txt table is written alongside.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    values = sorted(values)
    params = [apply_overrides(cfg, {param: v}).extract_params() for v in values]
    result, extracted = _run_windows(
        cfg, params, ("map2d",), inputs, workers, external_dtm, input_format
    )
    truth = load_truth_labels(truth_path, result.spec)
    truth_mask = truth.with_values(truth.values > 0)
    rows = [(v, confusion(e["map2d"], truth_mask)) for v, e in zip(values, extracted)]
    if out_dir is not None:
        lines = [f"# sweep param={param}", "# value iou precision recall f1 tp fp fn tn"]
        for v, m in rows:
            lines.append(
                f"{v} {_fmt_ratio(m.iou)} {_fmt_ratio(m.precision)} "
                f"{_fmt_ratio(m.recall)} {_fmt_ratio(m.f1)} {m.tp} {m.fp} {m.fn} {m.tn}"
            )
        _write_report(out_dir, "sweep.txt", lines)
    return rows
