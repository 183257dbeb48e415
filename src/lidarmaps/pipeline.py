"""End-to-end orchestration: overlapped-window planning, the per-window
stage chain, mosaicking, and the sweep driver (the eval driver is in
evaluate.py).

Every input cloud is gridded in place, block by block, into one global
min-z grid and one occupancy grid (a LAS file as it is read, after a
first pass for its bounds, so its points are never held whole), and an
external terrain grid is sampled once onto the same grid; each window
cuts its padded box from those grids and never sees a point.  Windows
run one at a time in this process, and only each window's core is
copied into the mosaic.  `_CHAIN` declares the grids each stage reads
and makes, and a window drops each grid after its last reader there, so
the last window's chain frees the global grids.  The mosaic differs from
a one-window run (the default window_size_m gives one to any extent
under 1000 m on a side): every stage with a non-local rule (the
occupancy rate p, the ground regions, the nearest fills, the
per-component statistics) sees only the window's padded box.

The chain splits at terrain: the surface stages run once per window, then
extraction once per ExtractParams, one for `map` and one per value for
`sweep`, both in one windowed pass (`_run_windows`).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .config import (
    OUTPUT_NAMES,
    SWEEPABLE,
    ExtractParams,
    PipelineConfig,
    _check_count,
    apply_overrides,
    serialize_config,
)
from .errors import ConfigError, GridTooLarge, LidarMapsError
from .extract import extract_buildings
from .formats import _write_report, read_ascii_grid, write_ascii_grid
from .grid import GridSpec, Raster, grid_from_bounds, interpolate_nearest, rasterize_min_clouds
from .hydro import WaterMask, detect_water
from .ingest import PointCloud, scan_points
from .terrain import TerrainSet, derive_terrain

if TYPE_CHECKING:
    from .evaluate import ConfusionMetrics

log = logging.getLogger(__name__)


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


def _cut_window(grids: dict, box: tuple[int, int, int, int]) -> dict[str, Raster | None]:
    """The box of each global grid (min-z, occupancy and external
    terrain, or None) as a view on its own sub-grid."""
    c0, r0, w, h = box
    sub = grids["min_z"].spec.subgrid(c0, r0, w, h)
    sl = (slice(r0, r0 + h), slice(c0, c0 + w))
    return {n: None if g is None else Raster(sub, g.values[sl]) for n, g in grids.items()}


# ---------------------------------------------------------------------------
# per-window stage chain
# ---------------------------------------------------------------------------

# The chain after rasterize: (stage, grids it reads, grids it makes).
# Extract also reads the grid its map3d_source names.
_CHAIN = (
    ("fill", ("min_z",), ("dsm",)),
    ("water", ("occupied",), ("water",)),
    ("terrain", ("dsm", "external"), ("dtm", "ndhm")),
    ("extract", ("ndhm", "water"), ("map2d", "map3d", "diff")),
)


def _sample_external(ext: Raster, spec: GridSpec) -> Raster:
    """Clamped nearest-cell resample of an external terrain grid onto
    `spec` (no interpolation; reference DTMs are already smooth)."""
    g = ext.spec
    rows, cols = g.cell_of(*spec.cell_center(np.arange(spec.height), np.arange(spec.width)))
    rows = np.clip(rows, 0, g.height - 1)
    cols = np.clip(cols, 0, g.width - 1)
    return Raster(spec, ext.values[np.ix_(rows, cols)])


def _window_products(
    grids: dict[str, Raster | None],
    window: Window,
    cfg: PipelineConfig,
    params: list[ExtractParams],
    names: tuple[str, ...],
) -> list[dict[str, np.ndarray]] | None:
    """Surface stages once, then extraction once per entry of `params`, on
    the window's padded box of the min-z, occupancy and external-terrain
    (or None) grids, keyed min_z, occupied and external.  Returns, per
    entry of `params`, the core slices of the grids in `names`; None for
    an empty window.

    The lifetimes come from _CHAIN: after each stage, every grid whose
    last reader (or, if none, maker) it was leaves `grids` unless it is
    in `names`, and a grid that no caller holds elsewhere is freed there.
    """
    if not grids["occupied"].values.any():
        log.warning("window %d is empty; its core stays nodata", window.index)
        return None
    pc0, pr0 = window.padded[:2]
    c0, r0, w, h = window.core
    sl = (slice(r0 - pr0, r0 - pr0 + h), slice(c0 - pc0, c0 - pc0 + w))
    last = {grid: stage for stage, reads, makes in _CHAIN for grid in (*makes, *reads)}
    last.update(dict.fromkeys((p.map3d_source for p in params), "extract"))

    def done(stage):
        for name in [n for n in grids if last.get(n) == stage and n not in names]:
            del grids[name]

    try:
        grids["dsm"] = interpolate_nearest(grids["min_z"])
        done("fill")
        grids["water"] = detect_water(grids["occupied"], cfg.water_params()).mask
        done("water")
        terrain = derive_terrain(grids["dsm"], cfg.slope_threshold, grids["external"])
        grids["dtm"], grids["ndhm"] = terrain.dtm, terrain.ndhm
        del terrain
        done("terrain")
        out = []
        for p in params:
            terrain = TerrainSet(grids.get("dsm"), grids.get("dtm"), grids["ndhm"])
            res = extract_buildings(terrain, WaterMask(grids["water"]), p)
            made = {**grids, "map2d": res.map2d, "map3d": res.map3d, "diff": res.difference}
            out.append({n: made[n].values[sl] for n in names})
            # Only the grids in `names` outlive this value's extraction.
            del terrain, res, made
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
    clouds = [c if isinstance(c, PointCloud) else scan_points(c, input_format) for c in inputs]
    if isinstance(external_dtm, str):
        external_dtm = read_ascii_grid(external_dtm)
    lo_x, lo_y, hi_x, hi_y = zip(*(c.bounds for c in clouds))
    spec = grid_from_bounds(min(lo_x), min(lo_y), max(hi_x), max(hi_y), cfg.gsd)
    windows = plan_windows(spec, cfg.window_size_m, cfg.overlap_m)
    log.info("grid %dx%d cells at %.3g m, %d window(s)",
             spec.width, spec.height, cfg.gsd, len(windows))
    # The fill sees one padded box at a time; some box is both the tallest and widest.
    _kernels.check_fill_shape(max(w.padded[3] for w in windows), max(w.padded[2] for w in windows))

    whole = (0, 0, spec.width, spec.height)
    try:
        grids = rasterize_min_clouds((p for c in clouds for p in c.chunks()), spec, *whole)
    except MemoryError as exc:
        raise GridTooLarge(f"a {spec.width} x {spec.height} grid does not fit in memory") from exc
    grids = dict(zip(("min_z", "occupied"), grids))
    grids["external"] = None if external_dtm is None else _sample_external(external_dtm, spec)
    point_count, dropped = sum(len(c) for c in clouds), sum(c.dropped_nonfinite for c in clouds)
    # Windows get views into overlapping boxes of these grids; read-only,
    # so no stage can change a neighbouring window's input.
    for grid in grids.values():
        if grid is not None:
            grid.values.flags.writeable = False
    del clouds, external_dtm, grid

    # A window's grids (`cores` and the loop's views) are freed before the
    # next window starts.  A whole-grid window hands its grids over as the
    # products, copying a read-only cut so that every product is writeable.
    mosaics: list[dict[str, np.ndarray]] = [{} for _ in params]
    empty = 0
    for window in windows:
        cut = _cut_window(grids, window.padded)
        if window is windows[-1]:
            # No later window reads the global grids, so the last one's
            # chain frees each of them after its last reader.
            grids.clear()
        cores = _window_products(cut, window, cfg, params, names)
        if cores is None:
            empty += 1
            continue
        c0, r0, w, h = window.core
        for mosaic, window_cores in zip(mosaics, cores):
            for name, values in window_cores.items():
                if window.core == whole:
                    mosaic[name] = values if values.flags.writeable else values.copy()
                    continue
                if name not in mosaic:
                    nodata = np.nan if values.dtype.kind == "f" else 0
                    mosaic[name] = np.full(spec.shape, nodata, values.dtype)
                mosaic[name][r0:r0 + h, c0:c0 + w] = values
        del cores, window_cores, values

    result = PipelineResult(
        spec=spec, products={}, windows=len(windows), point_count=point_count,
        dropped_nonfinite=dropped, empty_windows=empty,
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
    """Plan windows over the inputs' extent, run each, mosaic the cores.

    `inputs` mixes file paths and in-memory clouds.  With out_dir set, the
    configured outputs plus the canonical config and a run summary are
    written there; files are byte-identical across repeat runs.
    `workers` must be an integer >= 1 and has no effect.  The products
    are the configured outputs plus map2d and water, which the summary
    counts; no other grid outlives its last reader.
    """
    names = tuple(n for n in OUTPUT_NAMES if n in (*cfg.outputs, "map2d", "water"))
    result, (products,) = _run_windows(
        cfg, [cfg.extract_params()], names, inputs, workers, external_dtm, input_format
    )
    result.products = products
    if out_dir is not None:
        _write_products(out_dir, cfg, result)
    return result


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

    `param` is any ExtractParams field.  All values are validated before
    any window runs, then share one surface pass per window, which reads
    no extraction setting.  median_roof and map3d_source shape only map3d,
    so their rows repeat.  Returns (value, metrics) rows ordered by value;
    with out_dir set, a sweep.txt table is written alongside.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    values = sorted(values)
    params = [apply_overrides(cfg, {param: v}).extract_params() for v in values]
    for a, b in zip(values, values[1:]):
        if a == b:
            raise ConfigError(f"sweep value {param}={b} is given more than once")
    result, extracted = _run_windows(
        cfg, params, ("map2d",), inputs, workers, external_dtm, input_format
    )
    # Imported after the windows, not before: the import holds about 0.85 MB
    # of RSS (json, and compiling evaluate.py when no bytecode is cached),
    # and a 250 m sweep peaked 0.7 MB higher with it taken first.
    from .evaluate import _fmt_ratio, confusion, load_truth_labels

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
