"""Traced in-process replay of one pass of a workload.

The replay calls the public function at each module boundary in the order
the CLI's pipeline does: ingest.load_points, pipeline.plan_windows, then per
window grid.rasterize_min_window, grid.interpolate_nearest,
hydro.detect_water, terrain.breakline_map -> extract_objects -> fill_ground
-> compute_ndhm, extract.extract_buildings, and formats.write_ascii_grid for
the mosaic; eval goes through formats.read_ascii_grid,
evaluate.load_geojson_polygons + rasterize_polygons, confusion,
tiling_comparison and match_instances.  Each call is one span (name, start,
end, parent, pass, window), kept in memory and written once at the end,
together with counters taken at the same boundaries and hashes of what the
replay produced, so the caller can check that the replay did what the CLI
did.

After the replayed commands, run_pipeline itself runs in-process with 1 and
then 2 workers, which gives the pipeline's own overhead and its parallel
speedup.

Usage (the caller puts the package's src directory on PYTHONPATH):
    python3 e2ebench/replay.py --workload map-tiled --scene DIR --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from workloads import SWEEP_PARAM, WORKLOADS, Workload

STAGES = (
    "pipeline.select_points",
    "grid.rasterize_min_window",
    "grid.interpolate_nearest",
    "hydro.detect_water",
    "terrain.derive_terrain",
    "extract.extract_buildings",
)
# The stages a cache of per-window surfaces would let a sweep skip.
SURFACE_STAGES = STAGES[:5]


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, window: int | None = None):
        parent = self._open[-1] if self._open else None
        if window is None and parent is not None:
            window = parent["window"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "pass": self.pass_id,
            "window": window,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children's intervals are clipped to the parent and merged first, so
    overlapping children (as from parallel work) are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fmt_ratio(v: float | None) -> str:
    # The CLI's report format for a ratio.
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return f"{v:.6f}"


class Replay:
    def __init__(self, workload: Workload, scene_dir: str, out_dir: str):
        # Imported here so that importing this module, as run.py and the
        # self-tests do, needs no lidarmaps on the path.
        import lidarmaps as lm
        from lidarmaps import terrain
        from lidarmaps.config import apply_overrides

        self.lm = lm
        self.terrain = terrain
        self.apply_overrides = apply_overrides
        self.w = workload
        self.las = os.path.join(scene_dir, "scene.las")
        self.truth = os.path.join(scene_dir, "footprints.geojson")
        self.out = out_dir
        self.tr = Tracer()
        self.result: dict = {"hashes": {}}

    # -- the per-window chain -------------------------------------------------

    def _select(self, points: np.ndarray, spec, box) -> np.ndarray:
        # The pipeline's own selection rule: same floor() as the rasterizer.
        c0, r0, w, h = box
        gc = np.floor((points[:, 0] - spec.origin_x) / spec.gsd)
        gr = np.floor((points[:, 1] - spec.origin_y) / spec.gsd)
        keep = (gc >= c0) & (gc < c0 + w) & (gr >= r0) & (gr < r0 + h)
        return points[keep]

    def _window(self, points, spec, win, cfg) -> dict | None:
        lm, tr = self.lm, self.tr
        pc0, pr0, pw, ph = win.padded
        with tr.span("pipeline.select_points"):
            sub = self._select(points, spec, win.padded)
        try:
            with tr.span("grid.rasterize_min_window"):
                dsm_raw, occ = lm.rasterize_min_window(sub, spec, pc0, pr0, pw, ph)
        except lm.NoPointsInGrid:
            return None
        tr.count("grid.cells", dsm_raw.values.size)
        tr.count("grid.void_cells", int(np.count_nonzero(np.isnan(dsm_raw.values))))
        with tr.span("grid.interpolate_nearest"):
            dsm = lm.interpolate_nearest(dsm_raw)
        with tr.span("hydro.detect_water"):
            water = lm.detect_water(occ, cfg.water_params())
        tr.count("hydro.water_cells", int(np.count_nonzero(water.mask.values)))
        terrain = self.terrain
        with tr.span("terrain.derive_terrain"):
            with tr.span("terrain.breakline_map"):
                br = terrain.breakline_map(dsm, cfg.slope_threshold)
            with tr.span("terrain.extract_objects"):
                objects = terrain.extract_objects(br)
            with tr.span("terrain.fill_ground"):
                dtm = terrain.fill_ground(dsm, objects)
            with tr.span("terrain.compute_ndhm"):
                ndhm = terrain.compute_ndhm(dsm, dtm)
            surface = lm.TerrainSet(dsm, dtm, ndhm, occ)
        tr.count("terrain.breakline_cells", int(np.count_nonzero(br.values)))
        tr.count("terrain.object_cells", int(np.count_nonzero(objects.values)))
        with tr.span("extract.extract_buildings"):
            res = lm.extract_buildings(surface, water, cfg.extract_params())
        cand = res.candidates
        tr.count("extract.candidate_components", cand.count)
        tr.count("extract.kept_components", int(np.count_nonzero(cand.kept)))
        diff = res.difference.values
        for code, name in ((1, "water"), (2, "morphology"), (3, "planarity")):
            tr.count(f"extract.removed_cells.{name}", int(np.count_nonzero(diff == code)))
        tr.count("extract.dilated_cells", int(np.count_nonzero(diff == 4)))
        cc0, cr0 = win.core[0] - pc0, win.core[1] - pr0
        sl = (slice(cr0, cr0 + win.core[3]), slice(cc0, cc0 + win.core[2]))
        return {
            "dsm": dsm.values[sl],
            "dtm": dtm.values[sl],
            "ndhm": ndhm.values[sl],
            "water": water.mask.values[sl],
            "map2d": res.map2d.values[sl],
            "map3d": res.map3d.values[sl],
            "diff": res.difference.values[sl],
        }

    def _mosaic(self, cloud, cfg, count_windows: bool):
        lm, tr = self.lm, self.tr
        min_x, min_y, max_x, max_y = cloud.bounds
        spec = lm.grid_from_bounds(min_x, min_y, max_x, max_y, cfg.gsd)
        with tr.span("pipeline.plan_windows"):
            windows = lm.plan_windows(spec, cfg.window_size_m, cfg.overlap_m)
        if count_windows:
            tr.count("pipeline.windows", len(windows))
            tr.count("pipeline.grid_cells", spec.width * spec.height)
            tr.count("pipeline.padded_cells", sum(w.padded[2] * w.padded[3] for w in windows))
        mosaic = {
            "dsm": np.full(spec.shape, np.nan),
            "dtm": np.full(spec.shape, np.nan),
            "ndhm": np.full(spec.shape, np.nan),
            "water": np.zeros(spec.shape, bool),
            "map2d": np.zeros(spec.shape, bool),
            "map3d": np.full(spec.shape, np.nan),
            "diff": np.zeros(spec.shape, np.uint8),
        }
        for win in windows:
            with tr.span("pipeline.window", window=win.index):
                prod = self._window(cloud.points, spec, win, cfg)
            if prod is None:
                continue
            c0, r0, w, h = win.core
            for name, vals in prod.items():
                mosaic[name][r0:r0 + h, c0:c0 + w] = vals
        return spec, mosaic

    def _load(self):
        with self.tr.span("ingest.load_points"):
            cloud = self.lm.load_points(self.las)
        self.tr.count("ingest.points", len(cloud))
        self.tr.count("ingest.bytes", os.path.getsize(self.las))
        return cloud

    # -- the three commands ---------------------------------------------------

    def _parse(self, argv: list[str]) -> None:
        from lidarmaps.cli import build_parser

        with self.tr.span("cli.parse"):
            build_parser().parse_args(argv)

    def map(self):
        lm, tr, w = self.lm, self.tr, self.w
        run_dir = os.path.join(self.out, "run")
        self._parse(w.map_args(self.las, run_dir))
        cfg = self.apply_overrides(lm.PipelineConfig(), w.overrides())
        with tr.span("cmd.map"):
            cloud = self._load()
            spec, mosaic = self._mosaic(cloud, cfg, count_windows=True)
            os.makedirs(run_dir, exist_ok=True)
            for name in cfg.outputs:
                path = os.path.join(run_dir, f"{name}.asc")
                with tr.span("formats.write_ascii_grid"):
                    lm.write_ascii_grid(path, lm.Raster(spec, mosaic[name]))
                tr.count("formats.bytes_written", os.path.getsize(path))
        for name in cfg.outputs:
            self.result["hashes"][f"{name}.asc"] = sha256_file(os.path.join(run_dir, f"{name}.asc"))
        return cloud, cfg, mosaic["map2d"]

    def eval(self) -> None:
        lm, tr = self.lm, self.tr
        pred_path = os.path.join(self.out, "run", "map2d.asc")
        self._parse(self.w.eval_args(pred_path, self.truth, os.path.join(self.out, "report")))
        with tr.span("cmd.eval"):
            with tr.span("formats.read_ascii_grid"):
                grid = lm.read_ascii_grid(pred_path)
            tr.count("formats.bytes_read", os.path.getsize(pred_path))
            pred = lm.Raster(grid.spec, np.nan_to_num(grid.values, nan=0.0) > 0.5)
            with tr.span("evaluate.load_truth"):
                labels = lm.rasterize_polygons(lm.load_geojson_polygons(self.truth), pred.spec)
            truth = labels.with_values(labels.values > 0)
            with tr.span("evaluate.confusion"):
                c = lm.confusion(pred, truth)
            with tr.span("evaluate.tiling_comparison"):
                lm.tiling_comparison(pred, truth, 500.0)
            with tr.span("evaluate.match_instances"):
                inst = lm.match_instances(pred, labels)
        tr.count("evaluate.truth_instances", inst.n_truth)
        # Lines the CLI's eval_summary.txt must contain word for word.
        self.result["eval_lines"] = [
            f"tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}",
            f"iou={_fmt_ratio(c.iou)}",
            f"detection_rate={_fmt_ratio(inst.detection_rate)} "
            f"commission_rate={_fmt_ratio(inst.commission_rate)}",
        ]

    def sweep(self) -> None:
        lm, tr, w = self.lm, self.tr, self.w
        self._parse(w.sweep_args(self.las, self.truth, os.path.join(self.out, "sweep")))
        windowing = {k: v for k, v in w.overrides().items() if k != "outputs"}
        base = self.apply_overrides(lm.PipelineConfig(), windowing)
        lines = [f"# sweep param={SWEEP_PARAM}", "# value iou precision recall f1 tp fp fn tn"]
        with tr.span("cmd.sweep"):
            cloud = self._load()
            truth = None
            for v in sorted(w.sweep_values):
                cfg = self.apply_overrides(base, {SWEEP_PARAM: v})
                with tr.span("pipeline.sweep_value"):
                    spec, mosaic = self._mosaic(cloud, cfg, count_windows=False)
                    if truth is None:
                        with tr.span("evaluate.load_truth"):
                            labels = lm.rasterize_polygons(lm.load_geojson_polygons(self.truth), spec)
                        truth = labels.with_values(labels.values > 0)
                    with tr.span("evaluate.confusion"):
                        m = lm.confusion(lm.Raster(spec, mosaic["map2d"]), truth)
                lines.append(
                    f"{v} {_fmt_ratio(m.iou)} {_fmt_ratio(m.precision)} "
                    f"{_fmt_ratio(m.recall)} {_fmt_ratio(m.f1)} {m.tp} {m.fp} {m.fn} {m.tn}"
                )
        text = "\n".join(lines) + "\n"
        self.result["hashes"]["sweep.txt"] = hashlib.sha256(text.encode("ascii")).hexdigest()

    def run_pipeline_twice(self, cloud, cfg, map2d: np.ndarray) -> None:
        """run_pipeline in-process with 1 and 2 workers, checked against the replay."""
        same = True
        for workers in (1, 2):
            with self.tr.span(f"pipeline.run_pipeline_w{workers}"):
                res = self.lm.run_pipeline(cfg, [cloud], workers=workers)
            same &= bool(np.array_equal(res.products["map2d"].values, map2d))
        self.result["run_pipeline_matches_replay"] = same

    def run(self) -> dict:
        cloud, cfg, map2d = self.map()
        self.eval()
        self.sweep()
        self.run_pipeline_twice(cloud, cfg, map2d)
        self.result["spans"] = self.tr.spans
        self.result["counts"] = self.tr.counts
        return self.result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Traced replay of one workload pass.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scene", required=True, help="directory from scene.py")
    ap.add_argument("--out", required=True, help="directory for outputs and trace.json")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    result = Replay(WORKLOADS[args.workload], args.scene, args.out).run()
    with open(os.path.join(args.out, "trace.json"), "w", encoding="ascii") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
