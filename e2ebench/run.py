"""End-to-end benchmark of the lidarmaps CLI: map, eval and sweep.

One run generates a seeded scene (scene.py), then repeats passes of the
workload's commands (workloads.py), each command in a fresh interpreter,
until --seconds have gone by (at least MIN_PASSES passes).  Every output
file of every pass is hashed; a nonzero exit, a missing output or a hash
that differs from the run's first pass counts as a failed command.

With --trace 0 the run reports the end-to-end metrics: the median wall time
of each command over the passes, throughput, peak RSS, set-up time and the
map's quality.
With --trace 1 it runs one untraced pass of the CLI, then replays the same
pass in-process with a span around every call into a lidarmaps module
(replay.py), and reports per-layer times and counts from those spans.  The
replay's outputs must hash equal to the CLI's.

Every result, with the environment, the scene, all samples and all output
hashes, is also written to .e2ebench_out/<workload>-seed<N>-trace<T>/
result.json under the repository root.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Usage, from the repository root:
    python3 e2ebench/run.py --workload sweep-k1 --seed 1 --seconds 60 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from replay import STAGES, SURFACE_STAGES, self_times, sha256_file
from workloads import CHECK_K1, EVAL_FILES, SWEEP_FILES, WORKLOADS, Workload, map_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".e2ebench_out"
PACKAGE = ROOT / "src" / "lidarmaps"
# What the `lidarmaps` console script runs.
CLI_MAIN = "import sys; from lidarmaps.cli import main; sys.exit(main())"

MIN_PASSES = 3
SETUP_REPEATS = 5  # before the passes; the timed run adds one per pass
RUN_DEADLINE_S = 170.0  # the whole run, so that it ends within 180 s
COMMAND_TIMEOUT_S = 120.0
# Floors the scenes are built to clear; a lower value means broken maps.
MIN_IOU = 0.5
MIN_DETECTION_RATE = 0.9


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float  # user + system time of the child and its reaped descendants
    rss_mb: float
    returncode: int


@dataclass
class Tally:
    """Commands attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Runner:
    """Runs child processes one at a time under the run's deadline."""

    def __init__(self, log_dir: Path, deadline: float):
        self.log_dir = log_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, label: str, argv: list[str]) -> Sample:
        """Run argv to completion; wall time and the child's own wait4 rusage.

        The rusage of a reaped child includes its reaped descendants, so
        the peak RSS covers pool workers too.
        """
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.time_left()))
        log = self.log_dir / f"{label.replace(' ', '_')}.log"
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            # Its own process group, so that a kill reaches pool workers too.
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT, start_new_session=True
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)

    def lidarmaps(self, label: str, args: list[str]) -> Sample:
        return self.run(label, [sys.executable, "-c", CLI_MAIN, *args])

    def script(self, label: str, name: str, args: list[str]) -> Sample:
        return self.run(label, [sys.executable, str(BENCH / name), *args])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_outputs(out_dir: Path, names, expected: dict | None) -> tuple[dict, list[str]]:
    """Hash each expected output; report missing files and hash mismatches."""
    hashes: dict[str, str] = {}
    problems: list[str] = []
    for name in names:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        hashes[name] = sha256_file(path)
        if expected is not None and expected.get(name) != hashes[name]:
            problems.append(f"{name} differs from the first pass")
    return hashes, problems


def grid_cells_differing(a: Path, b: Path) -> int:
    """Cells whose text differs between two ASCII grids of the same shape."""
    ta = a.read_text(encoding="ascii").split()
    tb = b.read_text(encoding="ascii").split()
    if len(ta) != len(tb) or ta[:12] != tb[:12]:
        raise ValueError(f"{a} and {b} are not grids of the same shape")
    return sum(x != y for x, y in zip(ta[12:], tb[12:]))


def parse_eval_summary(path: Path) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in path.read_text(encoding="ascii").splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep and key in ("tp", "fp", "fn", "tn", "iou", "detection_rate"):
                fields[key] = value
    return fields


def parse_sweep_row(path: Path, value: int) -> dict[str, str]:
    for line in path.read_text(encoding="ascii").splitlines():
        parts = line.split()
        if parts and parts[0] == str(value):
            return dict(zip(("value", "iou", "precision", "recall", "f1", "tp", "fp", "fn", "tn"), parts))
    raise ValueError(f"{path} has no row for {value}")


def cross_checks(pass_dir: Path) -> tuple[dict, list[str]]:
    """Quality of the first pass's map, and checks between its commands.

    The eval of the default-k1 map must equal the sweep's k1 row, and its
    cell counts must add up to the grid the map reported.
    """
    problems: list[str] = []
    ev = parse_eval_summary(pass_dir / "report" / "eval_summary.txt")
    row = parse_sweep_row(pass_dir / "sweep" / "sweep.txt", CHECK_K1)
    for key in ("iou", "tp", "fp", "fn", "tn"):
        if ev.get(key) != row[key]:
            problems.append(f"eval {key}={ev.get(key)} but sweep row k1={CHECK_K1} has {row[key]}")
    summary = dict(
        line.split("=", 1)
        for line in (pass_dir / "run" / "summary.txt").read_text(encoding="ascii").splitlines()
    )
    w, h = (int(v) for v in summary["grid"].split("x"))
    tp, fp, fn, tn = (int(ev[k]) for k in ("tp", "fp", "fn", "tn"))
    if tp + fp + fn + tn != w * h:
        problems.append(f"eval counts {tp + fp + fn + tn} cells, the grid has {w * h}")
    if tp + fp != int(summary["map2d_cells"]):
        problems.append(f"eval sees {tp + fp} building cells, map reported {summary['map2d_cells']}")
    quality = {"iou": float(ev["iou"]), "detection_rate": float(ev["detection_rate"])}
    if quality["iou"] < MIN_IOU:
        problems.append(f"iou {quality['iou']} below {MIN_IOU}")
    if quality["detection_rate"] < MIN_DETECTION_RATE:
        problems.append(f"detection_rate {quality['detection_rate']} below {MIN_DETECTION_RATE}")
    return quality, problems


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.t0 = time.perf_counter()
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        self.runner = Runner(self.dir / "logs", self.t0 + RUN_DEADLINE_S)
        self.tally = Tally()
        self.problems: list[str] = []  # wrong outputs that are not a failed command
        self.scene_dir = self.dir / "scene"
        self.las = str(self.scene_dir / "scene.las")
        self.truth = str(self.scene_dir / "footprints.geojson")
        self.report: dict = {"workload": workload.name, "seed": seed, "trace": int(trace)}
        self.setup_walls: list[float] = []

    def _checked(self, sample: Sample, problems: list[str]) -> Sample:
        if sample.returncode != 0:
            problems = [f"exit code {sample.returncode}", *problems]
        self.tally.record(sample.label, problems)
        return sample

    # -- set-up ---------------------------------------------------------------

    def make_scene(self) -> dict:
        s = self.runner.script(
            "scene", "scene.py",
            ["--workload", self.w.name, "--seed", str(self.seed), "--out", str(self.scene_dir)],
        )
        if s.returncode != 0:
            raise RuntimeError(f"scene generation failed (exit {s.returncode})")
        return json.loads((self.scene_dir / "scene.json").read_text(encoding="ascii"))

    def environment(self) -> dict:
        probe = self.dir / "env.json"
        code = (
            "import json, sys, numpy, lidarmaps; "
            "json.dump({'numpy': numpy.__version__, 'lidarmaps': lidarmaps.__version__, "
            "'kernel_path': 'numba' if lidarmaps.using_numba() else 'numpy'}, open(sys.argv[1], 'w'))"
        )
        s = self._checked(self.runner.run("environment", [sys.executable, "-c", code, str(probe)]), [])
        env = json.loads(probe.read_text()) if s.returncode == 0 else {}
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
                cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
        except OSError:
            pass
        env.update(
            nproc=os.cpu_count(),
            usable_cpus=len(os.sched_getaffinity(0)),
            cpu_model=cpu,
            python=platform.python_version(),
            platform=platform.platform(),
        )
        return env

    def setup_sample(self) -> float:
        """Wall time of one `lidarmaps --help`: start, import, parser build."""
        i = len(self.setup_walls)
        s = self.runner.lidarmaps(f"help {i}", ["--help"])
        log = (self.dir / "logs" / f"help_{i}.log").read_text(errors="replace")
        self._checked(s, [] if "usage: lidarmaps" in log else ["no usage text"])
        self.setup_walls.append(s.wall_s)
        return s.wall_s

    def setup_time(self) -> float:
        for _ in range(SETUP_REPEATS):
            self.setup_sample()
        return statistics.median(self.setup_walls)

    # -- passes ---------------------------------------------------------------

    def run_pass(self, index: int, expected: dict, w: Workload) -> tuple[dict, dict]:
        """One map -> eval -> sweep pass; returns (samples, hashes) by command."""
        d = self.dir / f"pass{index}"
        commands = [
            ("map", w.map_args(self.las, str(d / "run")), d / "run", map_files(w)),
            ("eval", w.eval_args(str(d / "run" / "map2d.asc"), self.truth, str(d / "report")), d / "report", EVAL_FILES),
            ("sweep", w.sweep_args(self.las, self.truth, str(d / "sweep")), d / "sweep", SWEEP_FILES),
        ]
        samples, hashes = {}, {}
        for name, args, out, files in commands:
            s = self.runner.lidarmaps(f"pass{index} {name}", args)
            hashes[name], problems = check_outputs(out, files, expected.get(name))
            samples[name] = self._checked(s, problems)
        return samples, hashes

    def timed_passes(self) -> list[dict]:
        """Passes until another would end past --seconds (at least MIN_PASSES).

        A set-up sample follows each pass, so that setup_s, like the
        commands' times, is a median over the whole run.
        """
        passes: list[dict] = []
        expected: dict = {}
        end = time.perf_counter() + self.seconds
        while True:
            p0 = time.perf_counter()
            samples, hashes = self.run_pass(len(passes), expected, self.w)
            passes.append(samples)
            if not expected:
                expected = hashes
                self.report["hashes"] = hashes
            else:
                shutil.rmtree(self.dir / f"pass{len(passes) - 1}", ignore_errors=True)
            self.setup_sample()
            took = time.perf_counter() - p0
            if len(passes) >= MIN_PASSES and time.perf_counter() + took > end:
                break
            if self.runner.time_left() < 1.5 * took:
                break
        return passes

    def mosaic_diff_cells(self) -> int:
        """map2d plus water cells where the workload's map differs from one window."""
        if self.w.window_size_m is None:
            return 0  # the workload's map is already a single window
        ref = self.dir / "single-window"
        s = self.runner.lidarmaps("single-window map", ["map", self.las, "--out", str(ref), "--emit", "map2d,water"])
        _, problems = check_outputs(ref, ("map2d.asc", "water.asc"), None)
        self._checked(s, problems)
        if problems or s.returncode != 0:
            return -1
        run = self.dir / "pass0" / "run"
        return sum(grid_cells_differing(run / n, ref / n) for n in ("map2d.asc", "water.asc"))

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self, scene: dict) -> dict:
        passes = self.timed_passes()
        setup_s = statistics.median(self.setup_walls)
        median = {
            c: statistics.median(p[c].wall_s for p in passes) for c in ("map", "eval", "sweep")
        }
        if len(self.w.sweep_values) > 1:
            throughput = scene["points"] * len(self.w.sweep_values) / median["sweep"]
        else:
            throughput = scene["points"] / median["map"]
        quality, problems = cross_checks(self.dir / "pass0")
        self.problems += problems
        metrics = {
            "map_s": (median["map"], "s"),
            "sweep_s": (median["sweep"], "s"),
            "points_per_s": (throughput, "points/s"),
            "peak_rss_mb": (statistics.median(max(s.rss_mb for s in p.values()) for p in passes), "MB"),
            "setup_s": (setup_s, "s"),
            "iou": (quality["iou"], "ratio"),
            "detection_rate": (quality["detection_rate"], "ratio"),
        }
        self.report["passes"] = [{c: vars(s) for c, s in p.items()} for p in passes]
        # Printed and stored, but not a bounded metric: see the README.
        self.report["eval_s"] = median["eval"]
        counts = ", ".join(f"{sum(c in p for p in passes)} {c}" for c in ("map", "eval", "sweep"))
        print(f"medians over {counts} and {len(self.setup_walls)} setup samples")
        return metrics

    def traced(self, setup_s: float) -> dict:
        # The replay runs everything in one process, so the CLI pass it is
        # held against runs with one worker; the outputs do not depend on it.
        samples, cli_hashes = self.run_pass(0, {}, replace(self.w, workers=1))
        _, problems = cross_checks(self.dir / "pass0")
        self.problems += problems
        mosaic_diff = self.mosaic_diff_cells()
        out = self.dir / "replay"
        s = self.runner.script(
            "replay", "replay.py",
            ["--workload", self.w.name, "--scene", str(self.scene_dir), "--out", str(out)],
        )
        _, problems = check_outputs(out, ("trace.json",), None)
        self._checked(s, problems)
        if problems or s.returncode != 0:
            raise RuntimeError("the traced replay failed; see logs/replay.log")
        doc = json.loads((out / "trace.json").read_text(encoding="ascii"))
        self.report["replay"] = {k: doc[k] for k in ("hashes", "eval_lines", "counts")}
        self.report["spans"] = doc["spans"]

        cli_flat = {f: h for per_cmd in cli_hashes.values() for f, h in per_cmd.items()}
        summary_lines = set((self.dir / "pass0" / "report" / "eval_summary.txt").read_text(encoding="ascii").splitlines())
        match = (
            all(cli_flat.get(f) == h for f, h in doc["hashes"].items())
            and all(line in summary_lines for line in doc["eval_lines"])
            and doc["run_pipeline_matches_replay"]
        )
        if not match:
            self.problems.append("the traced replay's outputs differ from the CLI's")
        cli_s = sum(x.wall_s for x in samples.values())
        metrics = layer_metrics(doc, cli_s - len(samples) * setup_s, self.w.sweep_values)
        metrics["pipeline.mosaic_diff_cells"] = (mosaic_diff, "cells")
        metrics["trace.replay_match"] = (1 if match else 0, "bool")
        metrics["cli.eval_s"] = (samples["eval"].wall_s, "s")
        return metrics

    def run(self) -> dict:
        scene = self.make_scene()
        self.report["scene"] = scene
        self.report["environment"] = self.environment()
        setup_s = self.setup_time()
        metrics = self.traced(setup_s) if self.trace else self.end_to_end(scene)
        self.report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        self.report["setup_samples"] = self.setup_walls
        self.report["error_rate"] = self.tally.error_rate
        self.report["failures"] = self.tally.problems
        self.report["wrong_outputs"] = self.problems
        return metrics

    def cleanup(self) -> None:
        """Drop the bulky files; keep the scene's JSON, logs and the result."""
        for path in self.dir.glob("pass*"):
            shutil.rmtree(path, ignore_errors=True)
        for name in ("single-window", "replay"):
            shutil.rmtree(self.dir / name, ignore_errors=True)
        for name in ("scene.las", "footprints.geojson"):
            (self.scene_dir / name).unlink(missing_ok=True)


def layer_metrics(doc: dict, cli_work_s: float, sweep_values: tuple[int, ...]) -> dict:
    """Per-layer metrics from the replay's spans and counters.

    Times are totals over the whole replayed pass (map, eval and every
    sweep value); counts are summed over padded windows.  cli_work_s is the
    wall time of the same pass through the CLI with one worker, less one
    interpreter start-up per command, which the replay pays once; the
    traced replay's time minus it is the tracing overhead.
    """
    spans, c = doc["spans"], doc["counts"]
    by_id = {s["id"]: s for s in spans}

    def total(ss) -> float:
        return sum(s["end"] - s["start"] for s in ss)

    def t(name: str) -> float:
        return total(s for s in spans if s["name"] == name)

    def under(name: str, root: str | int) -> list[dict]:
        """Spans called `name` below the span with id `root`, or below any span named `root`."""
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and p != root and by_id[p]["name"] != root:
                p = by_id[p]["parent"]
            if p is not None:
                out.append(s)
        return out

    # run_pipeline runs after the replay, in a process that has warmed up,
    # so its work is set against the sweep's replay of the same settings
    # (the default k1, no grids written), which also runs warm.
    value_spans = [s for s in spans if s["name"] == "pipeline.sweep_value"]
    same_cfg = value_spans[sorted(sweep_values).index(CHECK_K1)]["id"]
    same_cfg_stage_s = sum(total(under(n, same_cfg)) for n in STAGES)
    sweep_all = sum(total(under(n, "cmd.sweep")) for n in STAGES)
    sweep_surface = sum(total(under(n, "cmd.sweep")) for n in SURFACE_STAGES)
    w1, w2 = t("pipeline.run_pipeline_w1"), t("pipeline.run_pipeline_w2")
    window_self = sum(v for i, v in self_times(spans).items() if by_id[i]["name"] == "pipeline.window")
    replay_s = t("cmd.map") + t("cmd.eval") + t("cmd.sweep") + t("cli.parse")
    return {
        "cli.parse_s": (t("cli.parse"), "s"),
        "ingest.load_points_s": (t("ingest.load_points"), "s"),
        "ingest.points": (c["ingest.points"], "points"),
        "ingest.read_mb_per_s": (c["ingest.bytes"] / 1e6 / t("ingest.load_points"), "MB/s"),
        "pipeline.windows": (c["pipeline.windows"], "windows"),
        "pipeline.padded_cell_ratio": (c["pipeline.padded_cells"] / c["pipeline.grid_cells"], "ratio"),
        "pipeline.select_points_s": (t("pipeline.select_points"), "s"),
        "pipeline.window_self_s": (window_self, "s"),
        "pipeline.run_pipeline_s": (w1, "s"),
        "pipeline.self_s": (w1 - same_cfg_stage_s, "s"),
        "pipeline.parallel_speedup": (w1 / w2, "ratio"),
        "pipeline.sweep_surface_share": (sweep_surface / sweep_all, "ratio"),
        "grid.rasterize_min_window_s": (t("grid.rasterize_min_window"), "s"),
        "grid.interpolate_nearest_s": (t("grid.interpolate_nearest"), "s"),
        "grid.void_cells": (c["grid.void_cells"], "cells"),
        "grid.void_fraction": (c["grid.void_cells"] / c["grid.cells"], "ratio"),
        "hydro.detect_water_s": (t("hydro.detect_water"), "s"),
        "hydro.water_cells": (c["hydro.water_cells"], "cells"),
        "terrain.derive_terrain_s": (t("terrain.derive_terrain"), "s"),
        "terrain.breakline_map_s": (t("terrain.breakline_map"), "s"),
        "terrain.extract_objects_s": (t("terrain.extract_objects"), "s"),
        "terrain.fill_ground_s": (t("terrain.fill_ground"), "s"),
        "terrain.breakline_cells": (c["terrain.breakline_cells"], "cells"),
        "terrain.object_cells": (c["terrain.object_cells"], "cells"),
        "extract.extract_buildings_s": (t("extract.extract_buildings"), "s"),
        "extract.candidate_components": (c["extract.candidate_components"], "count"),
        "extract.kept_ratio": (c["extract.kept_components"] / c["extract.candidate_components"], "ratio"),
        "extract.removed_cells.water": (c["extract.removed_cells.water"], "cells"),
        "extract.removed_cells.morphology": (c["extract.removed_cells.morphology"], "cells"),
        "extract.removed_cells.planarity": (c["extract.removed_cells.planarity"], "cells"),
        "extract.dilated_cells": (c["extract.dilated_cells"], "cells"),
        "formats.write_ascii_grid_s": (t("formats.write_ascii_grid"), "s"),
        "formats.bytes_written": (c["formats.bytes_written"], "bytes"),
        "formats.read_ascii_grid_s": (t("formats.read_ascii_grid"), "s"),
        "formats.bytes_read": (c["formats.bytes_read"], "bytes"),
        "evaluate.load_truth_s": (t("evaluate.load_truth"), "s"),
        "evaluate.confusion_s": (t("evaluate.confusion"), "s"),
        "evaluate.tiling_comparison_s": (t("evaluate.tiling_comparison"), "s"),
        "evaluate.match_instances_s": (t("evaluate.match_instances"), "s"),
        "evaluate.truth_instances": (c["evaluate.truth_instances"], "count"),
        "trace.overhead_s": (replay_s - cli_work_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the lidarmaps CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long to repeat passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A plain exit on SIGTERM, so that a running command's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no lidarmaps package at {PACKAGE}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    report = bench.report
    with open(bench.dir / "result.json", "w", encoding="ascii") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, environment {json.dumps(report['environment'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    if "eval_s" in report:
        print(f"{'eval_s':36s} {report['eval_s']:.6g} s (not bounded)")
    t = bench.tally
    print(f"{'error_rate':36s} {t.error_rate:.6g} ratio ({t.failed} of {t.attempted} commands failed)")
    for problem in bench.tally.problems + bench.problems:
        print(f"FAILED {problem}")
    correct = not bench.problems and bench.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
