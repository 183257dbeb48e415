"""The benchmark's workloads: which CLI commands, with which flags.

scene.py keys each workload's scene by the same name.

Every workload is a closed loop with one client: each pass runs `map`, then
`eval` on the map it made, then `sweep`, one command at a time, each in a
fresh interpreter as a user's shell call would be.  The workloads differ in
scene size, windowing and how many values the sweep tries:

- map-tiled: a 300 m scene in 2 x 2 windows of 150 m with a 50 m overlap on
  2 workers, writing all seven grids; the scene has a building longer than
  the window overlap and a lake across a window seam.  Its sweep has the
  single value k1=7, so a surface cache shared between sweep values has
  nothing to save here.
- sweep-k1: a 250 m scene swept over k1 = 5, 7, 9; only extraction depends
  on k1, so the surface stages are repeated work.  Its map is the README
  quick start: one window, one worker, default outputs, bound by the
  kernels (nearest fill most).

The scenes are small enough that a run of 60 s holds 4 to 9 passes, so
that each metric is a median of that many samples.  Runs are that long,
and the workloads two, because a 2-core shared VM's speed swings by up to
1.75x for a minute or more at a time: the longer a run, the less such a
swing moves its median.

Every map runs with the CLI's default k1 = 7 and every sweep tries k1 = 7,
so the map's eval must reproduce the sweep's k1 = 7 row exactly; that
cross-checks two command paths.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_OUTPUTS = ("map2d", "map3d", "dsm", "dtm", "ndhm", "water", "diff")
DEFAULT_OUTPUTS = ("map2d", "map3d")
SWEEP_PARAM = "k1"
# The CLI's default k1, which every map uses; its sweep row must equal the
# map's eval.
CHECK_K1 = 7


@dataclass(frozen=True)
class Workload:
    name: str
    window_size_m: float | None = None  # None: the CLI default (one window here)
    overlap_m: float | None = None  # None: the CLI default, 100 m
    workers: int = 1
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    sweep_values: tuple[int, ...] = (CHECK_K1,)

    def config_flags(self) -> list[str]:
        """Flags shared by the workload's map and sweep commands."""
        flags: list[str] = []
        if self.window_size_m is not None:
            flags += ["--window-size", f"{self.window_size_m:g}"]
        if self.overlap_m is not None:
            flags += ["--overlap", f"{self.overlap_m:g}"]
        if self.workers != 1:
            flags += ["--workers", str(self.workers)]
        return flags

    def map_args(self, las: str, out: str) -> list[str]:
        args = ["map", las, "--out", out, *self.config_flags()]
        if self.outputs != DEFAULT_OUTPUTS:
            args += ["--emit", ",".join(self.outputs)]
        return args

    def eval_args(self, pred: str, truth: str, out: str) -> list[str]:
        return ["eval", "--pred", pred, "--truth", truth, "--out", out]

    def sweep_args(self, las: str, truth: str, out: str) -> list[str]:
        values = ",".join(str(v) for v in self.sweep_values)
        return [
            "sweep", las, "--param", SWEEP_PARAM, "--values", values,
            "--truth", truth, "--out", out, *self.config_flags(),
        ]

    def overrides(self) -> dict[str, object]:
        """The map command's settings as PipelineConfig field overrides."""
        out: dict[str, object] = {"outputs": self.outputs}
        if self.window_size_m is not None:
            out["window_size_m"] = self.window_size_m
        if self.overlap_m is not None:
            out["overlap_m"] = self.overlap_m
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "map-tiled",
            window_size_m=150.0,
            overlap_m=50.0,
            workers=2,
            outputs=ALL_OUTPUTS,
        ),
        Workload(
            "sweep-k1",
            sweep_values=(5, 7, 9),
        ),
    )
}

# Files each command must leave behind; every one is hashed on every pass.
EVAL_FILES = ("eval_summary.txt", "tiles.txt", "instances.txt")
SWEEP_FILES = ("sweep.txt",)


def map_files(w: Workload) -> tuple[str, ...]:
    return tuple(f"{name}.asc" for name in w.outputs) + ("config.txt", "summary.txt")
