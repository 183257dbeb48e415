"""Time each raster kernel alone on synthetic inputs, and trace its memory.

Every case runs its kernel once under tracemalloc, then best-of-N with
perf_counter and tracing off.  The traced peak, the most memory the call
held at once beyond what was allocated before it (its output included),
is printed in MB next to the time: how large an extent one call can map
is set by the scratch arrays of its largest stage, not by its grids.
Rasterization takes --points points and is timed through
grid.rasterize_min, so the point-to-cell floor is inside the timed call,
and again as the same points split into four inputs, gridded together
by grid.rasterize_min_clouds as a map of four tile files is; both grid
one block of points at a time, so neither peak grows with the points.
The same points, written once to a LAS file at 1 mm steps, are read and
gridded two ways: read_las, which gathers every point into one array,
then rasterize_min_clouds; and as a map grids a LAS file, scan_las for
the bounds, then rasterize_min_clouds over the chunks as they are read
again, so only the grids and one chunk are held.  The scan alone is
timed too: both ways start with it, as read_las is the gather of the
scan's chunks.
The XYZ text reader is timed on a file of the first 200,000 points (or
all of them, if fewer), written once beforehand.
The roughness count runs over every cell and at a random 9% of the cells,
the share the extraction asks for on the benchmark scenes.  The square
morphology kernel is also timed as the water tally: np.add over a 0/1
int32 grid in the default 9x9 water window.  Besides typical inputs, two
cases time the worst inputs of the nearest fill and the labelling: a grid
void but for one corner cell, where every cell searches out to its
distance from that corner (run at a third of --size to keep it short),
and a serpentine mask, one component that winds through every other row.
The grid writer is timed too, writing to a temporary directory, once on
each of its paths: it formats each distinct cell value once into a byte
table and gathers each cell's text from it.  A mask indexes the table by
value.  A 0-25 m surface on a 0.001 m lattice with 10% NaN, where values
repeat as they do in grids made from LAS points, whose z is quantised,
finds its rows by the millimetre key of each cell, as does a lattice
around zero where 0.0 and -0.0 each keep their own text.  A grid of
all-distinct floats over 0-1000 m has 2M millimetre keys, more than the
cells of any --size up to 1414, so it falls back to a binary search per
cell: the writer's worst case.  The grid reader is timed on the lattice and the all-distinct grid,
written once beforehand: it parses the body with one np.fromstring, so
its cost follows the cells and the characters, not the distinct values.
The whole map chain is timed once as well: run_pipeline on a --size
metre square at 1 m cells in 2x2 windows with the default 100 m overlap,
all seven grids, nothing written.  Its scene has about 1.5 returns per
cell on a gentle slope with flat-roofed blocks; the windows run one at a
time, so its traced peak is the global grids, the mosaics and one
window's chain.
Correctness is not checked here; the test suite compares every kernel
with a brute-force oracle and the writer with a per-cell format.

Usage:
    python3 benchmarks/bench_kernels.py [--size N] [--points N] [--repeats N]
"""

import argparse
import math
import os
import struct
import tempfile
import time
import tracemalloc

import numpy as np

from lidarmaps import _kernels as kernels
from lidarmaps import grid
from lidarmaps.config import OUTPUT_NAMES, PipelineConfig
from lidarmaps.formats import read_ascii_grid, write_ascii_grid
from lidarmaps.grid import GridSpec, Raster
from lidarmaps.ingest import PointCloud, read_las, read_xyz_text, scan_las
from lidarmaps.pipeline import run_pipeline


def _best_of(fn, args: tuple, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak_mb(fn, args: tuple) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _write_las(path: str, points: np.ndarray) -> None:
    """A LAS 1.2 file of point format 0 at 1 mm steps, offset 0."""
    rec = np.zeros(len(points), [("xyz", "<i4", 3), ("rest", "V8")])
    rec["xyz"] = np.round(points / 0.001)
    lo, hi = points.min(axis=0), points.max(axis=0)
    head = struct.pack(
        "<4sHH16sBB32s32sHHHIIBHI5I12d",
        b"LASF", 0, 0, bytes(16), 1, 2, bytes(32), bytes(32), 1, 2024,
        227, 227, 0, 0, 20, len(points), len(points), 0, 0, 0, 0,
        0.001, 0.001, 0.001, 0.0, 0.0, 0.0, hi[0], lo[0], hi[1], lo[1], hi[2], lo[2],
    )
    with open(path, "wb") as f:
        f.write(head)
        f.write(rec.tobytes())


def _las_read_then_grid(path: str, gsd: float):
    cloud = read_las(path)
    spec = grid.grid_from_bounds(*cloud.bounds, gsd)
    return grid.rasterize_min_clouds([cloud.points], spec, 0, 0, spec.width, spec.height)


def _las_streamed(path: str, gsd: float):
    scan = scan_las(path)
    spec = grid.grid_from_bounds(*scan.bounds, gsd)
    return grid.rasterize_min_clouds(scan.chunks(), spec, 0, 0, spec.width, spec.height)


def _cases(size: int, n_points: int, rng: np.random.Generator, out_dir: str) -> list:
    h = w = size

    points = np.column_stack([
        rng.uniform(-5.0, size + 5.0, n_points),
        rng.uniform(-5.0, size + 5.0, n_points),
        rng.uniform(0.0, 80.0, n_points),
    ])

    surface = rng.uniform(0.0, 50.0, (h, w))
    valid = rng.random((h, w)) > 0.10
    valid[h // 3:h // 3 + 40, w // 3:w // 3 + 40] = False
    valid[0, 0] = True
    voids = surface.copy()
    voids[~valid] = np.nan

    blobs = rng.random((h, w)) > 0.55
    speckle = rng.random((h, w)) > 0.45

    steps = surface / 4.0
    # The extraction computes roughness only at the candidate cells the
    # opening kept, about 9% of the grid on the benchmark scenes.
    some_cells = np.flatnonzero(rng.random(h * w) < 0.09)

    side = max(1, size // 3)
    corner = np.zeros((side, side), bool)
    corner[0, 0] = True
    corner_vals = np.where(corner, surface[:side, :side], np.nan)

    serpentine = np.zeros((h, w), bool)
    serpentine[::2] = True
    serpentine[1::4, -1] = True
    serpentine[3::4, 0] = True

    spec = GridSpec(0.0, 0.0, 1.0, w, h)
    lattice = np.round(surface / 2, 3)
    lattice[rng.random((h, w)) < 0.10] = np.nan
    signed_zeros = np.round(rng.uniform(-0.5, 0.5, (h, w)), 3)
    signed_zeros[rng.random((h, w)) < 0.2] = -0.0
    distinct = rng.uniform(0.0, 1000.0, (h, w))
    grid_path = os.path.join(out_dir, "grid.asc")
    lattice_path = os.path.join(out_dir, "lattice.asc")
    distinct_path = os.path.join(out_dir, "distinct.asc")
    write_ascii_grid(lattice_path, Raster(spec, lattice))
    write_ascii_grid(distinct_path, Raster(spec, distinct))
    las_path = os.path.join(out_dir, "points.las")
    _write_las(las_path, points)
    xyz_points = points[:200_000]
    xyz_path = os.path.join(out_dir, "points.xyz")
    np.savetxt(xyz_path, xyz_points, fmt="%.3f")

    n_scene = int(1.5 * h * w)
    sx, sy = rng.uniform(0.0, w, n_scene), rng.uniform(0.0, h, n_scene)
    sz = 0.01 * sx + 0.005 * sy
    for x0, y0, bw, bh, bz in zip(
        rng.uniform(0, w, 40), rng.uniform(0, h, 40),
        rng.uniform(10, 40, 40), rng.uniform(10, 40, 40), rng.uniform(4, 15, 40),
    ):
        sz[(sx >= x0) & (sx < x0 + bw) & (sy >= y0) & (sy < y0 + bh)] += bz
    scene = PointCloud(np.column_stack([sx, sy, sz]), (sx.min(), sy.min(), sx.max(), sy.max()))
    scene_cfg = PipelineConfig(gsd=1.0, window_size_m=w / 2, outputs=OUTPUT_NAMES)

    return [
        (
            "run_pipeline",
            f"{w}x{h}, 2x2 windows, 7 grids",
            run_pipeline,
            (scene_cfg, [scene]),
        ),
        (
            "rasterize_min",
            f"{n_points / 1e6:.1f}M pts -> {w}x{h}",
            grid.rasterize_min,
            (points, spec),
        ),
        (
            "rasterize_min",
            f"{n_points / 1e6:.1f}M pts in 4 inputs",
            grid.rasterize_min_clouds,
            (np.array_split(points, 4), spec, 0, 0, w, h),
        ),
        (
            "las read+grid",
            f"{n_points / 1e6:.1f}M pts, read_las",
            _las_read_then_grid,
            (las_path, 1.0),
        ),
        (
            "las read+grid",
            f"{n_points / 1e6:.1f}M pts, streamed",
            _las_streamed,
            (las_path, 1.0),
        ),
        (
            "las read+grid",
            f"{n_points / 1e6:.1f}M pts, scan only",
            scan_las,
            (las_path,),
        ),
        (
            "read_xyz_text",
            f"{len(xyz_points) / 1e3:.0f}k pts",
            read_xyz_text,
            (xyz_path,),
        ),
        (
            "nearest_fill",
            f"{w}x{h}, {100 - int(round(100 * valid.mean()))}% void",
            kernels.nearest_fill,
            (voids, valid),
        ),
        (
            "nearest_fill",
            f"{side}x{side}, one corner source",
            kernels.nearest_fill,
            (corner_vals, corner),
        ),
        (
            "morph_square",
            f"{w}x{h}, k=7, erode",
            kernels.morph_square,
            (blobs, 3, np.logical_and),
        ),
        (
            "morph_square",
            f"{w}x{h}, k=7, dilate",
            kernels.morph_square,
            (blobs, 3, np.logical_or),
        ),
        (
            "morph_square",
            f"{w}x{h}, k=9, water tally",
            kernels.morph_square,
            (blobs.astype(np.int32), 4, np.add),
        ),
        (
            "morph_diamond",
            f"{w}x{h}, k=7, erode",
            kernels.morph_diamond,
            (blobs, 3, np.logical_and),
        ),
        (
            "morph_diamond",
            f"{w}x{h}, k=7, dilate",
            kernels.morph_diamond,
            (blobs, 3, np.logical_or),
        ),
        (
            "label_components",
            f"{w}x{h}, 8-conn",
            kernels.label_components,
            (speckle, True),
        ),
        (
            "label_components",
            f"{w}x{h}, serpentine, 4-conn",
            kernels.label_components,
            (serpentine, False),
        ),
        (
            "distinct_count",
            f"{w}x{h}, k=5, all cells",
            kernels.distinct_count,
            (steps, 5, np.arange(h * w)),
        ),
        (
            "distinct_count",
            f"{w}x{h}, k=5, {len(some_cells) / (h * w):.0%} of cells",
            kernels.distinct_count,
            (steps, 5, some_cells),
        ),
        (
            "masked_median",
            f"{w}x{h}, k=5, {int(round(100 * blobs.mean()))}% mask",
            kernels.masked_median,
            (surface, blobs, 5),
        ),
        (
            "write_ascii_grid",
            f"{w}x{h}, mask",
            write_ascii_grid,
            (grid_path, Raster(spec, blobs)),
        ),
        (
            "write_ascii_grid",
            f"{w}x{h}, 1 mm lattice, 10% NaN",
            write_ascii_grid,
            (grid_path, Raster(spec, lattice)),
        ),
        (
            "write_ascii_grid",
            f"{w}x{h}, 1 mm lattice, +-0.0",
            write_ascii_grid,
            (grid_path, Raster(spec, signed_zeros)),
        ),
        (
            "write_ascii_grid",
            f"{w}x{h}, all distinct, search",
            write_ascii_grid,
            (grid_path, Raster(spec, distinct)),
        ),
        (
            "read_ascii_grid",
            f"{w}x{h}, 1 mm lattice, 10% NaN",
            read_ascii_grid,
            (lattice_path,),
        ),
        (
            "read_ascii_grid",
            f"{w}x{h}, all distinct",
            read_ascii_grid,
            (distinct_path,),
        ),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description="time the raster kernels")
    parser.add_argument("--size", type=int, default=768, help="grid side in cells")
    parser.add_argument(
        "--points", type=int, default=1_500_000, help="points for rasterization"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best is kept)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'kernel':<18} {'input':<30} {'numpy':>10} {'peak':>10}"
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as out_dir:
        for name, desc, fn, call_args in _cases(args.size, args.points, rng, out_dir):
            peak = _traced_peak_mb(fn, call_args)
            t = _best_of(fn, call_args, args.repeats)
            print(f"{name:<18} {desc:<30} {t:>9.4f}s {peak:>7.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
