"""Command-line behavior: exit codes, flag precedence, and the three
subcommands run end to end through main()."""

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lidarmaps import _kernels
from lidarmaps.cli import main
from lidarmaps.formats import write_ascii_grid

from conftest import (
    SECOND_PASS_CHANGES,
    build_las,
    change_second_las_pass,
    points_from_field,
    raster_of,
    write_xyz_text,
)


def write_scene(tmp_path, field: np.ndarray) -> str:
    path = str(tmp_path / "scene.xyz")
    write_xyz_text(points_from_field(field, gsd=1.0), path)
    return path


def block_field() -> np.ndarray:
    field = np.zeros((40, 40))
    field[17:23, 17:23] = 6.0
    return field


MAP_FLAGS = ["--gsd", "1", "--k1", "3", "--k2", "3", "--k3", "3", "--overlap", "12"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["map"]) == 1
    assert main(["map", "x.xyz", "--out", str(tmp_path), "--bogus"]) == 1
    assert main(["eval", "--pred", "p.asc", "--truth", "t.asc"]) == 1
    capsys.readouterr()


def test_config_error_exits_1(tmp_path, capsys):
    scene = write_scene(tmp_path, block_field())
    rc = main(["map", scene, "--out", str(tmp_path / "out"), "--k1", "4"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag,value,message", [
    ("--kernel-shape", "disc", "kernel shape must be 'square' or 'diamond', got 'disc'"),
    ("--map3d-source", "dtm", "map3d_source must be ndhm or dsm, got 'dtm'"),
])
def test_named_value_flags_are_checked_by_their_setting(tmp_path, capsys, flag, value, message):
    # The flag takes any word; the setting's own validator names the valid ones.
    out = tmp_path / "out"
    assert main(["map", str(tmp_path / "absent.xyz"), "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    rc = main(["map", str(tmp_path / "missing.xyz"), "--out", str(tmp_path / "out")])
    assert rc == 2
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n")
    rc = main(["map", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_1(tmp_path, capsys, workers):
    scene = write_scene(tmp_path, block_field())
    out = tmp_path / "out"
    assert main(["map", scene, "--out", str(out), "--workers", workers] + MAP_FLAGS) == 1
    assert capsys.readouterr().err.startswith(
        f"error: workers must be a positive integer, got {workers}"
    )
    assert not out.exists()


@pytest.mark.parametrize("change", sorted(SECOND_PASS_CHANGES))
@pytest.mark.parametrize("command", ["map", "sweep"])
def test_las_file_changed_between_passes_exits_2(tmp_path, capsys, monkeypatch, command, change):
    # The scan counts 1600 finite points; a gridding pass that reads
    # another number fails the command before anything is written.
    las = tmp_path / "scene.las"
    las.write_bytes(build_las(points_from_field(block_field(), gsd=1.0)))
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps({"type": "Polygon", "coordinates": [
        [[17, 17], [23, 17], [23, 23], [17, 23], [17, 17]]
    ]}))
    out = tmp_path / "out"
    args = {
        "map": ["map", str(las)],
        "sweep": ["sweep", str(las), "--param", "k3", "--values", "1,3", "--truth", str(truth)],
    }[command]
    change_second_las_pass(monkeypatch, change)
    assert main(args + ["--out", str(out)] + MAP_FLAGS) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {las} changed while it was read: "
        f"1600 finite points, then {SECOND_PASS_CHANGES[change]}"
    ), err
    assert not out.exists()


def non_finite_grid(tmp_path, key: str, value: str) -> str:
    """A 40x40 grid file covering the block scene, one header value replaced."""
    header = {"ncols": 40, "nrows": 40, "xllcorner": 0, "yllcorner": 0, "cellsize": 1}
    header[key] = value
    path = tmp_path / f"{key}-{value}.asc"
    path.write_text(
        "".join(f"{k} {v}\n" for k, v in header.items()) + ("0 " * 40 + "\n") * 40
    )
    return str(path)


@pytest.mark.parametrize("key,value", [("cellsize", "nan"), ("xllcorner", "inf")])
def test_non_finite_grid_header_exits_2(tmp_path, capsys, key, value):
    bad = non_finite_grid(tmp_path, key, value)
    good = str(tmp_path / "good.asc")
    write_ascii_grid(good, raster_of(np.zeros((40, 40), bool), gsd=1.0))
    scene = write_scene(tmp_path, block_field())
    runs = [
        ["map", scene, "--dtm-file", bad] + MAP_FLAGS,
        ["eval", "--pred", bad, "--truth", good],
        ["eval", "--pred", good, "--truth", bad],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "must be" in err
        assert not out.exists()


def test_grid_with_centre_keys_exits_2(tmp_path, capsys):
    # ESRI's xllcenter/yllcenter are not read; the error names the first.
    center = tmp_path / "center.asc"
    center.write_text(
        "ncols 40\nnrows 40\nxllcenter 0.5\nyllcenter 0.5\ncellsize 1\n"
        + ("0 " * 40 + "\n") * 40
    )
    good = str(tmp_path / "good.asc")
    write_ascii_grid(good, raster_of(np.zeros((40, 40), bool), gsd=1.0))
    scene = write_scene(tmp_path, block_field())
    runs = [
        ["map", scene, "--dtm-file", str(center)] + MAP_FLAGS,
        ["eval", "--pred", str(center), "--truth", good],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {center}: line 3: unknown header key 'xllcenter'\n"
        )
        assert not out.exists()


@contextlib.contextmanager
def address_space_cap(nbytes):
    """Cap this process's address space, so an allocation beyond it fails
    at once even where the kernel overcommits memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = nbytes if hard == resource.RLIM_INFINITY else min(nbytes, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "corners, maps",
    [
        (((-1.7e308, 0.0), (1.7e308, 0.0)), False),
        (((0.0, 0.0), (100000.0, 100000.0)), False),
        # One row of 1,664,511 cells: over the fill's key limit as one grid,
        # but the fill only ever sees one window's padded box.
        (((0.0, 0.0), (832_255.0, 0.0)), True),
    ],
    ids=["extent_overflows", "too_many_cells", "long_corridor_maps"],
)
def test_oversized_extent_exits_2(tmp_path, capsys, corners, maps):
    """An extent of no finite cell count, or one whose global grid cannot
    be allocated (200,001 x 200,001 cells), exits 2 with an error line; a
    corridor too long for one fill but not for its windows still maps."""
    scene = str(tmp_path / "far.xyz")
    write_xyz_text(np.array([[x, y, 0.0] for x, y in corners]), scene)
    out = tmp_path / "out"
    with address_space_cap(64 << 30):
        rc = main(["map", scene, "--out", str(out), "--emit", "map2d"])
    if maps:
        assert rc == 0 and (out / "map2d.asc").exists()
    else:
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("command", ["map", "eval", "sweep"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    scene, truth = sweep_inputs(tmp_path)
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    if command == "eval":
        pred = str(tmp_path / "pred.asc")
        write_ascii_grid(pred, raster_of(np.ones((4, 4), bool), gsd=1.0))
        argv = ["eval", "--pred", pred, "--truth", pred]
    elif command == "map":
        argv = ["map", scene] + MAP_FLAGS
    else:
        argv = ["sweep", scene, "--param", "k1", "--values", "3", "--truth", truth] + MAP_FLAGS
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert out.read_text() == "a regular file\n"


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


def test_map_end_to_end(tmp_path, capsys):
    scene = write_scene(tmp_path, block_field())
    out = tmp_path / "out"
    rc = main(["map", scene, "--out", str(out)] + MAP_FLAGS)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("40x40 cells, 1 window(s), 64 building cells")
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt",
        "map2d.asc",
        "map3d.asc",
        "summary.txt",
    ]


def test_map_emit_selects_outputs(tmp_path):
    scene = write_scene(tmp_path, block_field())
    out = tmp_path / "out"
    rc = main(["map", scene, "--out", str(out), "--emit", "dsm,diff"] + MAP_FLAGS)
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.txt", "diff.asc", "dsm.asc", "summary.txt"]


def test_flags_override_config_file(tmp_path, capsys):
    scene = write_scene(tmp_path, block_field())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gsd = 2.0\nht = 9.0\n")

    rc = main(
        ["map", scene, "--out", str(tmp_path / "a"), "--config", str(cfg),
         "--gsd", "1", "--k1", "3"]
    )
    assert rc == 0
    # gsd comes from the flag, ht stays at the file's 9 m and kills the 6 m block
    assert capsys.readouterr().out.startswith("40x40 cells, 1 window(s), 0 building cells")

    rc = main(
        ["map", scene, "--out", str(tmp_path / "b"), "--config", str(cfg),
         "--gsd", "1", "--k1", "3", "--ht", "1.5"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("40x40 cells")
    # defaults elsewhere: k3=5 dilates the 6x6 block to 10x10
    assert "100 building cells" in out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_self_comparison(tmp_path, capsys):
    scene = write_scene(tmp_path, block_field())
    run = tmp_path / "run"
    assert main(["map", scene, "--out", str(run)] + MAP_FLAGS) == 0
    capsys.readouterr()

    pred = str(run / "map2d.asc")
    out = tmp_path / "eval"
    rc = main(["eval", "--pred", pred, "--truth", pred, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "iou=1.0000" in stdout
    assert (out / "eval_summary.txt").exists()
    assert (out / "tiles.txt").exists()
    assert (out / "instances.txt").exists()


def test_eval_geojson_truth(tmp_path, capsys):
    mask = np.zeros((10, 10), bool)
    mask[2:7, 2:6] = True
    pred = str(tmp_path / "pred.asc")
    write_ascii_grid(pred, raster_of(mask, gsd=1.0))
    gj = {
        "type": "Polygon",
        "coordinates": [[[2, 2], [6, 2], [6, 7], [2, 7], [2, 2]]],
    }
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps(gj))
    rc = main(
        ["eval", "--pred", pred, "--truth", str(truth),
         "--tile-size", "5", "--out", str(tmp_path / "eval")]
    )
    assert rc == 0
    assert "iou=1.0000" in capsys.readouterr().out


def test_eval_accepts_a_ring_with_a_repeated_vertex(tmp_path, capsys):
    pred = str(tmp_path / "pred.asc")
    mask = np.zeros((6, 6), bool)
    mask[:4, :4] = True  # the cell centres from 0.5 to 3.5 m
    write_ascii_grid(pred, raster_of(mask, gsd=1.0))
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps({"type": "Polygon", "coordinates": [
        [[0.5, 0.5], [4.5, 0.5], [4.5, 0.5], [4.5, 4.5], [0.5, 4.5], [0.5, 0.5]]
    ]}))
    rc = main(["eval", "--pred", pred, "--truth", str(truth), "--out", str(tmp_path / "eval")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("iou=1.0000 ")


@pytest.mark.parametrize("tile_size", ["0", "-1", "nan", "inf"])
def test_eval_rejects_bad_tile_size(tmp_path, capsys, tile_size):
    pred = str(tmp_path / "pred.asc")
    write_ascii_grid(pred, raster_of(np.ones((4, 4), bool), gsd=1.0))
    rc = main(
        ["eval", "--pred", pred, "--truth", pred, "--tile-size", tile_size,
         "--out", str(tmp_path / "eval")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: tile_size must be finite and positive")
    assert not (tmp_path / "eval").exists()


SQUARE = [[2, 2], [6, 2], [6, 7], [2, 7], [2, 2]]


@pytest.mark.parametrize(
    "doc",
    [
        [{"type": "Polygon", "coordinates": [SQUARE]}],
        {"type": "Polygon"},
        {"type": "Polygon", "coordinates": [[[2, 2], [6], [6, 7], [2, 7], [2, 2]]]},
        {"type": "Polygon", "coordinates": [[["a", "b"], [6, 2], [6, 7], [2, 7], ["a", "b"]]]},
        {"type": "FeatureCollection", "features": [5]},
        {"type": "FeatureCollection", "features": 5},
    ],
    ids=["top-level-list", "no-coordinates", "ragged", "non-numeric", "non-object-feature",
         "non-list-features"],
)
def test_eval_malformed_geojson_exits_2(tmp_path, capsys, doc):
    pred = str(tmp_path / "pred.asc")
    write_ascii_grid(pred, raster_of(np.zeros((10, 10), bool), gsd=1.0))
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps(doc))
    rc = main(["eval", "--pred", pred, "--truth", str(truth), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {truth}: ")


@pytest.mark.parametrize("vertex", ["[NaN, 5]", "[5, Infinity]"], ids=["nan", "infinity"])
def test_non_finite_truth_vertex_exits_2(tmp_path, capsys, vertex):
    # json.load reads NaN and Infinity; such a vertex once mislabelled
    # cells without an error.
    pred = str(tmp_path / "pred.asc")
    write_ascii_grid(pred, raster_of(np.zeros((10, 10), bool), gsd=1.0))
    truth = tmp_path / "non_finite.geojson"
    truth.write_text(
        '{"type": "Polygon", "coordinates": [[[1, 1], [5, 1], %s, [1, 5], [1, 1]]]}' % vertex
    )
    rc = main(["eval", "--pred", pred, "--truth", str(truth), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: polygon 0: vertex 2 ")
    scene, _ = sweep_inputs(tmp_path)
    rc = main(["sweep", scene, "--param", "k1", "--values", "3", "--truth", str(truth),
               "--out", str(tmp_path / "sweep"), "--gsd", "1", "--k2", "3", "--k3", "3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: polygon 0: vertex 2 ")


@pytest.mark.parametrize(
    "empty",
    [{"type": "Polygon", "coordinates": []}, {"type": "MultiPolygon", "coordinates": [[]]}],
    ids=["polygon", "multipolygon-part"],
)
def test_eval_skips_polygons_without_rings(tmp_path, capsys, empty):
    pred = str(tmp_path / "pred.asc")
    mask = np.zeros((10, 10), bool)
    mask[2:7, 2:6] = True
    write_ascii_grid(pred, raster_of(mask, gsd=1.0))
    truth = tmp_path / "truth.geojson"
    argv = ["eval", "--pred", pred, "--truth", str(truth), "--out", str(tmp_path / "eval")]
    square = {"type": "Polygon", "coordinates": [SQUARE]}
    features = [{"type": "Feature", "geometry": g} for g in (empty, square)]
    truth.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    assert main(argv) == 0
    assert "iou=1.0000" in capsys.readouterr().out
    # Alone, the empty polygon leaves no truth instance.
    truth.write_text(json.dumps(empty))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: truth layer has no instances\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_inputs(tmp_path) -> tuple[str, str]:
    field = np.zeros((40, 40))
    field[10:18, 6:10] = 6.0
    field[10:18, 20:28] = 6.0
    scene = write_scene(tmp_path, field)
    gj = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[6.5, 10.5], [10.5, 10.5], [10.5, 18.5], [6.5, 18.5], [6.5, 10.5]]
                    ],
                },
            },
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[20.5, 10.5], [28.5, 10.5], [28.5, 18.5], [20.5, 18.5], [20.5, 10.5]]
                    ],
                },
            },
        ],
    }
    truth = tmp_path / "truth.geojson"
    truth.write_text(json.dumps(gj))
    return scene, str(truth)


def test_sweep_end_to_end(tmp_path, capsys):
    scene, truth = sweep_inputs(tmp_path)
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", scene, "--param", "k1", "--values", "7,3,5", "--truth", truth,
         "--out", str(out), "--gsd", "1", "--k2", "3", "--k3", "3",
         "--overlap", "16"]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.splitlines() if l.startswith("k1=")]
    assert [l.split()[0] for l in lines] == ["k1=3", "k1=5", "k1=7"]
    table = (out / "sweep.txt").read_text().splitlines()
    assert table[0] == "# sweep param=k1"
    assert len(table) == 5


# sweep.txt of the median_roof sweep below, as written when every sweep
# value still built map3d.
MEDIAN_ROOF_SWEEP_SHA256 = "02d98f445efd094079e83b5a8344dc30ddd377e2427fd57a9c111c3c05fe45a0"


def test_median_roof_sweep_builds_no_map3d(tmp_path, monkeypatch, capsys):
    # A sweep scores map2d only, so no value builds map3d or its roof
    # median; the rows repeat and are the bytes they always were.
    real, calls = _kernels.masked_median, []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(_kernels, "masked_median", counted)
    scene, truth = sweep_inputs(tmp_path)
    flags = ["--gsd", "1", "--k2", "3", "--k3", "3", "--overlap", "16"]
    out = tmp_path / "sweep"
    argv = ["sweep", scene, "--param", "median_roof", "--values", "0,9", "--truth", truth]
    assert main([*argv, "--out", str(out), *flags]) == 0
    assert calls == []
    table = (out / "sweep.txt").read_bytes()
    assert hashlib.sha256(table).hexdigest() == MEDIAN_ROOF_SWEEP_SHA256
    rows = table.decode().splitlines()[2:]
    assert [r.split()[0] for r in rows] == ["0", "9"]
    assert rows[0].split()[1:] == rows[1].split()[1:]
    # A map does build it, through the same kernel.
    assert main(["map", scene, "--out", str(tmp_path / "map"), "--median-roof", "9", *flags]) == 0
    assert calls == [9]
    capsys.readouterr()


def test_printed_ratio_lines(tmp_path, capsys):
    # eval: tp=2, fp=1, fn=2; with no predicted cell, precision and f1
    # are undefined.
    pred = np.zeros((10, 10), bool)
    pred[2:5, 2] = True
    truth = np.zeros((10, 10), bool)
    truth[3:7, 2] = True
    paths = {}
    for name, mask in (("pred", pred), ("truth", truth), ("none", np.zeros_like(pred))):
        paths[name] = str(tmp_path / f"{name}.asc")
        write_ascii_grid(paths[name], raster_of(mask, gsd=1.0))
    out = str(tmp_path / "eval")
    assert main(["eval", "--pred", paths["pred"], "--truth", paths["truth"], "--out", out]) == 0
    assert capsys.readouterr().out == (
        f"iou=0.4000 precision=0.6667 recall=0.5000 f1=0.5714 -> {out}\n"
    )
    assert main(["eval", "--pred", paths["none"], "--truth", paths["truth"], "--out", out]) == 0
    assert capsys.readouterr().out == f"iou=0.0000 precision=nan recall=0.0000 f1=nan -> {out}\n"

    # sweep against a truth with no footprint: k1=3 keeps both blocks
    # (iou 0), k1=31 keeps nothing (iou undefined).
    scene, _ = sweep_inputs(tmp_path)
    empty = tmp_path / "empty.geojson"
    empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    rc = main(
        ["sweep", scene, "--param", "k1", "--values", "31,3", "--truth", str(empty),
         "--out", str(tmp_path / "sweep"), "--gsd", "1", "--k2", "3", "--k3", "3",
         "--overlap", "40"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "k1=3 iou=0.0000\nk1=31 iou=nan\n"


def test_sweep_rejects_bad_values(tmp_path, capsys):
    scene, truth = sweep_inputs(tmp_path)
    rc = main(
        ["sweep", scene, "--param", "k1", "--values", "3,oops", "--truth", truth,
         "--out", str(tmp_path / "s")]
    )
    assert rc == 1
    rc = main(
        ["sweep", scene, "--param", "gsd", "--values", "1", "--truth", truth,
         "--out", str(tmp_path / "s")]
    )
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "param, values, shown",
    [("k1", "7,3,07", "k1=7"), ("dt", "0.1,0.5,0.10", "dt=0.1"), ("ht", "2,2.0", "ht=2.0")],
)
def test_sweep_rejects_repeated_values(tmp_path, capsys, param, values, shown):
    # A value given twice, once coerced, would run twice and print two
    # identical rows.
    scene, truth = sweep_inputs(tmp_path)
    out = tmp_path / "s"
    rc = main(["sweep", scene, "--param", param, "--values", values, "--truth", truth,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sweep value {shown} is given more than once\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# start-up: each command loads only what it runs
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
POOL_AND_MA = ("numpy.ma", "concurrent.futures.process", "multiprocessing")
MAP_STAGES = tuple(f"lidarmaps.{m}" for m in ("ingest", "hydro", "terrain", "extract", "pipeline"))
WATCHED = ("numpy", *POOL_AND_MA, *MAP_STAGES, "lidarmaps.evaluate")

# Runs the CLI in a fresh interpreter, then reports on the last stdout line
# which WATCHED modules it loaded, the OpenBLAS setting it saw and its
# thread count.
PROBE = """
import json, os, sys
from lidarmaps.cli import main
rc = main(sys.argv[1:])
tasks = "/proc/self/task"
print(json.dumps({
    "rc": rc,
    "loaded": sorted(m for m in %r if m in sys.modules),
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
""" % (WATCHED,)


def run_fresh(code: str, *args: str, **env: str) -> str:
    """stdout of `python -c code args` with no OPENBLAS_NUM_THREADS inherited."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = SRC
    child.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=child, capture_output=True, text=True, check=True
    )
    return proc.stdout


def run_cli_fresh(*argv: str, **env: str) -> dict:
    return json.loads(run_fresh(PROBE, *argv, **env).splitlines()[-1])


def test_import_loads_no_numpy():
    code = "import sys, lidarmaps; print('numpy' in sys.modules, 'lidarmaps.grid' in sys.modules)"
    assert run_fresh(code) == "False False\n"


def test_parsing_and_setting_errors_load_no_numpy(tmp_path):
    """Usage text, usage errors and bad settings exit before numpy loads."""
    scene, truth = sweep_inputs(tmp_path)
    out = str(tmp_path / "out")
    commands = {
        "--help": (["--help"], 0),
        "map --help": (["map", "--help"], 0),
        "map, no input": (["map"], 1),
        "map --k1 4": (["map", scene, "--out", out, "--k1", "4"], 1),
        "sweep --k1 4": (["sweep", scene, "--param", "k3", "--values", "3", "--truth", truth,
                          "--out", out, "--k1", "4"], 1),
        "map --kernel-shape disc": (["map", scene, "--out", out, "--kernel-shape", "disc"], 1),
        "map --map3d-source dtm": (["map", scene, "--out", out, "--map3d-source", "dtm"], 1),
        "sweep --param gsd": (["sweep", scene, "--param", "gsd", "--values", "1",
                               "--truth", truth, "--out", out], 1),
    }
    for name, (argv, rc) in commands.items():
        seen = run_cli_fresh(*argv)
        assert seen["rc"] == rc, name
        assert seen["loaded"] == [], name
    assert not os.path.exists(out)


def test_one_worker_commands_load_no_pool_and_no_numpy_ma(tmp_path):
    scene, truth = sweep_inputs(tmp_path)
    flags = ["--gsd", "1", "--k2", "3", "--k3", "3", "--overlap", "16"]
    run = str(tmp_path / "run")
    # Four 20 m windows on two workers start no pool either: windows run
    # one at a time in the command's own process.
    windowed = [*flags, "--window-size", "20", "--workers", "2"]
    commands = {
        "map": ["map", scene, "--out", run, *flags],
        "eval": ["eval", "--pred", str(Path(run) / "map2d.asc"), "--truth", truth,
                 "--out", str(tmp_path / "eval")],
        "sweep": ["sweep", scene, "--param", "k1", "--values", "3,5", "--truth", truth,
                  "--out", str(tmp_path / "sweep"), *flags],
        "windowed map": ["map", scene, "--out", str(tmp_path / "tiled"), *windowed],
        "windowed sweep": ["sweep", scene, "--param", "k1", "--values", "3,5",
                           "--truth", truth, "--out", str(tmp_path / "tiled_sweep"),
                           *windowed],
    }
    for name, argv in commands.items():
        seen = run_cli_fresh(*argv)
        assert seen["rc"] == 0, name
        assert "numpy" in seen["loaded"], name
        assert set(POOL_AND_MA).isdisjoint(seen["loaded"]), name
        # eval runs the evaluation modules alone: no map stage loads.
        if name == "eval":
            assert set(MAP_STAGES).isdisjoint(seen["loaded"]), name
        # map scores nothing, so it loads no evaluation module.
        if name.endswith("map"):
            assert "lidarmaps.evaluate" not in seen["loaded"], name
    assert "\nwindows=4\n" in (tmp_path / "tiled" / "summary.txt").read_text()


def test_cli_caps_openblas_threads_unless_set(tmp_path):
    # eval loads numpy, so the cap must be in place before numpy loads.
    grid = str(tmp_path / "mask.asc")
    write_ascii_grid(grid, raster_of(np.eye(4, dtype=bool), gsd=1.0))
    argv = ["eval", "--pred", grid, "--truth", grid, "--out", str(tmp_path / "eval")]
    seen = run_cli_fresh(*argv)
    assert seen["rc"] == 0
    assert "numpy" in seen["loaded"]
    assert seen["openblas"] == "1"
    # The cap is in place before numpy loads: OpenBLAS starts no thread.
    assert seen["threads"] in (None, 1)
    assert run_cli_fresh(*argv, OPENBLAS_NUM_THREADS="2")["openblas"] == "2"
    # Importing the library sets nothing.
    code = "import os, lidarmaps.pipeline; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_fresh(code) == "None\n"
