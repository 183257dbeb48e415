"""Command-line behavior: exit codes, flag precedence, and the three
subcommands run end to end through main()."""

import json

import numpy as np
import pytest

from lidarmaps.cli import main
from lidarmaps.formats import write_ascii_grid
from lidarmaps.ingest import write_xyz_text

from conftest import points_from_field, raster_of


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
