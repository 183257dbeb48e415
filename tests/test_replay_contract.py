"""The benchmark replay's contract with the package.

e2ebench/replay.py drives the stages through their public names:
rasterize_min_window's (min-z, count) pair, detect_water on the count
raster, WaterMask.mask, TerrainSet built from four positional grids,
CandidateSet.count and .kept, and plan_windows.  A change that breaks any
of them fails here, on a small scene, instead of in a traced benchmark
run.  The replay is only read, never edited.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import build_las, points_from_field
from lidarmaps.cli import main

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def two_roof_scene(scene_dir: Path) -> None:
    """A 60 m square at 0.5 m: flat ground, two flat roofs and their
    footprints, as scene.las and footprints.geojson."""
    field = np.zeros((120, 120))
    field[10:30, 10:30] = 6.0
    field[70:100, 60:90] = 8.0
    (scene_dir / "scene.las").write_bytes(build_las(points_from_field(field, gsd=0.5)))
    roofs = [(5.0, 5.0, 15.0, 15.0), (30.0, 35.0, 45.0, 50.0)]
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]],
            },
        }
        for x0, y0, x1, y1 in roofs
    ]
    doc = {"type": "FeatureCollection", "features": features}
    (scene_dir / "footprints.geojson").write_text(json.dumps(doc))


def test_replay_runs_and_matches_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(E2EBENCH))
    from replay import Replay
    from workloads import ALL_OUTPUTS, EVAL_FILES, Workload

    scene = tmp_path / "scene"
    scene.mkdir()
    two_roof_scene(scene)
    w = Workload("tiny", window_size_m=30.0, overlap_m=10.0, workers=2,
                 outputs=ALL_OUTPUTS, sweep_values=(5, 7))
    doc = Replay(w, str(scene), str(tmp_path / "replay")).run()

    assert doc["counts"]["pipeline.windows"] == 4
    assert doc["run_pipeline_matches_replay"] is True
    assert doc["counts"]["hydro.water_cells"] == 0
    assert doc["counts"]["extract.kept_components"] >= 2

    # The CLI on the same workload (one worker) writes the same files.
    las, truth = str(scene / "scene.las"), str(scene / "footprints.geojson")
    cli = tmp_path / "cli"
    serial = replace(w, workers=1)
    assert main(serial.map_args(las, str(cli / "run"))) == 0
    assert main(serial.eval_args(str(cli / "run" / "map2d.asc"), truth, str(cli / "report"))) == 0
    assert main(serial.sweep_args(las, truth, str(cli / "sweep"))) == 0
    capsys.readouterr()
    written = {p.name: p for d in ("run", "sweep") for p in (cli / d).iterdir()}
    assert set(doc["hashes"]) == {f"{n}.asc" for n in ALL_OUTPUTS} | {"sweep.txt"}
    for name, digest in doc["hashes"].items():
        assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name
    assert all((cli / "report" / f).exists() for f in EVAL_FILES)
    summary = (cli / "report" / "eval_summary.txt").read_text().splitlines()
    assert all(line in summary for line in doc["eval_lines"])
