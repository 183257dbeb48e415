"""Output-hash gate: every file `map`, `eval` and `sweep` write on a small
fixed scene must keep its SHA-256.

The scene is built from integer arithmetic alone (a uint64 hash of the
point index, coordinates in whole millimetres), so no change to numpy's
random streams can move it.  It is a 100 m square on a gentle slope with
four flat roofs, a rough tree crown and a pond with no returns, written
as one LAS file.  The commands are a seven-grid `map` in one window, the
same `map` in four windows, the README quick start (a `map` of the
default outputs) in one window and in four, `eval` of the one-window
map2d against the roofs as GeoJSON, and `sweep k1=5,7`.

Change a digest only in a change that sets out to change those bytes and
says which files move and why.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import build_las
from lidarmaps.cli import main

SIDE_MM = 100_000
POINTS = 48_000
ROOFS_MM = ((8_000, 10_000, 30_000, 26_000), (40_000, 8_000, 58_000, 22_000),
            (12_000, 62_000, 26_000, 90_000), (62_000, 70_000, 92_000, 84_000))
CROWN_MM = (45_000, 45_000, 5_000)  # centre x, y and radius
POND_MM = (75_000, 35_000, 19_000)

MAP = ["--emit", "map2d,map3d,dsm,dtm,ndhm,water,diff"]
WINDOWS = ["--window-size", "50", "--overlap", "10"]

DIGESTS = {
    "map/config.txt": "9208c80f5bb9bcf13710656a31a378e80a3aabb2b81764b99eb9f38efd16ae7e",
    "map/diff.asc": "85bfdadc898f5ad845b8a2cc8686b7a0eb1b35f638d6b83c82e7e3e91596a201",
    "map/dsm.asc": "f00388544e4015bc1fd55ccc57bbd5376faf622fe0ad502167a939a85c5561e6",
    "map/dtm.asc": "6383305bf0ce65bde68718b4b367b2512e8b9f0923174f6875678fc1530c13e1",
    "map/map2d.asc": "4d0094210968e364bf70c707757e8a09096f9d51f060f7358a81ac3aa7f6964f",
    "map/map3d.asc": "57e4f0bde940ddc0fdc5023eb335df6841e2f4050f8e8197b0b792b6fbbd2429",
    "map/ndhm.asc": "941007c37d4725e361991788b3c200b7da80eefd0e68affc6d5af8069940506f",
    "map/summary.txt": "94e6da1fe0f0ccf4570829dba488348a8b1c588ea0e556e093f92bde5a877cd7",
    "map/water.asc": "32a74fc758295f0845ecf823511cd7f7448149049ff0cc9820cf417ddab0808b",
    "map_windows/config.txt": "c9f62a76fece79ea7b9489643141f586bbc384c68efa232c4c99996a92395f60",
    "map_windows/diff.asc": "bb9a410cdc16cb52457f74ac22e4b3ec9770f594a9e91f5b4fdb5379e4e50e1e",
    "map_windows/dsm.asc": "f00388544e4015bc1fd55ccc57bbd5376faf622fe0ad502167a939a85c5561e6",
    "map_windows/dtm.asc": "3ed6aa7ac51a7c18516b3c515bf8c3585937742b47fd1baece4edbe19c691825",
    "map_windows/map2d.asc": "2f92d0a607788ba9e71dc405c3ad39067e4cdf24287efba2e63fc927c78b246e",
    "map_windows/map3d.asc": "e40384f561d09c17ad0d4633b7011b27e92cdb7f06c57feb59aeb95759f97b93",
    "map_windows/ndhm.asc": "82512c0e1e0e75af91a93854af5e97fa3faab6077802472918664e61dea66c79",
    "map_windows/summary.txt": "3f753d01c038b327f6f05600ff8b1bcdb654520a965f232b27f070d6a17a1d29",
    "map_windows/water.asc": "66621455770089bd6678cdb59a7c0ba5bac9cd540ea484d7e2bfadb1e463c54a",
    "map_default/config.txt": "acd1bc91f01a8572b5d296da41339e97deb96976968adfe89ab0969fa9d2d85e",
    "map_default/map2d.asc": "4d0094210968e364bf70c707757e8a09096f9d51f060f7358a81ac3aa7f6964f",
    "map_default/map3d.asc": "57e4f0bde940ddc0fdc5023eb335df6841e2f4050f8e8197b0b792b6fbbd2429",
    "map_default/summary.txt": "94e6da1fe0f0ccf4570829dba488348a8b1c588ea0e556e093f92bde5a877cd7",
    "map_default_windows/config.txt": "39f030d875444c9fa8828628e77c73481e302ef711fa57e99d8d6a775e057983",
    "map_default_windows/map2d.asc": "2f92d0a607788ba9e71dc405c3ad39067e4cdf24287efba2e63fc927c78b246e",
    "map_default_windows/map3d.asc": "e40384f561d09c17ad0d4633b7011b27e92cdb7f06c57feb59aeb95759f97b93",
    "map_default_windows/summary.txt": "3f753d01c038b327f6f05600ff8b1bcdb654520a965f232b27f070d6a17a1d29",
    "eval/eval_summary.txt": "dd8d5f9d2cfcd43c3924b653bbb192d593a29e84b9cc5d35ea5cf1f68840054a",
    "eval/instances.txt": "26831168ecde9f2d9d31824f01190217fa579285888a7ce6f1a9f1bb47106846",
    "eval/tiles.txt": "ed9ff11ee7333bd0234b7a2d7045851352ddd78e31e7c0846ec02062ad20dda4",
    "sweep/sweep.txt": "14e213128a09f6c758a730444c9f03ff2706a831b2d6964c903b52994fbad2c7",
}


def _hash(i: np.ndarray, salt: int) -> np.ndarray:
    """A 64-bit integer mix of each index (uint64 products wrap)."""
    h = i * np.uint64(0x9E3779B97F4A7C15) + np.uint64(salt)
    h ^= h >> np.uint64(31)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(29)
    return h


def scene_points() -> np.ndarray:
    """(n, 3) points in metres, every coordinate a whole millimetre."""
    i = np.arange(POINTS, dtype=np.uint64)
    x = (_hash(i, 1) % np.uint64(SIDE_MM)).astype(np.int64)
    y = (_hash(i, 2) % np.uint64(SIDE_MM)).astype(np.int64)
    z = 50_000 + x // 100 + y // 50
    for x0, y0, x1, y1 in ROOFS_MM:
        z[(x >= x0) & (x < x1) & (y >= y0) & (y < y1)] += 9_000
    cx, cy, r = CROWN_MM
    crown = (x - cx) ** 2 + (y - cy) ** 2 < r * r
    z[crown] += 2_000 + (_hash(i[crown], 3) % np.uint64(10_000)).astype(np.int64)
    cx, cy, r = POND_MM
    keep = (x - cx) ** 2 + (y - cy) ** 2 >= r * r
    return np.column_stack([x[keep], y[keep], z[keep]]) / 1000.0


def roofs_geojson() -> dict:
    features = []
    for x0, y0, x1, y1 in ROOFS_MM:
        x0, y0, x1, y1 = (v / 1000 for v in (x0, y0, x1, y1))
        ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
        features.append({"type": "Feature", "properties": {},
                         "geometry": {"type": "Polygon", "coordinates": [ring]}})
    return {"type": "FeatureCollection", "features": features}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """{command/file: SHA-256} of every file the six commands write."""
    tmp = tmp_path_factory.mktemp("hashes")
    las, truth = tmp / "scene.las", tmp / "roofs.geojson"
    las.write_bytes(build_las(scene_points()))
    truth.write_text(json.dumps(roofs_geojson()))
    runs = {
        "map": ["map", str(las), *MAP],
        "map_windows": ["map", str(las), *MAP, *WINDOWS],
        "map_default": ["map", str(las)],
        "map_default_windows": ["map", str(las), *WINDOWS],
        "eval": ["eval", "--pred", str(tmp / "map" / "map2d.asc"), "--truth", str(truth)],
        "sweep": ["sweep", str(las), "--param", "k1", "--values", "5,7", "--truth", str(truth)],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp / name)]) == 0, name
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name in runs for path in sorted((tmp / name).iterdir())
    }


def test_every_written_file_keeps_its_digest(written):
    assert written == DIGESTS
