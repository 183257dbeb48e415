"""Seeded synthetic airborne-LiDAR scenes for the end-to-end benchmark.

A scene is a square of sloped, gently rolling terrain with flat and gabled
buildings, rough tree canopies and a lake that returns nothing.  Points are
dropped uniformly at random at about 4 per m^2, so at a 0.5 m grid about
37% of cells (e^-1) get no return and nearest fill has real work to do.
0.1% of the returns are low outliers, tagged with LAS class 7.

The seed draws the returns: where each pulse lands, which pulses pass
through a crown to the ground, how ragged the crowns read, and which
returns are outliers.  The layout (terrain, lake, buildings, trees) is the
same for every seed, like one area flown again: component labelling and
nearest fill take time that grows with the shapes in the scene, so a
layout drawn per seed would make seeds differ in work, not just in noise.

The scene is written as an uncompressed LAS 1.2 file in point format 1
(which carries the classification byte) plus a GeoJSON file of the true
building footprints.  The same (workload, seed) always gives byte-identical
files.

Usage:
    python3 e2ebench/scene.py --workload map-tiled --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

DENSITY = 4.0  # returns per m^2
OUTLIER_SHARE = 0.001
BUILDINGS_PER_KM2 = 300.0  # 19 on a 250 m square
TREES_PER_KM2 = 400.0
LAKE_RADIUS = 40.0
LAYOUT_SEED = 20220529
LAS_SCALE = 0.001

CLASS_GROUND = 2
CLASS_VEGETATION = 5
CLASS_BUILDING = 6
CLASS_LOW_NOISE = 7

# LAS point format 1: the 20-byte core record plus a GPS time.
POINT_DTYPE = np.dtype(
    [
        ("x", "<i4"),
        ("y", "<i4"),
        ("z", "<i4"),
        ("intensity", "<u2"),
        ("flags", "u1"),
        ("classification", "u1"),
        ("scan_angle", "i1"),
        ("user_data", "u1"),
        ("point_source", "<u2"),
        ("gps_time", "<f8"),
    ]
)
HEADER_SIZE = 227


@dataclass(frozen=True)
class SceneSpec:
    """What a workload's scene contains; the seed draws its returns."""

    extent_m: float
    lake_center: tuple[float, float]
    # An 80 m building, longer than map-tiled's 50 m window overlap, placed
    # so that the padded edge of a 150 m window cuts it (see _long_building).
    long_building: bool = False


SCENES = {
    # The lake straddles the x = 150 m window seam.
    "map-tiled": SceneSpec(300.0, lake_center=(150.0, 85.0), long_building=True),
    "sweep-k1": SceneSpec(250.0, lake_center=(175.0, 85.0)),
}


@dataclass
class Building:
    cx: float
    cy: float
    length: float  # along the ridge
    width: float
    angle: float  # ridge direction, radians
    height: float  # eave height above the ground at the centre
    gable: float  # ridge rise above the eaves, 0 for a flat roof
    # (depth, width) of a courtyard cut into the -length end, making a U.
    notch: tuple[float, float] | None = None

    def corners(self) -> np.ndarray:
        """Footprint ring, counter-clockwise, first corner repeated."""
        u = np.array([math.cos(self.angle), math.sin(self.angle)])
        v = np.array([-u[1], u[0]])
        hl, hw = self.length / 2, self.width / 2
        pts = [(-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw)]
        if self.notch is not None:
            depth, half = self.notch[0], self.notch[1] / 2
            pts += [(-hl, half), (-hl + depth, half), (-hl + depth, -half), (-hl, -half)]
        pts.append(pts[0])
        return np.array([[self.cx, self.cy] + a * u + b * v for a, b in pts])

    def covers(self, along: np.ndarray, across: np.ndarray) -> np.ndarray:
        """Which local (along, across) positions fall on the roof."""
        inside = (np.abs(along) <= self.length / 2) & (np.abs(across) <= self.width / 2)
        if self.notch is not None:
            depth, width = self.notch
            inside &= ~((along < -self.length / 2 + depth) & (np.abs(across) < width / 2))
        return inside

    def local(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dx, dy = x - self.cx, y - self.cy
        c, s = math.cos(self.angle), math.sin(self.angle)
        return dx * c + dy * s, -dx * s + dy * c

    def radius(self) -> float:
        return math.hypot(self.length, self.width) / 2


def ground_z(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sloped, rolling terrain: at most a few cm of rise per 0.5 m cell."""
    return (
        120.0
        + 0.03 * x
        - 0.02 * y
        + 2.5 * np.sin(x / 61.0) * np.cos(y / 47.0)
    )


def _long_building() -> Building:
    # 150 m windows with a 50 m overlap put the second column's core at
    # x >= 150 m and its padded edge at x = 100 m; this 80 m roof spans
    # x = 85..165 m, so that window sees it cut at its border, while the
    # first window sees it whole.
    return Building(125.0, 225.0, 80.0, 24.0, 0.0, 9.0, 0.0)


def _catalogue(rng, count: int) -> list[tuple[float, float, float, float, float]]:
    """Building shapes: (length, width, angle, height, gable rise)."""
    out = []
    for _ in range(count):
        length = rng.uniform(10.0, 34.0)
        width = rng.uniform(8.0, min(length, 20.0))
        gable = float(rng.uniform(2.0, 5.0)) if rng.random() < 0.5 else 0.0
        out.append((length, width, rng.uniform(0.0, math.pi), rng.uniform(4.0, 15.0), gable))
    return out


def _courtyard_block(cx: float, cy: float) -> Building:
    # A U open to the west, with 30 m arms.  Labelling by label propagation
    # needs about twice as many passes for it as for any rectangle, so this
    # block, not the chance shape of some rectangle's edge, sets how many
    # passes a scene needs, and seeds cost about the same.
    return Building(cx, cy, 38.0, 22.0, 0.0, 10.0, 0.0, notch=(30.0, 6.0))


def _place_buildings(rng, spec: SceneSpec) -> list[Building]:
    """Buildings on a jittered grid of slots.

    Slots too close to the lake or the long building stay empty; a
    building keeps at least 3 m from its slot's edge, so from the scene's.
    One slot holds the courtyard block.
    """
    L = spec.extent_m
    fixed = [_long_building()] if spec.long_building else []
    count = round(BUILDINGS_PER_KM2 * (L / 1000.0) ** 2) - 1
    shapes = _catalogue(rng, count)
    radius = max(math.hypot(s[0], s[1]) / 2 for s in shapes)
    side = math.ceil(math.sqrt(1.3 * count))
    step = L / side
    slots = []
    for i in range(side):
        for j in range(side):
            cx, cy = (i + 0.5) * step, (j + 0.5) * step
            if math.hypot(cx - spec.lake_center[0], cy - spec.lake_center[1]) < LAKE_RADIUS + radius + 10.0:
                continue
            probe = Building(cx, cy, 2 * radius, 2 * radius, 0.0, 0.0, 0.0)
            if fixed and _hits_long(probe, fixed[0]):
                continue
            slots.append((cx, cy))
    block = min(slots, key=lambda c: math.hypot(c[0] - 0.25 * L, c[1] - 0.75 * L))
    slots.remove(block)
    fixed.append(_courtyard_block(*block))
    order = rng.permutation(len(slots))[:count]
    out = list(fixed)
    for k, (length, width, angle, height, gable) in zip(order, shapes):
        r = math.hypot(length, width) / 2
        room = max(0.0, step / 2 - r - 3.0)
        cx, cy = slots[k] + rng.uniform(-room, room, 2)
        out.append(Building(float(cx), float(cy), length, width, angle, height, gable))
    return out


def _hits_long(b: Building, long: Building) -> bool:
    r = b.radius() + 8.0
    return (
        abs(b.cx - long.cx) < long.length / 2 + r
        and abs(b.cy - long.cy) < long.width / 2 + r
    )


def _roof_z(b: Building, along: np.ndarray, across: np.ndarray) -> np.ndarray:
    base = float(ground_z(np.array(b.cx), np.array(b.cy))) + b.height
    if b.gable == 0.0:
        return np.full(along.shape, base)
    return base + b.gable * (1.0 - np.abs(across) / (b.width / 2))


def generate(spec: SceneSpec, seed: int):
    """Return (records, buildings, info) for one scene."""
    layout = np.random.default_rng(LAYOUT_SEED)
    rng = np.random.default_rng(seed)
    L = spec.extent_m
    lake = spec.lake_center
    buildings = _place_buildings(layout, spec)

    # Returns and corner anchors span [0, L - 0.25] on both axes, so that a
    # 0.5 m grid has exactly L / 0.5 cells a side and 150 m windows of a
    # 300 m scene make 2 x 2 windows, not 3 x 3 with one-cell strips.
    top = L - 0.25
    n = round(DENSITY * L * L)
    x = rng.uniform(0.0, top, n)
    y = rng.uniform(0.0, top, n)
    x = np.concatenate([[0.0, top, 0.0, top], x])
    y = np.concatenate([[0.0, 0.0, top, top], y])
    z = ground_z(x, y)
    cls = np.full(x.shape, CLASS_GROUND, np.uint8)

    keep = np.hypot(x - lake[0], y - lake[1]) > LAKE_RADIUS
    keep[:4] = True

    for b in buildings:
        r = b.radius()
        near = np.flatnonzero((np.abs(x - b.cx) <= r) & (np.abs(y - b.cy) <= r))
        along, across = b.local(x[near], y[near])
        inside = b.covers(along, across)
        idx = near[inside]
        z[idx] = _roof_z(b, along[inside], across[inside])
        cls[idx] = CLASS_BUILDING

    n_trees = round(TREES_PER_KM2 * (L / 1000.0) ** 2)
    trees = 0
    for _ in range(20 * n_trees):
        if trees == n_trees:
            break
        tx, ty = layout.uniform(10.0, L - 10.0, 2)
        tr = layout.uniform(3.0, 8.0)
        if math.hypot(tx - lake[0], ty - lake[1]) < LAKE_RADIUS + tr + 5.0:
            continue
        if any(math.hypot(tx - b.cx, ty - b.cy) < b.radius() + tr + 3.0 for b in buildings):
            continue
        th = layout.uniform(6.0, 20.0)
        near = np.flatnonzero((np.abs(x - tx) <= tr) & (np.abs(y - ty) <= tr))
        d = np.hypot(x[near] - tx, y[near] - ty) / tr
        inside = d <= 1.0
        idx = near[inside]
        # A quarter of the pulses reach the ground; the rest hit a ragged crown.
        hit = rng.random(idx.size) >= 0.25
        crown = th * np.sqrt(1.0 - d[inside] ** 2) * rng.uniform(0.5, 1.0, idx.size)
        z[idx[hit]] += crown[hit]
        cls[idx[hit]] = CLASS_VEGETATION
        trees += 1

    x, y, z, cls = x[keep], y[keep], z[keep], cls[keep]
    noisy = 4 + rng.choice(x.size - 4, round(OUTLIER_SHARE * x.size), replace=False)
    z[noisy] -= rng.uniform(5.0, 30.0, noisy.size)
    cls[noisy] = CLASS_LOW_NOISE

    rec = np.zeros(x.size, POINT_DTYPE)
    rec["x"] = np.round(x / LAS_SCALE)
    rec["y"] = np.round(y / LAS_SCALE)
    rec["z"] = np.round(z / LAS_SCALE)
    rec["intensity"] = rng.integers(0, 4096, x.size)
    rec["flags"] = 0b00001001  # return 1 of 1
    rec["classification"] = cls
    rec["gps_time"] = np.arange(x.size) * 1e-5
    cells = round(L / 0.5)
    info = {
        "scene": asdict(spec),
        "seed": seed,
        "points": int(x.size),
        "buildings": len(buildings),
        "trees": trees,
        "low_outliers": int(noisy.size),
        "lake_radius_m": LAKE_RADIUS,
        "grid_at_0.5m": [cells, cells],
    }
    return rec, buildings, info


def las_header(rec: np.ndarray) -> bytes:
    x = rec["x"] * LAS_SCALE
    y = rec["y"] * LAS_SCALE
    z = rec["z"] * LAS_SCALE
    by_return = [rec.size, 0, 0, 0, 0]
    head = struct.pack(
        "<4sHH16sBB32s32sHHHIIBHI5I12d",
        b"LASF", 0, 0, bytes(16),
        1, 2,
        b"e2ebench".ljust(32, b"\0"), b"e2ebench scene.py".ljust(32, b"\0"),
        1, 2024,
        HEADER_SIZE, HEADER_SIZE, 0,
        1, POINT_DTYPE.itemsize, rec.size,
        *by_return,
        LAS_SCALE, LAS_SCALE, LAS_SCALE,
        0.0, 0.0, 0.0,
        float(x.max()), float(x.min()), float(y.max()), float(y.min()),
        float(z.max()), float(z.min()),
    )
    assert len(head) == HEADER_SIZE
    return head


def footprints_geojson(buildings: list[Building]) -> str:
    features = [
        {
            "type": "Feature",
            "properties": {"id": i, "gable": bool(b.gable > 0.0)},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[round(float(px), 3), round(float(py), 3)] for px, py in b.corners()]],
            },
        }
        for i, b in enumerate(buildings)
    ]
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


def write_scene(workload: str, seed: int, out_dir: str) -> dict:
    """Write scene.las, footprints.geojson and scene.json into out_dir."""
    rec, buildings, info = generate(SCENES[workload], seed)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scene.las"), "wb") as f:
        f.write(las_header(rec))
        f.write(rec.tobytes())
    with open(os.path.join(out_dir, "footprints.geojson"), "w", encoding="ascii") as f:
        f.write(footprints_geojson(buildings))
    info["workload"] = workload
    with open(os.path.join(out_dir, "scene.json"), "w", encoding="ascii") as f:
        json.dump(info, f, sort_keys=True)
    return info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    info = write_scene(args.workload, args.seed, args.out)
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
