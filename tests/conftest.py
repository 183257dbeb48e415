"""Shared scene builders, byte builders, and independent oracles.

The oracles here are deliberately naive re-statements of each operation's
definition (scans, flood fills, all-pairs searches); tests compare the
shipped implementations against them rather than against themselves.
"""

from __future__ import annotations

import math
import struct
from collections import deque

import numpy as np

from lidarmaps import ingest
from lidarmaps._kernels import _round_half_away_in_place
from lidarmaps.grid import GridSpec, Raster

GSD = 0.5


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def raster_of(values, gsd: float = GSD, origin=(0.0, 0.0), nodata=-9999.0) -> Raster:
    arr = np.asarray(values)
    spec = GridSpec(origin[0], origin[1], gsd, arr.shape[1], arr.shape[0])
    return Raster(spec, arr, nodata)


def points_from_field(zfield: np.ndarray, gsd: float = GSD, origin=(0.0, 0.0)) -> np.ndarray:
    """One return per cell at the cell center; NaN cells emit no point."""
    zfield = np.asarray(zfield, np.float64)
    h, w = zfield.shape
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    xs = origin[0] + (cols + 0.5) * gsd
    ys = origin[1] + (rows + 0.5) * gsd
    pts = np.column_stack([xs.ravel(), ys.ravel(), zfield.ravel()])
    return pts[np.isfinite(pts[:, 2])]


def write_xyz_text(points: np.ndarray, path: str) -> None:
    """Write points as text triples that read back to the same floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for x, y, z in points:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer with halves away from zero, as a new
    float64 array, by the in-place rounding the roughness count uses."""
    out = np.array(x, np.float64)
    _round_half_away_in_place(out)
    return out


# Minimum record size of each LAS point format, from ASPRS LAS 1.4 R15.
LAS_CORE_SIZES = {0: 20, 1: 28, 2: 26, 3: 34, 4: 57, 5: 63, 6: 30, 7: 36, 8: 38, 9: 59, 10: 67}


def build_las(
    points,
    *,
    version=(1, 2),
    point_format: int = 0,
    record_length: int | None = None,
    scale=(0.001, 0.001, 0.001),
    offset=(0.0, 0.0, 0.0),
    point_count: int | None = None,
    use_extended_count: bool = False,
    header_size: int | None = None,
    data_offset: int | None = None,
) -> bytes:
    """Assemble LAS bytes field by field, independent of the reader."""
    points = np.asarray(points, np.float64).reshape(-1, 3)
    rl = record_length
    if rl is None:
        rl = LAS_CORE_SIZES.get(point_format & 0x7F, 20)
    major, minor = version
    sizes = {1: 227, 2: 227, 3: 235, 4: 375}
    hs = header_size if header_size is not None else sizes.get(minor, 227)
    do = data_offset if data_offset is not None else hs
    n = len(points) if point_count is None else point_count
    legacy = 0 if use_extended_count else n
    if points.size:
        mins = points.min(axis=0)
        maxs = points.max(axis=0)
    else:
        mins = maxs = (0.0, 0.0, 0.0)
    head = struct.pack(
        "<4sHH16sBB32s32sHHHIIBHI5I12d",
        b"LASF", 0, 0, b"\0" * 16,
        major, minor,
        b"synthetic".ljust(32, b"\0"), b"tests".ljust(32, b"\0"),
        1, 2024,
        hs, do, 0,
        point_format, rl, legacy,
        0, 0, 0, 0, 0,
        scale[0], scale[1], scale[2],
        offset[0], offset[1], offset[2],
        maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2],
    )
    head = head.ljust(hs, b"\0")
    if use_extended_count and len(head) >= 255:
        head = head[:247] + struct.pack("<Q", n) + head[255:]
    body = bytearray()
    for x, y, z in points:
        xi = round((x - offset[0]) / scale[0])
        yi = round((y - offset[1]) / scale[1])
        zi = round((z - offset[2]) / scale[2])
        body += struct.pack("<iii", xi, yi, zi).ljust(rl, b"\0")
    return bytes(head[:do].ljust(do, b"\0")) + bytes(body)


def dequantize_las(data: bytes) -> tuple[np.ndarray, int]:
    """(finite points, dropped count) of LAS bytes, read independently of
    the reader from the public header's fields: the records' leading
    int32 x, y, z by np.frombuffer, raw * scale + offset, and the rows
    with a non-finite coordinate dropped."""
    data_offset, = struct.unpack_from("<I", data, 96)
    record_length, count = struct.unpack_from("<HI", data, 105)
    scale = struct.unpack_from("<3d", data, 131)
    offset = struct.unpack_from("<3d", data, 155)
    rec = np.dtype({"names": ["x", "y", "z"], "formats": ["<i4"] * 3,
                    "offsets": [0, 4, 8], "itemsize": record_length})
    raw = np.frombuffer(data, rec, count, data_offset)
    with np.errstate(over="ignore"):
        pts = np.column_stack([raw[n] * scale[i] + offset[i] for i, n in enumerate("xyz")])
    finite = np.isfinite(pts).all(axis=1)
    return pts[finite], len(pts) - int(finite.sum())


#: The ways change_second_las_pass changes a file of 1,600 finite points,
#: and the finite points its second pass then holds.
SECOND_PASS_CHANGES = {"drop_row": 1599, "nan_z": 1550, "half": 800}


def change_second_las_pass(monkeypatch, change: str) -> None:
    """Make the second ingest._las_chunks call of a run read the file as
    if it had changed since the first: its first record dropped, a NaN z
    in its first 50 records, or only the first half of its records."""
    real, calls = ingest._las_chunks, []

    def changed(path, info):
        calls.append(path)
        left = info.point_count // 2
        for i, chunk in enumerate(real(path, info)):
            if len(calls) == 2 and change == "drop_row" and i == 0:
                chunk = chunk[1:]
            elif len(calls) == 2 and change == "nan_z" and i == 0:
                chunk = chunk.copy()
                chunk[:50, 2] = np.nan
            elif len(calls) == 2 and change == "half":
                if left <= 0:
                    return
                chunk = chunk[:left]
                left -= len(chunk)
            yield chunk

    monkeypatch.setattr(ingest, "_las_chunks", changed)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def rasterize_scan(points: np.ndarray, spec: GridSpec):
    """Per-point reference rasterization."""
    zmin = np.full(spec.shape, np.inf)
    counts = np.zeros(spec.shape, np.int64)
    oob = 0
    for x, y, z in points:
        c = math.floor((x - spec.origin_x) / spec.gsd)
        r = math.floor((y - spec.origin_y) / spec.gsd)
        if 0 <= r < spec.height and 0 <= c < spec.width:
            counts[r, c] += 1
            zmin[r, c] = min(zmin[r, c], z)
        else:
            oob += 1
    return zmin, counts, oob


def nearest_fill_scan(values: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """All-pairs nearest-source fill; ties to the row-major earliest."""
    src = np.argwhere(sources)
    out = values.copy()
    for i, j in np.argwhere(~sources):
        d2 = (src[:, 0] - i) ** 2 + (src[:, 1] - j) ** 2
        best = np.lexsort((src[:, 1], src[:, 0], d2))[0]
        out[i, j] = values[src[best, 0], src[best, 1]]
    return out


def breakline_scan(vals: np.ndarray, threshold: float) -> np.ndarray:
    """Per-cell break-line flags: |dz| to some in-bounds 8-neighbour above
    the threshold."""
    h, w = vals.shape
    out = np.zeros((h, w), bool)
    for i in range(h):
        for j in range(w):
            for a in range(max(0, i - 1), min(h, i + 2)):
                for b in range(max(0, j - 1), min(w, j + 2)):
                    if abs(float(vals[i, j]) - float(vals[a, b])) > threshold:
                        out[i, j] = True
    return out


def _footprint(k: int, shape: str) -> np.ndarray:
    r = k // 2
    di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    if shape == "square":
        return np.ones((k, k), bool)
    return np.abs(di) + np.abs(dj) <= r


def erode_scan(mask: np.ndarray, k: int, shape: str = "square") -> np.ndarray:
    """Window-scan erosion; cells beyond the border count as empty."""
    r = k // 2
    foot = _footprint(k, shape)
    padded = np.pad(mask, r, constant_values=False)
    wins = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    return wins[:, :, foot].all(axis=-1)


def dilate_scan(mask: np.ndarray, k: int, shape: str = "square") -> np.ndarray:
    r = k // 2
    foot = _footprint(k, shape)
    padded = np.pad(mask, r, constant_values=False)
    wins = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    return wins[:, :, foot].any(axis=-1)


def flood_labels(mask: np.ndarray, eight: bool):
    """BFS labeling, ids by row-major first encounter."""
    if eight:
        offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offs = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    h, w = mask.shape
    lab = np.zeros(mask.shape, np.int32)
    nxt = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or lab[i, j]:
                continue
            nxt += 1
            lab[i, j] = nxt
            queue = deque([(i, j)])
            while queue:
                a, b = queue.popleft()
                for di, dj in offs:
                    na, nb = a + di, b + dj
                    if 0 <= na < h and 0 <= nb < w and mask[na, nb] and not lab[na, nb]:
                        lab[na, nb] = nxt
                        queue.append((na, nb))
    return lab, nxt


def distinct_scan(vals: np.ndarray, k: int) -> np.ndarray:
    """Set-based distinct count over the border-clipped window."""
    r = k // 2
    h, w = vals.shape
    out = np.zeros((h, w), np.int64)
    for i in range(h):
        for j in range(w):
            window = vals[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
            out[i, j] = len(set(window.ravel().tolist()))
    return out


def masked_median_scan(vals: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    h, w = vals.shape
    out = np.full((h, w), np.nan)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            vwin = vals[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
            mwin = mask[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
            out[i, j] = np.median(np.sort(vwin[mwin]))
    return out


def extract_scan(ndhm: np.ndarray, water, params, dsm=None):
    """Reference building extraction: (map2d, map3d, diff, kept).

    Restates the chain from the scans above: the inclusive `ht`
    threshold, the water cut, an erode-then-dilate opening by k1, an
    8-connected flood labelling, a set-based roughness per candidate cell
    (heights rounded half away from zero, one cell at a time, non-finite
    heights one value), the planar share of each component against dt, a
    square k3 dilation, and the roof heights of `ndhm` (or of `dsm`, as
    params.map3d_source says) on the final cells, median-smoothed if
    asked.  diff codes each cell by the stage that removed it (1 water,
    2 opening, 3 planarity) or added it (4 dilation).
    """
    ndhm = np.asarray(ndhm, np.float64)
    raw = ndhm >= params.ht
    after_water = raw & ~water if water is not None else raw
    after_open = dilate_scan(
        erode_scan(after_water, params.k1, params.kernel_shape), params.k1, params.kernel_shape
    )
    labels, count = flood_labels(after_open, eight=True)

    def rounded(v: float) -> float:
        if not math.isfinite(v):
            return -math.inf
        return float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))

    ints = np.array([rounded(v) for v in ndhm.ravel().tolist()]).reshape(ndhm.shape)
    rough = distinct_scan(ints, params.k2)
    kept = np.zeros(count + 1, bool)
    for c in range(1, count + 1):
        cells = labels == c
        planar = np.count_nonzero(rough[cells] < params.rt)
        kept[c] = planar / np.count_nonzero(cells) >= params.dt
    mask = kept[labels]
    map2d = dilate_scan(mask, params.k3, "square")

    heights = ndhm if params.map3d_source == "ndhm" else np.asarray(dsm, np.float64)
    if params.median_roof:
        map3d = masked_median_scan(heights, map2d, params.median_roof)
    else:
        map3d = np.where(map2d, heights, np.nan)

    diff = np.zeros(ndhm.shape, np.uint8)
    for i, j in np.ndindex(ndhm.shape):
        if map2d[i, j] and not raw[i, j]:
            diff[i, j] = 4
        elif raw[i, j] and not map2d[i, j]:
            if not after_water[i, j]:
                diff[i, j] = 1
            elif not after_open[i, j]:
                diff[i, j] = 2
            elif not mask[i, j]:
                diff[i, j] = 3
    return map2d, map3d, diff, kept


def point_in_rings(x: float, y: float, rings) -> bool:
    """Even-odd crossing count, evaluated edge by edge."""
    inside = False
    for ring in rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if (y1 > y) != (y2 > y):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xint:
                    inside = not inside
    return inside


def instance_census(pred: np.ndarray, truth_labels: np.ndarray):
    """Brute-force detection/commission census.

    Returns (detected_truth_ids, commission_flags_by_pred_component) with
    pred components labeled by 8-connected flood fill.
    """
    detected = set()
    for lb in np.unique(truth_labels):
        if lb == 0:
            continue
        cells = truth_labels == lb
        if 2 * np.count_nonzero(pred & cells) > np.count_nonzero(cells):
            detected.add(int(lb))
    plab, n = flood_labels(pred, eight=True)
    commissions = set()
    for lb in range(1, n + 1):
        cells = plab == lb
        if 2 * np.count_nonzero(cells & (truth_labels > 0)) <= np.count_nonzero(cells):
            commissions.add(lb)
    return detected, commissions


def pipeline_oracle(points: np.ndarray, cfg) -> dict[str, np.ndarray]:
    """Reference one-window map run: the seven grids of `run_pipeline` on
    `points` under the PipelineConfig `cfg`, by per-cell loops over the
    README's five stages.

    rasterize: the grid from the points' bounds, the lowest z per cell
    (a tie of 0.0 and -0.0 is +0.0), NaN where no point falls.
    fill: every void takes its nearest valued cell.
    water: with p the occupied share of all cells and n the cells of a
    cell's water_window, clipped at the border, the cell is flagged when
    its occupied cells number at most n*p - sigma_k*sqrt(n*p*(1-p)) (none
    when p is 1); 8-connected flagged bodies under water_min_area go, and
    the rest grow by a Chebyshev buffer of ceil(water_buffer / gsd) cells.
    terrain: break-line cells step by more than slope_threshold to an
    8-neighbour; of the 4-connected smooth regions, the largest (the
    earliest of equals) and every one touching the border are ground, the
    rest objects; a break-line cell is an object when one of its
    8-neighbours is an object region cell or none is ground.  The ground
    cells' heights fill the rest by nearest fill, and ndhm is dsm - dtm
    clamped at 0.0.
    extract: extract_scan.
    """
    points = np.asarray(points, np.float64)
    gsd = cfg.gsd
    x0, y0 = float(points[:, 0].min()), float(points[:, 1].min())
    width = math.floor((float(points[:, 0].max()) - x0) / gsd) + 1
    height = math.floor((float(points[:, 1].max()) - y0) / gsd) + 1
    zmin, counts, _ = rasterize_scan(points, GridSpec(x0, y0, gsd, width, height))
    occupied = counts > 0
    dsm = nearest_fill_scan(np.where(occupied, zmin + 0.0, np.nan), occupied)

    wp = cfg.water_params()
    h, w = occupied.shape
    p = int(np.count_nonzero(occupied)) / occupied.size
    r = wp.window // 2
    flagged = np.zeros((h, w), bool)
    for i in range(h):
        for j in range(w):
            rows, cols = slice(max(0, i - r), i + r + 1), slice(max(0, j - r), j + r + 1)
            n = float(occupied[rows, cols].size)
            got = int(np.count_nonzero(occupied[rows, cols]))
            flagged[i, j] = p < 1 and got <= n * p - wp.sigma_k * math.sqrt(n * p * (1.0 - p))
    labels, count = flood_labels(flagged, eight=True)
    bodies = np.zeros((h, w), bool)
    for c in range(1, count + 1):
        if np.count_nonzero(labels == c) * (gsd * gsd) >= wp.min_area:
            bodies |= labels == c
    water = dilate_scan(bodies, 2 * math.ceil(wp.buffer / gsd) + 1, "square")

    br = breakline_scan(dsm, cfg.slope_threshold)
    labels, count = flood_labels(~br, eight=False)
    sizes = [int(np.count_nonzero(labels == c)) for c in range(1, count + 1)]
    ground_ids = {1 + sizes.index(max(sizes))}
    ground_ids |= set(labels[0, :]) | set(labels[-1, :]) | set(labels[:, 0]) | set(labels[:, -1])
    ground = np.isin(labels, sorted(ground_ids - {0}))
    objects = ~br & ~ground
    for i, j in zip(*np.nonzero(br)):
        near = (slice(max(0, i - 1), i + 2), slice(max(0, j - 1), j + 2))
        near_object = (~br[near] & ~ground[near]).any()
        objects[i, j] = near_object or not ground[near].any()
    dtm = nearest_fill_scan(dsm, ~objects)
    ndhm = dsm - dtm
    ndhm[~(ndhm > 0)] = 0.0

    map2d, map3d, diff, _ = extract_scan(ndhm, water, cfg.extract_params(), dsm)
    return {"map2d": map2d, "map3d": map3d, "dsm": dsm, "dtm": dtm, "ndhm": ndhm,
            "water": water, "diff": diff}
