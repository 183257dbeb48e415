"""Map comparison: pixel metrics, disagreement tiles, instance matching,
and the eval driver that loads both maps and writes the reports.

Ratios with an empty denominator are None (reported as nodata downstream),
never 0: a tile with no building in either map is unknown, not perfect.
This module and the ones it imports load no map stage, so `eval` runs
without them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TILE_SIZE, _check_positive
from .errors import EmptyTruth, IoFailure, OpenRing, SelfIntersection, SpecMismatch
from .formats import _write_report, read_ascii_grid
from .grid import (
    GridSpec,
    Raster,
    component_sizes,
    connected_components,
    require_same_spec,
)

#: Instance area bands in m^2, half-open [lo, hi).
AREA_BANDS = (
    (0.0, 50.0),
    (50.0, 500.0),
    (500.0, 10_000.0),
    (10_000.0, math.inf),
)


def band_name(lo: float, hi: float) -> str:
    if math.isinf(hi):
        return f"{lo:g}+"
    return f"{lo:g}-{hi:g}"


# ---------------------------------------------------------------------------
# cellwise confusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    iou: float | None
    precision: float | None
    recall: float | None
    f1: float | None


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def confusion(pred: Raster, truth: Raster) -> ConfusionMetrics:
    """Cellwise confusion counts and the usual ratios."""
    require_same_spec(pred, truth, "pred and truth")
    p = pred.values.astype(bool)
    t = truth.values.astype(bool)
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = p.size - tp - fp - fn
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ConfusionMetrics(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        iou=_ratio(tp, tp + fp + fn),
        precision=precision,
        recall=recall,
        f1=f1,
    )


# ---------------------------------------------------------------------------
# disagreement tiles
# ---------------------------------------------------------------------------


@dataclass
class TileReport:
    """Per-tile confusion over a square tiling of the raster extent.

    Tiles partition the cells: a cell belongs to the tile containing its
    lower-left corner.  `ranking` orders tile ids by ascending IoU with
    empty-on-both tiles (IoU None) last; ties stay in tile-id order.
    """

    tile_size: float
    tiles_x: int
    tiles_y: int
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    iou: np.ndarray  # NaN = nodata
    ranking: np.ndarray

    @property
    def tile_count(self) -> int:
        return self.tiles_x * self.tiles_y

    def tile_bounds(self, tid: int, spec: GridSpec) -> tuple[float, float, float, float]:
        ty, tx = divmod(tid, self.tiles_x)
        x0 = spec.origin_x + tx * self.tile_size
        y0 = spec.origin_y + ty * self.tile_size
        return (x0, y0, x0 + self.tile_size, y0 + self.tile_size)


def tiling_comparison(
    pred: Raster, truth: Raster, tile_size: float = DEFAULT_TILE_SIZE
) -> TileReport:
    """Confusion per tile_size x tile_size ground tile, worst tiles first."""
    require_same_spec(pred, truth, "pred and truth")
    _check_positive(tile_size, "tile_size")
    spec = pred.spec
    tiles_x = math.ceil(spec.width * spec.gsd / tile_size)
    tiles_y = math.ceil(spec.height * spec.gsd / tile_size)
    n = tiles_x * tiles_y
    tcol = np.floor(np.arange(spec.width) * spec.gsd / tile_size).astype(np.int64)
    trow = np.floor(np.arange(spec.height) * spec.gsd / tile_size).astype(np.int64)
    tid = trow[:, None] * tiles_x + tcol[None, :]
    p = pred.values.astype(bool)
    t = truth.values.astype(bool)

    def per_tile(mask: np.ndarray) -> np.ndarray:
        return np.bincount(tid[mask], minlength=n)

    tp = per_tile(p & t)
    fp = per_tile(p & ~t)
    fn = per_tile(~p & t)
    cells = np.bincount(tid.reshape(-1), minlength=n)
    tn = cells - tp - fp - fn
    union = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, tp / np.maximum(union, 1), np.nan)
    order_key = np.where(np.isnan(iou), np.inf, iou)
    ranking = np.lexsort((np.arange(n), order_key))
    return TileReport(
        tile_size=float(tile_size),
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        iou=iou,
        ranking=ranking,
    )


# ---------------------------------------------------------------------------
# instance matching
# ---------------------------------------------------------------------------


@dataclass
class BandStats:
    """Detection and commission tallies for one instance-area band."""

    lo: float
    hi: float
    gt_count: int
    detected: int
    detection_rate: float | None
    pred_count: int
    commission_count: int
    commission_rate: float | None  # commissions / gt_count, may exceed 1


@dataclass
class InstanceReport:
    n_truth: int
    n_pred: int
    detected: np.ndarray  # [n_truth + 1] bool, index 0 unused
    commission: np.ndarray  # [n_pred + 1] bool, index 0 unused
    bands: list[BandStats]
    detection_rate: float | None
    commission_rate: float | None


def _band_index(areas: np.ndarray) -> np.ndarray:
    edges = np.array([b[0] for b in AREA_BANDS] + [math.inf])
    return np.clip(np.searchsorted(edges, areas, side="right") - 1, 0, len(AREA_BANDS) - 1)


def match_instances(pred: Raster, truth_labels: Raster) -> InstanceReport:
    """Instance-level census of a predicted mask against labeled truth.

    A truth instance is detected iff predictions cover strictly more than
    half of its cells; a predicted component is a commission iff at most
    half of its cells overlap any truth.  Rates are tallied per area band,
    each normalized by the band's truth count.
    """
    require_same_spec(pred, truth_labels, "pred and truth instances")
    lab = truth_labels.values.astype(np.int64)
    n_truth = int(lab.max()) if lab.size else 0
    if n_truth == 0:
        raise EmptyTruth("truth layer has no instances")
    p = pred.values.astype(bool)
    gsd = pred.spec.gsd

    t_cells = component_sizes(truth_labels.with_values(lab), n_truth)
    t_cov = np.bincount(lab[p].reshape(-1), minlength=n_truth + 1)
    detected = 2 * t_cov > t_cells
    detected[0] = False

    pred_labels, n_pred = connected_components(pred, 8)
    plab = pred_labels.values
    p_cells = component_sizes(pred_labels, n_pred)
    p_cov = np.bincount(plab[lab > 0].reshape(-1), minlength=n_pred + 1)
    commission = 2 * p_cov <= p_cells
    commission[0] = False

    cell_area = gsd * gsd
    t_band = _band_index(t_cells[1:] * cell_area)
    p_band = _band_index(p_cells[1:] * cell_area)

    bands: list[BandStats] = []
    for bi, (lo, hi) in enumerate(AREA_BANDS):
        in_t = t_band == bi
        in_p = p_band == bi
        gt = int(np.count_nonzero(in_t))
        det = int(np.count_nonzero(detected[1:][in_t]))
        com = int(np.count_nonzero(commission[1:][in_p]))
        bands.append(
            BandStats(
                lo=lo,
                hi=hi,
                gt_count=gt,
                detected=det,
                detection_rate=_ratio(det, gt),
                pred_count=int(np.count_nonzero(in_p)),
                commission_count=com,
                commission_rate=_ratio(com, gt),
            )
        )
    return InstanceReport(
        n_truth=n_truth,
        n_pred=n_pred,
        detected=detected,
        commission=commission,
        bands=bands,
        detection_rate=_ratio(int(np.count_nonzero(detected)), n_truth),
        commission_rate=_ratio(int(np.count_nonzero(commission)), n_truth),
    )


# ---------------------------------------------------------------------------
# polygon rasterization (even-odd at cell centers)
# ---------------------------------------------------------------------------


def _validate_ring(ring: np.ndarray, what: str) -> np.ndarray:
    ring = np.asarray(ring, np.float64)
    if ring.ndim != 2 or ring.shape[1] != 2 or ring.shape[0] < 4:
        raise OpenRing(f"{what}: a ring needs >= 4 (x, y) rows incl. closure")
    finite = np.isfinite(ring).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OpenRing(f"{what}: vertex {i} {ring[i].tolist()} is not finite")
    if ring[0, 0] != ring[-1, 0] or ring[0, 1] != ring[-1, 1]:
        raise OpenRing(f"{what}: first vertex {ring[0]} != last {ring[-1]}")
    _check_self_intersection(ring, what)
    return ring


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px, py, qx, qy, rx, ry) -> bool:
    return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)


def _segments_intersect(a, b, c, d) -> bool:
    d1 = _cross(c[0], c[1], d[0], d[1], a[0], a[1])
    d2 = _cross(c[0], c[1], d[0], d[1], b[0], b[1])
    d3 = _cross(a[0], a[1], b[0], b[1], c[0], c[1])
    d4 = _cross(a[0], a[1], b[0], b[1], d[0], d[1])
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(c[0], c[1], d[0], d[1], a[0], a[1]):
        return True
    if d2 == 0 and _on_segment(c[0], c[1], d[0], d[1], b[0], b[1]):
        return True
    if d3 == 0 and _on_segment(a[0], a[1], b[0], b[1], c[0], c[1]):
        return True
    if d4 == 0 and _on_segment(a[0], a[1], b[0], b[1], d[0], d[1]):
        return True
    return False


def _check_self_intersection(ring: np.ndarray, what: str) -> None:
    """Sweep the ring's segments by x-extent; flag any crossing or touch
    between non-adjacent segments.

    A vertex given twice makes a segment of zero length, which the even-odd
    rule ignores; it is left out here too, so the segments on either side
    of it are adjacent.  Messages number segments as `ring` does."""
    index = np.flatnonzero((ring[1:] != ring[:-1]).any(axis=1)).tolist()
    m = len(index)
    segs = []
    for k, i in enumerate(index):
        a, b = ring[i], ring[i + 1]
        segs.append((min(a[0], b[0]), max(a[0], b[0]), k, a, b))
    segs.sort(key=lambda s: s[0])
    active: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    for xmin, xmax, k, a, b in segs:
        active = [s for s in active if s[0] >= xmin]
        for _, l, c, d in active:
            gap = abs(k - l)
            if gap <= 1 or gap == m - 1:
                continue  # consecutive segments share one vertex
            if _segments_intersect(a, b, c, d):
                i, j = sorted((index[k], index[l]))
                raise SelfIntersection(f"{what}: segments {i} and {j} intersect")
        active.append((xmax, k, a, b))


def rasterize_polygons(
    polygons: list[list[np.ndarray]], spec: GridSpec
) -> Raster:
    """Label raster from polygons: cell center in polygon i -> label i+1.

    Membership is the even-odd rule over all rings of the polygon, so hole
    rings punch out.  Centers exactly on an edge resolve half-open (left
    span edge in, right out), so boundary cells are deterministic.  Later
    polygons overwrite earlier ones.
    """
    labels = np.zeros(spec.shape, np.int32)
    cx, cy = spec.cell_center(np.arange(spec.height), np.arange(spec.width))
    for idx, rings in enumerate(polygons, start=1):
        rings = [_validate_ring(r, f"polygon {idx - 1}") for r in rings]
        x1, y1 = np.concatenate([r[:-1] for r in rings]).T
        x2, y2 = np.concatenate([r[1:] for r in rings]).T
        # An edge crosses the rows whose centre yc has (y1 > yc) != (y2 > yc),
        # that is min(y1, y2) <= yc < max(y1, y2); one entry per crossing.
        lo = np.searchsorted(cy, np.minimum(y1, y2))
        n = np.searchsorted(cy, np.maximum(y1, y2)) - lo
        edge = np.repeat(np.arange(len(n)), n)
        rows = np.arange(len(edge)) + np.repeat(lo - (np.cumsum(n) - n), n)
        yc = cy[rows]
        xs = x1[edge] + (yc - y1[edge]) * (x2[edge] - x1[edge]) / (y2[edge] - y1[edge])
        # A row's crossings, sorted by x, pair up; each pair [a, b) fills
        # the cells whose centre lies in it.
        order = np.lexsort((xs, rows))
        rows, ends = rows[order].tolist(), np.searchsorted(cx, xs[order]).tolist()
        for row, c0, c1 in zip(rows[0::2], ends[0::2], ends[1::2]):
            labels[row, c0:c1] = idx
    return Raster(spec, labels)


# ---------------------------------------------------------------------------
# GeoJSON footprints
# ---------------------------------------------------------------------------


def load_geojson_polygons(path: str) -> list[list[np.ndarray]]:
    """Read Polygon/MultiPolygon footprints; each MultiPolygon part becomes
    its own polygon.  Coordinates are used as-is (no reprojection); a null
    geometry and a polygon with no rings are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"{path} is not valid JSON: {exc}") from exc

    geoms: list[dict] = []

    def collect(obj: object) -> None:
        if not isinstance(obj, dict):
            raise IoFailure(f"{path}: expected a GeoJSON object, got {type(obj).__name__}")
        kind = obj.get("type")
        if kind == "FeatureCollection":
            features = obj.get("features", [])
            if not isinstance(features, list):
                raise IoFailure(f"{path}: FeatureCollection features must be a list")
            for feat in features:
                collect(feat)
        elif kind == "Feature":
            geom = obj.get("geometry")
            if geom:
                collect(geom)
        elif kind in ("Polygon", "MultiPolygon"):
            geoms.append(obj)
        else:
            raise IoFailure(f"{path}: unsupported GeoJSON type {kind!r}")

    collect(doc)
    polygons: list[list[np.ndarray]] = []
    for geom in geoms:
        try:
            coords = geom["coordinates"]
            parts = [coords] if geom["type"] == "Polygon" else coords
            for rings in parts:
                if not rings:
                    continue  # empty coordinates read as null (RFC 7946)
                polygons.append(
                    [np.asarray([pt[:2] for pt in ring], np.float64) for ring in rings]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise IoFailure(f"{path}: malformed {geom['type']} coordinates: {exc}") from exc
    return polygons


# ---------------------------------------------------------------------------
# text reports
# ---------------------------------------------------------------------------


def _fmt_ratio(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return f"{v:.6f}"


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    cells: ConfusionMetrics
    tiles: TileReport
    instances: InstanceReport


def load_pred_mask(path: str) -> Raster:
    r = read_ascii_grid(path)
    return Raster(r.spec, r.values > 0.5)


def load_truth_labels(path: str, spec: GridSpec) -> Raster:
    """Truth instances from GeoJSON footprints or a mask/label grid.

    GeoJSON is rasterized onto `spec`; a grid file must already be on
    `spec` and is relabeled by 8-connectivity so both routes yield
    comparable instance ids.
    """
    if path.lower().endswith((".geojson", ".json")):
        labels = rasterize_polygons(load_geojson_polygons(path), spec)
    else:
        labels, _ = connected_components(load_pred_mask(path), 8)
    if labels.spec != spec:
        raise SpecMismatch(f"pred and truth are on different grids: {spec} vs {labels.spec}")
    return labels


def run_eval(
    pred: Raster,
    truth_labels: Raster,
    tile_size: float = DEFAULT_TILE_SIZE,
    out_dir: str | None = None,
) -> EvalResult:
    """Cellwise, tiled, and instance-level comparison of pred vs truth."""
    pred_mask = pred.with_values(pred.values.astype(bool))
    truth_mask = truth_labels.with_values(truth_labels.values > 0)
    res = EvalResult(
        cells=confusion(pred_mask, truth_mask),
        tiles=tiling_comparison(pred_mask, truth_mask, tile_size),
        instances=match_instances(pred_mask, truth_labels),
    )
    if out_dir is not None:
        _write_eval_reports(out_dir, res, pred.spec)
    return res


def _write_eval_reports(out_dir: str, res: EvalResult, spec: GridSpec) -> None:
    c = res.cells
    t = res.tiles
    inst = res.instances

    summary = [
        "== cells ==",
        f"tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}",
        f"iou={_fmt_ratio(c.iou)}",
        f"precision={_fmt_ratio(c.precision)}",
        f"recall={_fmt_ratio(c.recall)}",
        f"f1={_fmt_ratio(c.f1)}",
        "",
        f"== tiles ({t.tile_size:g} m) ==",
        f"count={t.tile_count} defined={int(np.count_nonzero(~np.isnan(t.iou)))}",
    ]
    worst = [tid for tid in t.ranking[:10] if not np.isnan(t.iou[tid])]
    summary.append(
        "worst: " + " ".join(f"{tid}:{t.iou[tid]:.4f}" for tid in worst)
        if worst
        else "worst: none defined"
    )
    summary += [
        "",
        "== instances ==",
        f"truth={inst.n_truth} pred={inst.n_pred}",
        f"detection_rate={_fmt_ratio(inst.detection_rate)} "
        f"commission_rate={_fmt_ratio(inst.commission_rate)}",
    ]
    for b in inst.bands:
        summary.append(
            f"band {band_name(b.lo, b.hi)}: gt={b.gt_count} detected={b.detected} "
            f"rate={_fmt_ratio(b.detection_rate)} pred={b.pred_count} "
            f"commissions={b.commission_count} rate={_fmt_ratio(b.commission_rate)}"
        )
    _write_report(out_dir, "eval_summary.txt", summary)

    rows = [
        f"# tile_size={t.tile_size:g} tiles_x={t.tiles_x} tiles_y={t.tiles_y}",
        "# rank tile_id x0 y0 x1 y1 tp fp fn tn iou",
    ]
    for rank, tid in enumerate(t.ranking):
        x0, y0, x1, y1 = t.tile_bounds(int(tid), spec)
        iou = t.iou[tid]
        rows.append(
            f"{rank} {tid} {x0:.3f} {y0:.3f} {x1:.3f} {y1:.3f} "
            f"{t.tp[tid]} {t.fp[tid]} {t.fn[tid]} {t.tn[tid]} "
            f"{'nan' if np.isnan(iou) else f'{iou:.6f}'}"
        )
    _write_report(out_dir, "tiles.txt", rows)

    rows = ["# band_lo band_hi gt_count detected_count detection_rate "
            "pred_count commission_count commission_rate"]
    for b in inst.bands:
        hi = "inf" if math.isinf(b.hi) else f"{b.hi:g}"
        rows.append(
            f"{b.lo:g} {hi} {b.gt_count} {b.detected} {_fmt_ratio(b.detection_rate)} "
            f"{b.pred_count} {b.commission_count} {_fmt_ratio(b.commission_rate)}"
        )
    _write_report(out_dir, "instances.txt", rows)
