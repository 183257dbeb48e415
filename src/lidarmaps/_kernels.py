"""Dual-path raster kernels.

Every function here exists twice: ``*_numba`` wraps a plain-loop source
compiled with ``@njit`` (None when numba is unavailable), ``*_numpy`` is a
vectorized fallback.  The unsuffixed name is the path selected at import
time (see _accel).  Both paths are exact: they must produce bit-identical
outputs, which the test suite enforces pair by pair.

Grid convention used throughout: arrays are (height, width), row 0 is the
southernmost row, and cell (r, c) covers the half-open square
[ox + c*gsd, ox + (c+1)*gsd) x [oy + r*gsd, oy + (r+1)*gsd).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._accel import HAS_NUMBA, USE_NUMBA, njit

_BIG = np.int64(2) ** 62


def _shift2(a: np.ndarray, di: int, dj: int, fill) -> np.ndarray:
    """Shift a 2-D array by (di, dj) filling vacated cells with `fill`."""
    out = np.full_like(a, fill)
    h, w = a.shape
    si0, si1 = max(0, di), min(h, h + di)
    sj0, sj1 = max(0, dj), min(w, w + dj)
    if si0 >= si1 or sj0 >= sj1:
        return out
    out[si0:si1, sj0:sj1] = a[si0 - di:si1 - di, sj0 - dj:sj1 - dj]
    return out


# ---------------------------------------------------------------------------
# minimum-z rasterization
# ---------------------------------------------------------------------------


def _rasterize_min_src(xs, ys, zs, ox, oy, gsd, col0, row0, width, height):
    zmin = np.full((height, width), np.inf, np.float64)
    counts = np.zeros((height, width), np.int32)
    oob = 0
    for i in range(xs.shape[0]):
        c = int(np.floor((xs[i] - ox) / gsd)) - col0
        r = int(np.floor((ys[i] - oy) / gsd)) - row0
        if 0 <= c < width and 0 <= r < height:
            counts[r, c] += 1
            if zs[i] < zmin[r, c]:
                zmin[r, c] = zs[i]
        else:
            oob += 1
    return zmin, counts, oob


def rasterize_min_numpy(xs, ys, zs, ox, oy, gsd, col0, row0, width, height):
    c = np.floor((xs - ox) / gsd).astype(np.int64) - col0
    r = np.floor((ys - oy) / gsd).astype(np.int64) - row0
    ok = (c >= 0) & (c < width) & (r >= 0) & (r < height)
    zmin = np.full((height, width), np.inf, np.float64)
    counts = np.zeros((height, width), np.int32)
    np.minimum.at(zmin, (r[ok], c[ok]), zs[ok])
    np.add.at(counts, (r[ok], c[ok]), 1)
    return zmin, counts, int(xs.shape[0] - np.count_nonzero(ok))


# ---------------------------------------------------------------------------
# exact nearest-valid-cell fill
# ---------------------------------------------------------------------------
# Distances are Euclidean between cell centers; in cell units every squared
# distance is an integer, so the search compares exact (d2, row, col) keys
# and ties resolve to the source earliest in row-major order.
#
# Both paths first find, per column, the nearest source row to every cell
# (the column pass).  A void cell then looks at columns c - k and c + k for
# k = 0, 1, 2, ...: the candidate there is that column's nearest source, at
# d2 = column distance^2 + k^2.  Every source beyond column offset k is at
# least k^2 away, so once k^2 > best_d2 no later column can win or tie, and
# the cell stops.  The numpy path keeps only the void cells, as flat
# indices, in its active arrays; each round it writes the cells that met
# the stop rule to the output and compacts the rest, so a round costs the
# cells still searching rather than the whole grid.  The (row, col) part of
# the key is compared as the source's flat index, which orders the same.


def _nearest_columns_src(valid):
    # Per column: nearest valid row to each row, ties to the smaller row.
    h, w = valid.shape
    frow = np.full((h, w), -1, np.int64)
    fdist = np.zeros((h, w), np.int64)
    for c in range(w):
        last = -1
        for r in range(h):
            if valid[r, c]:
                last = r
            frow[r, c] = last
        nxt = -1
        for r in range(h - 1, -1, -1):
            if valid[r, c]:
                nxt = r
            up = frow[r, c]
            if up < 0 and nxt < 0:
                frow[r, c] = -1
            elif up < 0:
                frow[r, c] = nxt
                fdist[r, c] = nxt - r
            elif nxt >= 0 and nxt - r < r - up:
                frow[r, c] = nxt
                fdist[r, c] = nxt - r
            else:
                fdist[r, c] = r - up
    return frow, fdist


def _nearest_fill_src(values, valid, frow, fdist):
    h, w = values.shape
    out = values.copy()
    for r in range(h):
        for c in range(w):
            if valid[r, c]:
                continue
            best_d2 = _BIG
            best_rf = -1
            best_cf = -1
            for k in range(w):
                k2 = np.int64(k) * np.int64(k)
                if best_rf >= 0 and k2 > best_d2:
                    break
                c2 = c - k
                if c2 >= 0 and frow[r, c2] >= 0:
                    d2 = fdist[r, c2] * fdist[r, c2] + k2
                    rf = frow[r, c2]
                    if d2 < best_d2 or (
                        d2 == best_d2
                        and (rf < best_rf or (rf == best_rf and c2 < best_cf))
                    ):
                        best_d2 = d2
                        best_rf = rf
                        best_cf = c2
                if k > 0:
                    c2 = c + k
                    if c2 < w and frow[r, c2] >= 0:
                        d2 = fdist[r, c2] * fdist[r, c2] + k2
                        rf = frow[r, c2]
                        if d2 < best_d2 or (
                            d2 == best_d2
                            and (rf < best_rf or (rf == best_rf and c2 < best_cf))
                        ):
                            best_d2 = d2
                            best_rf = rf
                            best_cf = c2
            out[r, c] = values[best_rf, best_cf]
    return out


def _nearest_columns_numpy(valid):
    h, w = valid.shape
    rows = np.arange(h, dtype=np.int64)[:, None]
    up = np.maximum.accumulate(np.where(valid, rows, -1), axis=0)
    dn = np.minimum.accumulate(np.where(valid, rows, h)[::-1], axis=0)[::-1]
    du = np.where(up >= 0, rows - up, _BIG)
    dd = np.where(dn < h, dn - rows, _BIG)
    take_dn = dd < du
    frow = np.where(take_dn, dn, up)
    fdist = np.where(take_dn, dd, du)
    return frow, np.where(frow >= 0, fdist, 0)


def nearest_fill_numpy(values, valid):
    h, w = values.shape
    out = values.copy()
    cell = np.flatnonzero(~valid)
    if cell.size == 0:
        return out
    frow, fdist = _nearest_columns_numpy(valid)
    has_src = frow >= 0
    src_d2 = np.where(has_src, fdist * fdist, _BIG).reshape(-1)
    src_at = np.where(
        has_src, frow * w + np.arange(w, dtype=np.int64), np.int64(h * w)
    ).reshape(-1)
    out_flat = out.reshape(-1)
    vals_flat = values.reshape(-1)
    col = cell % w
    best_d2 = src_d2[cell]
    best_at = src_at[cell]
    for k in range(1, w):
        k2 = np.int64(k) * np.int64(k)
        done = best_d2 < k2
        if done.any():
            out_flat[cell[done]] = vals_flat[best_at[done]]
            keep = ~done
            cell, col = cell[keep], col[keep]
            best_d2, best_at = best_d2[keep], best_at[keep]
            if cell.size == 0:
                return out
        for j, ok in ((cell - k, col >= k), (cell + k, col < w - k)):
            j = j.clip(0, h * w - 1)
            d2 = np.where(ok, src_d2[j], _BIG) + k2
            at = src_at[j]
            better = (d2 < best_d2) | ((d2 == best_d2) & (at < best_at))
            best_d2 = np.where(better, d2, best_d2)
            best_at = np.where(better, at, best_at)
    out_flat[cell] = vals_flat[best_at]
    return out


# ---------------------------------------------------------------------------
# binary morphology
# ---------------------------------------------------------------------------
# Erosion treats cells outside the raster as false (windows reaching past
# the border erode away); dilation clips the window at the border.


def _erode_square_src(mask, r):
    h, w = mask.shape
    tmp = np.zeros((h, w), np.bool_)
    out = np.zeros((h, w), np.bool_)
    for i in range(h):
        for j in range(r, w - r):
            v = True
            for jj in range(j - r, j + r + 1):
                if not mask[i, jj]:
                    v = False
                    break
            tmp[i, j] = v
    for j in range(w):
        for i in range(r, h - r):
            v = True
            for ii in range(i - r, i + r + 1):
                if not tmp[ii, j]:
                    v = False
                    break
            out[i, j] = v
    return out


def _dilate_square_src(mask, r):
    h, w = mask.shape
    tmp = np.zeros((h, w), np.bool_)
    out = np.zeros((h, w), np.bool_)
    for i in range(h):
        for j in range(w):
            lo = j - r if j - r > 0 else 0
            hi = j + r if j + r < w - 1 else w - 1
            v = False
            for jj in range(lo, hi + 1):
                if mask[i, jj]:
                    v = True
                    break
            tmp[i, j] = v
    for j in range(w):
        for i in range(h):
            lo = i - r if i - r > 0 else 0
            hi = i + r if i + r < h - 1 else h - 1
            v = False
            for ii in range(lo, hi + 1):
                if tmp[ii, j]:
                    v = True
                    break
            out[i, j] = v
    return out


def _erode_diamond_src(mask, radius):
    h, w = mask.shape
    cur = mask.copy()
    for _ in range(radius):
        nxt = np.zeros((h, w), np.bool_)
        for i in range(1, h - 1):
            for j in range(1, w - 1):
                nxt[i, j] = (
                    cur[i, j]
                    and cur[i - 1, j]
                    and cur[i + 1, j]
                    and cur[i, j - 1]
                    and cur[i, j + 1]
                )
        cur = nxt
    return cur


def _dilate_diamond_src(mask, radius):
    h, w = mask.shape
    cur = mask.copy()
    for _ in range(radius):
        nxt = np.zeros((h, w), np.bool_)
        for i in range(h):
            for j in range(w):
                v = cur[i, j]
                if not v and i > 0:
                    v = cur[i - 1, j]
                if not v and i < h - 1:
                    v = cur[i + 1, j]
                if not v and j > 0:
                    v = cur[i, j - 1]
                if not v and j < w - 1:
                    v = cur[i, j + 1]
                nxt[i, j] = v
        cur = nxt
    return cur


def erode_square_numpy(mask, r):
    out = mask.copy()
    for d in range(1, r + 1):
        out &= _shift2(mask, 0, d, False)
        out &= _shift2(mask, 0, -d, False)
    tmp = out.copy()
    for d in range(1, r + 1):
        out &= _shift2(tmp, d, 0, False)
        out &= _shift2(tmp, -d, 0, False)
    return out


def dilate_square_numpy(mask, r):
    out = mask.copy()
    for d in range(1, r + 1):
        out |= _shift2(mask, 0, d, False)
        out |= _shift2(mask, 0, -d, False)
    tmp = out.copy()
    for d in range(1, r + 1):
        out |= _shift2(tmp, d, 0, False)
        out |= _shift2(tmp, -d, 0, False)
    return out


def erode_diamond_numpy(mask, radius):
    cur = mask.copy()
    for _ in range(radius):
        cur = (
            cur
            & _shift2(cur, 1, 0, False)
            & _shift2(cur, -1, 0, False)
            & _shift2(cur, 0, 1, False)
            & _shift2(cur, 0, -1, False)
        )
    return cur


def dilate_diamond_numpy(mask, radius):
    cur = mask.copy()
    for _ in range(radius):
        cur = (
            cur
            | _shift2(cur, 1, 0, False)
            | _shift2(cur, -1, 0, False)
            | _shift2(cur, 0, 1, False)
            | _shift2(cur, 0, -1, False)
        )
    return cur


# ---------------------------------------------------------------------------
# connected-component labelling
# ---------------------------------------------------------------------------
# Output labels are 1..n in order of first encounter scanning row-major,
# which both paths reproduce exactly.
#
# The numpy path is run based (Wu, Otoo & Suzuki 2009).  Each row splits
# into runs of true cells, numbered in row-major order.  A run joins every
# run of the row above whose columns overlap it, widened by one column on
# each side for 8-connectivity; a binary search over the runs' row-major
# start and end keys finds those as one contiguous range.  Joins hook the
# larger root onto the smaller, then pointer jumping flattens every tree,
# and this repeats until no join links two roots.  Parents only ever point
# to smaller indices, so each root is the smallest run index in its
# component: the run holding the component's first cell in row-major order.
# Ranking the roots therefore gives the first-encounter labels.


def _uf_find_src(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _label_components_src(mask, eight, parent):
    h, w = mask.shape
    labels = np.zeros((h, w), np.int32)
    nxt = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            best = 0
            a = labels[i, j - 1] if j > 0 else 0
            b = labels[i - 1, j] if i > 0 else 0
            c = labels[i - 1, j - 1] if (eight and i > 0 and j > 0) else 0
            d = labels[i - 1, j + 1] if (eight and i > 0 and j < w - 1) else 0
            if a > 0:
                ra = _uf_find(parent, a)
                best = ra
            if b > 0:
                rb = _uf_find(parent, b)
                if best == 0 or rb < best:
                    best = rb
            if c > 0:
                rc = _uf_find(parent, c)
                if best == 0 or rc < best:
                    best = rc
            if d > 0:
                rd = _uf_find(parent, d)
                if best == 0 or rd < best:
                    best = rd
            if best == 0:
                nxt += 1
                parent[nxt] = nxt
                labels[i, j] = nxt
            else:
                labels[i, j] = best
                if a > 0:
                    parent[_uf_find(parent, a)] = best
                if b > 0:
                    parent[_uf_find(parent, b)] = best
                if c > 0:
                    parent[_uf_find(parent, c)] = best
                if d > 0:
                    parent[_uf_find(parent, d)] = best
    remap = np.zeros(nxt + 1, np.int32)
    out = np.zeros((h, w), np.int32)
    cnt = 0
    for i in range(h):
        for j in range(w):
            lab = labels[i, j]
            if lab > 0:
                root = _uf_find(parent, lab)
                if remap[root] == 0:
                    cnt += 1
                    remap[root] = cnt
                out[i, j] = remap[root]
    return out, cnt


def label_components_numpy(mask, eight):
    h, w = mask.shape
    out = np.zeros((h, w), np.int32)
    edges = np.zeros((h, w + 2), np.int8)
    edges[:, 1:-1] = mask
    step = np.diff(edges, axis=1)
    run_row, run_start = np.nonzero(step == 1)
    run_end = np.nonzero(step == -1)[1]
    n = run_start.size
    if n == 0:
        return out, 0
    # Runs of the row above that overlap [start - reach, end + reach).
    stride = w + 2
    reach = int(eight)
    above = (run_row - 1) * stride
    lo = np.searchsorted(run_row * stride + run_end, above + run_start - reach, "right")
    hi = np.searchsorted(run_row * stride + run_start, above + run_end + reach, "left")
    fan = hi - lo
    a = np.repeat(np.arange(n), fan)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(fan) - fan), fan)
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        join = ra != rb
        if not join.any():
            break
        a, b, ra, rb = a[join], b[join], ra[join], rb[join]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(n)
    labels = np.cumsum(is_root, dtype=np.int32)[parent]
    out[mask] = np.repeat(labels, run_end - run_start)
    return out, int(np.count_nonzero(is_root))


# ---------------------------------------------------------------------------
# windowed distinct-value count (surface roughness)
# ---------------------------------------------------------------------------
# Windows are clipped at the raster border; only in-bounds cells count.


def _distinct_count_src(vals, k):
    h, w = vals.shape
    r = k // 2
    out = np.zeros((h, w), np.int32)
    buf = np.empty(k * k, np.int64)
    for i in range(h):
        i0 = i - r if i - r > 0 else 0
        i1 = i + r + 1 if i + r + 1 < h else h
        for j in range(w):
            j0 = j - r if j - r > 0 else 0
            j1 = j + r + 1 if j + r + 1 < w else w
            cnt = 0
            for ii in range(i0, i1):
                for jj in range(j0, j1):
                    v = vals[ii, jj]
                    seen = False
                    for t in range(cnt):
                        if buf[t] == v:
                            seen = True
                            break
                    if not seen:
                        buf[cnt] = v
                        cnt += 1
            out[i, j] = cnt
    return out


def distinct_count_numpy(vals, k):
    h, w = vals.shape
    r = k // 2
    padded = np.full((h + 2 * r, w + 2 * r), _BIG)
    padded[r:r + h, r:r + w] = vals
    win = sliding_window_view(padded, (k, k))
    out = np.empty((h, w), np.int32)
    step = max(1, 4_000_000 // (w * k * k))
    for i0 in range(0, h, step):
        i1 = min(h, i0 + step)
        block = np.sort(win[i0:i1].reshape(i1 - i0, w, k * k), axis=-1)
        distinct = 1 + np.count_nonzero(np.diff(block, axis=-1), axis=-1)
        has_pad = block[..., -1] == _BIG
        out[i0:i1] = distinct - has_pad
    return out


# ---------------------------------------------------------------------------
# median over masked window (roof smoothing)
# ---------------------------------------------------------------------------


def _masked_median_src(vals, mask, k):
    h, w = vals.shape
    r = k // 2
    out = np.full((h, w), np.nan)
    buf = np.empty(k * k, np.float64)
    for i in range(h):
        i0 = i - r if i - r > 0 else 0
        i1 = i + r + 1 if i + r + 1 < h else h
        for j in range(w):
            if not mask[i, j]:
                continue
            j0 = j - r if j - r > 0 else 0
            j1 = j + r + 1 if j + r + 1 < w else w
            cnt = 0
            for ii in range(i0, i1):
                for jj in range(j0, j1):
                    if mask[ii, jj]:
                        v = vals[ii, jj]
                        t = cnt
                        while t > 0 and buf[t - 1] > v:
                            buf[t] = buf[t - 1]
                            t -= 1
                        buf[t] = v
                        cnt += 1
            if cnt % 2 == 1:
                out[i, j] = buf[cnt // 2]
            else:
                out[i, j] = (buf[cnt // 2 - 1] + buf[cnt // 2]) / 2.0
    return out


def masked_median_numpy(vals, mask, k):
    h, w = vals.shape
    r = k // 2
    pv = np.full((h + 2 * r, w + 2 * r), np.nan)
    pv[r:r + h, r:r + w] = vals
    pm = np.zeros((h + 2 * r, w + 2 * r), np.bool_)
    pm[r:r + h, r:r + w] = mask
    win_v = sliding_window_view(pv, (k, k))
    win_m = sliding_window_view(pm, (k, k))
    out = np.full((h, w), np.nan)
    ri, ci = np.nonzero(mask)
    step = max(1, 4_000_000 // (k * k))
    for s in range(0, ri.size, step):
        rs, cs = ri[s:s + step], ci[s:s + step]
        block = np.where(
            win_m[rs, cs], win_v[rs, cs], np.nan
        ).reshape(rs.size, k * k)
        out[rs, cs] = np.nanmedian(block, axis=1)
    return out


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

if HAS_NUMBA:
    _jit = njit(cache=True)
    rasterize_min_numba = _jit(_rasterize_min_src)
    _nearest_columns_numba = _jit(_nearest_columns_src)
    _nearest_fill_numba = _jit(_nearest_fill_src)
    erode_square_numba = _jit(_erode_square_src)
    dilate_square_numba = _jit(_dilate_square_src)
    erode_diamond_numba = _jit(_erode_diamond_src)
    dilate_diamond_numba = _jit(_dilate_diamond_src)
    _uf_find = _jit(_uf_find_src)
    _label_components_numba = _jit(_label_components_src)
    distinct_count_numba = _jit(_distinct_count_src)
    masked_median_numba = _jit(_masked_median_src)

    def nearest_fill_numba(values, valid):
        frow, fdist = _nearest_columns_numba(valid)
        return _nearest_fill_numba(values, valid, frow, fdist)

    def label_components_numba(mask, eight):
        parent = np.zeros(mask.size // 2 + 2, np.int32)
        return _label_components_numba(mask, eight, parent)

else:  # pragma: no cover - depends on environment
    rasterize_min_numba = None
    nearest_fill_numba = None
    erode_square_numba = None
    dilate_square_numba = None
    erode_diamond_numba = None
    dilate_diamond_numba = None
    label_components_numba = None
    distinct_count_numba = None
    masked_median_numba = None

if USE_NUMBA:
    rasterize_min = rasterize_min_numba
    nearest_fill = nearest_fill_numba
    erode_square = erode_square_numba
    dilate_square = dilate_square_numba
    erode_diamond = erode_diamond_numba
    dilate_diamond = dilate_diamond_numba
    label_components = label_components_numba
    distinct_count = distinct_count_numba
    masked_median = masked_median_numba
else:
    rasterize_min = rasterize_min_numpy
    nearest_fill = nearest_fill_numpy
    erode_square = erode_square_numpy
    dilate_square = dilate_square_numpy
    erode_diamond = erode_diamond_numpy
    dilate_diamond = dilate_diamond_numpy
    label_components = label_components_numpy
    distinct_count = distinct_count_numpy
    masked_median = masked_median_numpy
