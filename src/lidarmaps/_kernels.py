"""Raster kernels: one vectorized numpy implementation per operation.

Every kernel is exact.  Its output is checked cell for cell against an
independent brute-force oracle in the test suite (tests/conftest.py).

Grid convention used throughout: arrays are (height, width) and row 0 is
the southernmost row.  Kernels work in cells; the cell rule that maps
ground coordinates to cells is GridSpec's (grid.py).
"""

import numpy as np

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
# Points come in as window-relative (row, col) cells from GridSpec.cell_of.
# Each in-bounds point's cell is computed once as a flat index
# row * width + col.  Counts are one np.bincount over those indices and the
# minimum is a 1-D np.minimum.at, which numpy runs far faster than ufunc.at
# with a (row, col) tuple index.  Points are applied in input order either
# way, so the result is the same to the bit.


def rasterize_min(rows, cols, zs, height, width):
    ok = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    flat = rows[ok] * width + cols[ok]
    zmin = np.full(height * width, np.inf, np.float64)
    np.minimum.at(zmin, flat, zs[ok])
    counts = np.bincount(flat, minlength=height * width).astype(np.int32)
    return (
        zmin.reshape(height, width),
        counts.reshape(height, width),
        int(rows.shape[0] - np.count_nonzero(ok)),
    )


# ---------------------------------------------------------------------------
# exact nearest-valid-cell fill
# ---------------------------------------------------------------------------
# Distances are Euclidean between cell centers; in cell units every squared
# distance is an integer, so the search compares exact (d2, row, col) keys
# and ties resolve to the source earliest in row-major order.
#
# The fill first finds, per column, the nearest source row to every cell
# (the column pass).  A void cell then looks at columns c - k and c + k for
# k = 0, 1, 2, ...: the candidate there is that column's nearest source, at
# d2 = column distance^2 + k^2.  Every source beyond column offset k is at
# least k^2 away, so once k^2 > best_d2 no later column can win or tie, and
# the cell stops.  The active arrays hold only the void cells, as flat
# indices; each round writes the cells that met the stop rule to the
# output and compacts the rest, so a round costs the cells still searching
# rather than the whole grid.  The (row, col) part of the key is compared
# as the source's flat index, which orders the same.


def _nearest_columns(valid):
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


def nearest_fill(values, valid):
    h, w = values.shape
    out = values.copy()
    cell = np.flatnonzero(~valid)
    if cell.size == 0:
        return out
    frow, fdist = _nearest_columns(valid)
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
# the border erode away); dilation clips the window at the border.  One
# body per footprint serves both: `op` is np.logical_and to erode and
# np.logical_or to dilate, applied in place.  The square is a row pass then
# a column pass over its result; the diamond is `radius` steps of the
# 4-neighbour cross.


def morph_square(mask, r, op):
    out = mask.copy()
    for d in range(1, r + 1):
        op(out, _shift2(mask, 0, d, False), out=out)
        op(out, _shift2(mask, 0, -d, False), out=out)
    tmp = out.copy()
    for d in range(1, r + 1):
        op(out, _shift2(tmp, d, 0, False), out=out)
        op(out, _shift2(tmp, -d, 0, False), out=out)
    return out


def morph_diamond(mask, radius, op):
    cur = mask.copy()
    for _ in range(radius):
        prev = cur.copy()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            op(cur, _shift2(prev, di, dj, False), out=cur)
    return cur


# ---------------------------------------------------------------------------
# connected-component labelling
# ---------------------------------------------------------------------------
# Output labels are 1..n in order of first encounter scanning row-major.
#
# The labelling is run based (Wu, Otoo & Suzuki 2009).  Each row splits
# into runs of true cells, numbered in row-major order.  A run joins every
# run of the row above whose columns overlap it, widened by one column on
# each side for 8-connectivity; a binary search over the runs' row-major
# start and end keys finds those as one contiguous range.  Joins hook the
# larger root onto the smaller, then pointer jumping flattens every tree,
# and this repeats until no join links two roots.  Parents only ever point
# to smaller indices, so each root is the smallest run index in its
# component: the run holding the component's first cell in row-major order.
# Ranking the roots therefore gives the first-encounter labels.


def label_components(mask, eight):
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
# window gather (roughness and roof median)
# ---------------------------------------------------------------------------
# Both windowed kernels compute only the cells a caller asks for, given as
# flat row-major indices `cells`.  The grid is padded once by r = k // 2
# with a fill value; the k x k window of cell (i, j) then starts at flat
# index i * (w + 2r) + j of the padded grid, and its values are that base
# plus the fixed offsets di * (w + 2r) + dj, 0 <= di, dj < k.  Cells are
# taken in blocks of about _BLOCK gathered values, so memory stays flat
# however many cells are asked for.

_BLOCK = 4_000_000


def _window_blocks(vals, k, cells, fill):
    """Yield (start, windows): the k*k window values of cells[start:...]."""
    h, w = vals.shape
    r = k // 2
    stride = w + 2 * r
    padded = np.full((h + 2 * r, stride), fill, vals.dtype)
    padded[r:r + h, r:r + w] = vals
    flat = padded.reshape(-1)
    di, dj = np.divmod(np.arange(k * k, dtype=np.int64), k)
    offsets = di * stride + dj
    step = max(1, _BLOCK // (k * k))
    for s in range(0, cells.size, step):
        row, col = np.divmod(cells[s:s + step], w)
        yield s, flat[(row * stride + col)[:, None] + offsets]


# ---------------------------------------------------------------------------
# windowed distinct-value count (surface roughness)
# ---------------------------------------------------------------------------
# Windows are clipped at the raster border; only in-bounds cells count.
# The pad value _BIG lies above every rounded height, so after the sort a
# window holds pad cells iff its last value is _BIG, and they add exactly
# one distinct value, which is subtracted.


def distinct_count(vals, k, cells):
    """Distinct values in the border-clipped k x k window of each flat cell."""
    out = np.empty(cells.size, np.int32)
    for s, block in _window_blocks(vals, k, cells, _BIG):
        block.sort(axis=1)
        distinct = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
        out[s:s + block.shape[0]] = distinct - (block[:, -1] == _BIG)
    return out


# ---------------------------------------------------------------------------
# median over masked window (roof smoothing)
# ---------------------------------------------------------------------------
# Cells outside the mask read as NaN, as does the pad, so nanmedian sees
# exactly the masked in-bounds cells of each window.  Only mask cells are
# computed; every other cell is NaN.


def masked_median(vals, mask, k):
    h, w = vals.shape
    out = np.full(h * w, np.nan)
    cells = np.flatnonzero(mask)
    for s, block in _window_blocks(np.where(mask, vals, np.nan), k, cells, np.nan):
        out[cells[s:s + block.shape[0]]] = np.nanmedian(block, axis=1)
    return out.reshape(h, w)
