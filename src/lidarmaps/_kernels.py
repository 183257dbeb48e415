"""Raster kernels: one vectorized numpy implementation per operation.

Every kernel is exact.  Its output is checked cell for cell against an
independent brute-force oracle in the test suite (tests/conftest.py).

Grid convention used throughout: arrays are (height, width) and row 0 is
the southernmost row.  Kernels work in cells; the cell rule that maps
ground coordinates to cells is GridSpec's (grid.py).
"""

import numpy as np

from .errors import GridTooLarge

_BIG = np.int64(2) ** 62
# Kernels that work block by block take about this many cells or values
# (512 kB of float64) at a time, so their scratch memory stays flat.
_BLOCK = 1 << 16


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
# Points come in as flat row-major cell indices of the window, with a mask
# of the points inside it; the indices and z values are copied only when
# some point falls outside.  Counts are one np.bincount over the flat
# indices and the minimum is a 1-D np.minimum.at, which numpy runs far
# faster than ufunc.at with a (row, col) tuple index.  Points are applied
# in input order either way, so the result is the same to the bit.


def rasterize_min(cells, zs, inside, height, width):
    if not inside.all():
        cells, zs = cells[inside], zs[inside]
    zmin = np.full(height * width, np.inf, np.float64)
    np.minimum.at(zmin, cells, zs)
    counts = np.bincount(cells, minlength=height * width).astype(np.int32)
    return zmin.reshape(height, width), counts.reshape(height, width)


# ---------------------------------------------------------------------------
# exact nearest-valid-cell fill
# ---------------------------------------------------------------------------
# Distances are Euclidean between cell centers; in cell units every squared
# distance d2 is an integer, and ties resolve to the source earliest in
# row-major order.  Both rules are one int64 key, d2 * n + the source's
# flat index (n = h * w cells): the smaller key is the nearer source, and
# of two equidistant ones the earlier.  Every key is below
# (h^2 + w^2 + 1) * n, and a shape is accepted only while that bound stays
# under the _BIG sentinel, up to 38,967 x 38,967 cells for a square grid;
# then _BIG plus any search step still fits in int64.
#
# Column pass: every cell gets the key of the nearest source in its own
# column; a valid cell is its own source at d2 = 0.  The void cells of a
# column form vertical runs, found with np.diff on the transposed mask as
# the labeller finds its runs.  A void cell's candidates are the valid
# cells just above and below its run; the smaller key wins, and a missing
# neighbour (or a column with no source at all) reads _BIG.  The pass runs
# over bands of about _BLOCK cells' worth of columns, so its run and
# per-void arrays are bounded by the band.
#
# Search: a void cell then looks at columns c - k and c + k for
# k = 1, 2, ...: the candidate there is that column's key plus k^2 * n,
# one take, one add and one np.minimum per direction.  Every source beyond
# column offset k is at least k^2 away, so once the best key is below
# k^2 * n no later column can win or tie, and the cell stops.  The void
# cells are searched _BLOCK at a time, as flat indices; each round writes
# the cells that met the stop rule to the output and compacts the rest, so
# a round costs the cells still searching rather than the whole grid.


def check_fill_shape(h: int, w: int) -> None:
    """Raise GridTooLarge unless every fill key of an h x w grid fits."""
    if (h * h + w * w + 1) * h * w >= int(_BIG):
        raise GridTooLarge(
            f"a {w} x {h} grid is too large for the exact nearest fill; "
            "map a smaller extent or a coarser cell size"
        )


def _column_keys(valid, key, c0):
    """Write the column-pass keys of the void cells of valid[:, c0:...]
    into the flat key grid, valid being a band of the grid's columns."""
    h, bw = valid.shape
    n = key.size
    w = n // h
    edges = np.zeros((bw, h + 2), np.int8)
    np.logical_not(valid.T, out=edges[:, 1:-1])
    step = np.diff(edges, axis=1)
    del edges
    col, start = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]
    del step
    col += c0
    length = end - start
    above = np.where(start > 0, (start - 1) * w + col, _BIG)
    below = np.where(end < h, end * w + col, _BIG)
    # One entry per void cell, run by run: its row, its key through the
    # source above, its key through the source below.
    row = np.arange(int(length.sum()), dtype=np.int64)
    row += np.repeat(start - (np.cumsum(length) - length), length)
    up = row - np.repeat(start - 1, length)
    up *= up
    up *= n
    up += np.repeat(above, length)
    dn = np.repeat(end, length)
    dn -= row
    dn *= dn
    dn *= n
    dn += np.repeat(below, length)
    np.minimum(up, dn, out=up)
    del dn
    np.minimum(up, _BIG, out=up)
    row *= w
    row += np.repeat(col, length)
    key[row] = up


def _search(cell, key, vals_flat, out_flat, w):
    """Fill the void cells `cell` (flat indices) from their best key."""
    n = key.size
    best = key[cell]
    col = cell % w
    for k in range(1, w):
        k2n = k * k * n
        done = best < k2n
        if done.any():
            out_flat[cell[done]] = vals_flat[best[done] % n]
            keep = ~done
            cell, col, best = cell[keep], col[keep], best[keep]
            if cell.size == 0:
                return
        for off in (-k, k):
            ok = col >= k if off < 0 else col < w - k
            cand = key.take(cell + off, mode="clip")
            cand += k2n
            np.minimum(best, cand, out=best, where=ok)
    out_flat[cell] = vals_flat[best % n]


def nearest_fill(values, valid):
    h, w = values.shape
    check_fill_shape(h, w)
    out = values.copy()
    voids = np.flatnonzero(~valid)
    if voids.size == 0:
        return out
    key = np.arange(h * w, dtype=np.int64)
    band = max(1, _BLOCK // h)
    for c0 in range(0, w, band):
        _column_keys(valid[:, c0:c0 + band], key, c0)
    for s in range(0, voids.size, _BLOCK):
        _search(voids[s:s + _BLOCK], key, values.reshape(-1), out.reshape(-1), w)
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
# gathered in blocks of about _BLOCK values, so the scratch memory is that
# block, its index and its sort, however many cells are asked for.


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


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer with halves away from zero, as a new
    float64 array."""
    out = np.array(x, np.float64)
    _round_half_away_in_place(out)
    return out


def _round_half_away_in_place(x: np.ndarray) -> None:
    """floor(x + 0.5) where x >= 0, else ceil(x - 0.5), written into x."""
    pos = x >= 0
    np.add(x, 0.5, out=x, where=pos)
    np.floor(x, out=x, where=pos)
    np.logical_not(pos, out=pos)
    np.subtract(x, 0.5, out=x, where=pos)
    np.ceil(x, out=x, where=pos)


# ---------------------------------------------------------------------------
# windowed distinct-value count (surface roughness)
# ---------------------------------------------------------------------------
# Heights are gathered as floats and rounded one block at a time, so no
# rounded copy of the grid is made.  Windows are clipped at the raster
# border; only in-bounds cells count.  The pad value +inf lies above every
# rounded height (the caller maps non-finite heights to -inf), so after the
# sort a window holds pad cells iff its last value is +inf, and they add
# exactly one distinct value, which is subtracted.


def distinct_count(heights, k, cells):
    """Distinct rounded heights in the border-clipped k x k window of each
    flat cell; `heights` is float64 and below +inf."""
    out = np.empty(cells.size, np.int32)
    for s, block in _window_blocks(heights, k, cells, np.inf):
        _round_half_away_in_place(block)
        block.sort(axis=1)
        distinct = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
        out[s:s + block.shape[0]] = distinct - (block[:, -1] == np.inf)
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
