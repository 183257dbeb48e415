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
# Kernels that work block by block take about this many cells, values or
# points (512 kB of float64) at a time, so their scratch memory stays flat.
_BLOCK = 1 << 16


def _runs(mask):
    """(line, start, end) of every run of true cells along the rows of a
    2-D mask, in row-major order: row `line`, columns start..end-1."""
    edges = np.zeros((mask.shape[0], mask.shape[1] + 2), np.int8)
    edges[:, 1:-1] = mask
    step = np.diff(edges, axis=1)
    del edges
    line, start = np.nonzero(step == 1)
    return line, start, np.nonzero(step == -1)[1]


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
# Column pass: every void cell gets the nearest source in its own column,
# as the signed row offset d to it (its row minus the source's), and a
# column with no source at all gets d = h, past every real offset.  The
# offset is written into the void cell of the output itself, exact as a
# float64, so the pass keeps no grid of its own.  The void cells of a
# column form vertical runs, found by the labeller's run finder _runs on
# the transposed void mask.  A void cell's candidates are the valid cells
# just above and below its run: the upper one wins down to the run's
# middle, ties included, as it is the earlier in row-major order.  The
# pass runs over bands of about _BLOCK cells' worth of columns, so its run
# and per-void arrays are bounded by the band.
#
# Search: a void cell looks only along its own row, so the rows are
# searched in bands of about _BLOCK cells (at least one row), and a band
# needs only its own keys.  Those are made, before any cell of the band is
# written, from the offsets the column pass left in its void cells: the
# key of a cell d rows from its column source is d^2 * n plus that
# source's flat index, _BIG for d = h, and a valid cell's key is its own
# flat index.  A void cell then looks at columns c - k and c + k for
# k = 1, 2, ...: the candidate there is that column's key plus k^2 * n,
# one take, one add and one np.minimum per direction.  Every source beyond
# column offset k is at least k^2 away, so once the best key is below
# k^2 * n no later column can win or tie, and the cell stops.  Each round
# writes the cells that met the stop rule to the output and compacts the
# rest, so a round costs the cells still searching rather than the whole
# band.  Only void cells are written and only sources read, so the output
# is the one full-grid array: the scratch memory is one band of columns
# or of rows, whatever the grid's size.


def check_fill_shape(h: int, w: int) -> None:
    """Raise GridTooLarge unless every fill key of an h x w grid fits."""
    if (h * h + w * w + 1) * h * w >= int(_BIG):
        raise GridTooLarge(
            f"a {w} x {h} grid is too large for the exact nearest fill; "
            "map a smaller extent or a coarser cell size"
        )


def _column_sources(valid, out, c0):
    """Write into each void cell of out[:, c0:...] its row minus the row of
    the nearest source in its column, or h if the column has none, valid
    being that band of columns."""
    h, w = out.shape
    col, start, end = _runs(~valid.T)
    col += c0
    length = end - start
    # One entry per void cell, run by run: its place in its run.
    pos = np.arange(int(length.sum()), dtype=np.int64)
    pos -= np.repeat(np.cumsum(length) - length, length)
    # The last place of each run that takes the source above: its middle,
    # none when the run starts at row 0, every place when it ends at h.
    upper = np.where(end == h, h, np.where(start == 0, -1, (length - 1) // 2))
    d = np.where(pos <= np.repeat(upper, length), pos + 1, pos - np.repeat(length, length))
    pos *= w
    pos += np.repeat(start * w + col, length)
    out.reshape(-1)[pos] = d
    # A run of every row is a column with no source.
    out[:, col[length == h]] = h


def _search(out, valid, r0):
    """Fill the void cells of out[r0:...] from their nearest source,
    valid being that band of rows."""
    h, w = out.shape
    n = h * w
    flat = out.reshape(-1)
    base = r0 * w
    band = flat[base:base + valid.size]
    cell = np.flatnonzero(~valid)
    if cell.size == 0:
        return
    # A void cell's key through its column source, d rows away: d^2 * n
    # plus the source's flat index, cell + base - d * w.
    d = band[cell].astype(np.int64)
    best = d * n
    best -= w
    best *= d
    best += cell
    best += base
    np.copyto(best, _BIG, where=d == h)
    del d
    key = np.arange(base, base + valid.size, dtype=np.int64)
    key[cell] = best
    col = cell % w
    for k in range(1, w):
        k2n = k * k * n
        done = best < k2n
        if done.any():
            band[cell[done]] = flat[best[done] % n]
            keep = ~done
            cell, col, best = cell[keep], col[keep], best[keep]
            if cell.size == 0:
                return
        for off in (-k, k):
            ok = col >= k if off < 0 else col < w - k
            cand = key.take(cell + off, mode="clip")
            cand += k2n
            np.minimum(best, cand, out=best, where=ok)
    band[cell] = flat[best % n]


def nearest_fill(values, valid):
    h, w = values.shape
    check_fill_shape(h, w)
    out = np.array(values, np.float64, order="C")
    cols = max(1, _BLOCK // h)
    for c0 in range(0, w, cols):
        _column_sources(valid[:, c0:c0 + cols], out, c0)
    rows = max(1, _BLOCK // w)
    for r0 in range(0, h, rows):
        _search(out, valid[r0:r0 + rows], r0)
    return out


# ---------------------------------------------------------------------------
# binary morphology
# ---------------------------------------------------------------------------
# Erosion treats cells outside the raster as false (windows reaching past
# the border erode away); dilation clips the window at the border.  One
# body per footprint serves both: `op` is np.logical_and to erode and
# np.logical_or to dilate, applied in place on array slices; a cell with
# no neighbour at a step meets False, so no branch on `op` is needed.  The
# square also counts: with np.add on a 0/1 integer grid, False adds 0, so
# it gives the window sum clipped at the border (the water tally).  The
# square is a row pass then a column pass over its result; the diamond is
# `radius` steps of the 4-neighbour cross.


def _meet(out, src, d, op):
    """op each cell of `out`, in place, with the cells of `src` d columns
    to its left and right; a cell with no such neighbour meets False."""
    op(out[:, d:], src[:, :-d], out=out[:, d:])
    op(out[:, :-d], src[:, d:], out=out[:, :-d])
    op(out[:, :d], False, out=out[:, :d])
    op(out[:, -d:], False, out=out[:, -d:])


def morph_square(mask, r, op):
    rows = mask.copy()
    for d in range(1, r + 1):
        _meet(rows, mask, d, op)
    out = rows.copy()
    for d in range(1, r + 1):
        _meet(out.T, rows.T, d, op)
    return out


def morph_diamond(mask, radius, op):
    cur, prev = mask.copy(), np.empty_like(mask)
    for _ in range(radius):
        np.copyto(prev, cur)
        _meet(cur, prev, 1, op)
        _meet(cur.T, prev.T, 1, op)
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
    run_row, run_start, run_end = _runs(mask)
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
# ascending flat row-major indices `cells`.  They run over bands of rows,
# about _BLOCK cells (at least one row) each.  A band copies only the rows
# its windows touch, its own rows and r = k // 2 more on each side, into a
# slab padded by r on every side with a fill value; the k x k window of
# cell (i, j) then starts at flat index (i - i0) * (w + 2r) + j of the
# slab of the band starting at row i0, and its values are that base plus
# the fixed offsets di * (w + 2r) + dj, 0 <= di, dj < k.  The band's
# shift, -i0 * (w + 2r), is folded into the k * k offsets rather than
# added per cell.  A band's cells are gathered in blocks of about _BLOCK
# values, so the scratch memory is the slab, one block, its index and its
# sort, however many cells are asked for.


def _window_blocks(vals, k, cells, fill, mask=None):
    """Yield (start, windows): the k*k window values of cells[start:...];
    the cells outside `mask`, if one is given, read as `fill` too."""
    h, w = vals.shape
    r = k // 2
    stride = w + 2 * r
    di, dj = np.divmod(np.arange(k * k, dtype=np.int64), k)
    offsets = di * stride + dj
    step = max(1, _BLOCK // (k * k))
    rows = max(1, _BLOCK // w)
    edges = np.searchsorted(cells, np.arange(0, h + rows, rows) * w)
    for i0, start, stop in zip(range(0, h, rows), edges[:-1], edges[1:]):
        if start == stop:
            continue
        top, bottom = max(i0 - r, 0), min(i0 + rows + r, h)
        slab = np.full((rows + 2 * r, stride), fill, vals.dtype)
        inner = slab[top - i0 + r:bottom - i0 + r, r:r + w]
        inner[...] = vals[top:bottom]
        if mask is not None:
            np.copyto(inner, fill, where=~mask[top:bottom])
        flat = slab.reshape(-1)
        shifted = offsets - i0 * stride
        for s in range(start, stop, step):
            row, col = np.divmod(cells[s:min(s + step, stop)], w)
            row *= stride
            row += col
            yield s, flat[row[:, None] + shifted]


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
    of the ascending flat `cells`; `heights` is float64 and below +inf."""
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
# exactly the masked in-bounds cells of each window; the mask is applied
# in each slab, so no masked copy of the grid is made.  Only mask cells
# are computed; every other cell is NaN.


def masked_median(vals, mask, k):
    h, w = vals.shape
    out = np.full(h * w, np.nan)
    cells = np.flatnonzero(mask)
    for s, block in _window_blocks(vals, k, cells, np.nan, mask):
        out[cells[s:s + block.shape[0]]] = np.nanmedian(block, axis=1)
    return out.reshape(h, w)
