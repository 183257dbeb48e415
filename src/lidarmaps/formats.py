"""ESRI ASCII grid reading and writing.

Writing is byte-deterministic: the same raster always serializes to the
same bytes, so outputs can be diffed across runs and platforms.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, IoFailure, MalformedHeader, ShapeMismatch
from .grid import DEFAULT_NODATA, GridSpec, Raster

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_BLOCK_CELLS = 1 << 14
# A millimetre key table may have an entry per cell of the grid, and at
# least this many, so that small grids take the key path too.
_KEY_TABLE_MIN = 1 << 16
# _sorted_distinct sorts a grid in this many blocks of rows.
_DISTINCT_BLOCKS = 8


def _fmt_num(v: float) -> str:
    """Integral values print bare; others shortest-round-trip (no locale)."""
    if math.isfinite(v) and v == int(v):
        return str(int(v))
    return repr(float(v))


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending 1-D array."""
    first = np.empty(ordered.size, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _sorted_distinct(grid: np.ndarray, key: Callable = np.asarray) -> np.ndarray:
    """The distinct values of key(grid), ascending, with no copy of the
    whole grid: each of _DISTINCT_BLOCKS blocks of rows is sorted and
    reduced to its distinct values, and these are merged by one more
    sort.  The merge holds each value once per block it appears in, so
    it is small unless most cells are distinct."""
    rows = -(-grid.shape[0] // _DISTINCT_BLOCKS)
    runs = [
        _distinct(np.sort(key(grid[r0:r0 + rows]), axis=None))
        for r0 in range(0, grid.shape[0], rows)
    ]
    if len(runs) == 1:
        return runs[0]
    joined = np.concatenate(runs)
    # The runs go before the sort: at most two copies of them are held.
    del runs
    joined.sort()
    return _distinct(joined)


def _joined(values, fmt: str) -> Iterator[str]:
    """The texts of `values` under the %-format fmt, joined by single
    spaces, _BLOCK_CELLS values per string."""
    for i in range(0, len(values), _BLOCK_CELLS):
        block = values[i:i + _BLOCK_CELLS]
        block = block.tolist() if isinstance(block, np.ndarray) else block
        yield " ".join([fmt] * len(block)) % tuple(block)


def _byte_table(count: int, blocks: Iterable[str]) -> np.ndarray:
    """The byte table of `count` texts, given in order as blocks of texts
    joined by single spaces: row i is text i and its space, NUL-padded to
    1, 2, 4 or a multiple of 8 bytes and viewed as unsigned words, so a
    cell's text is gathered as one to a few words.  The table is filled
    one block at a time and widened when a block holds a longer text."""
    table = np.zeros((count, 1), np.uint8)
    row = 0
    for texts in blocks:
        chars = np.frombuffer((texts + " ").encode("ascii"), np.uint8)
        ends = np.flatnonzero(chars == ord(" "))
        starts = np.concatenate([[0], ends[:-1] + 1])
        lengths = ends - starts + 1
        size = int(lengths.max())
        if size > table.shape[1]:
            width = 1 << (size - 1).bit_length() if size <= 8 else -(-size // 8) * 8
            table = np.pad(table, ((0, 0), (0, width - table.shape[1])))
        rows = table[row:row + ends.size]
        for c in range(size):
            at = np.flatnonzero(lengths > c)
            rows[at, c] = chars[starts[at] + c]
        row += ends.size
    words = table.view(f"u{min(table.shape[1], 8)}")
    return words[:, 0] if table.shape[1] <= 8 else words


def _millimetre_keys(v: np.ndarray) -> np.ndarray:
    """2·rint(1000·v) + signbit(v) as float64: values that print alike
    under %.3f mostly share a key, and 0.0 and -0.0 do not."""
    key = np.multiply(v, 1000.0, dtype=np.float64)
    np.rint(key, out=key)
    key *= 2
    key += np.signbit(v)
    return key


def _millimetre_index(distinct: np.ndarray, words: np.ndarray, cells: int) -> Callable | None:
    """index_of for a float grid by table lookup of each cell's millimetre
    key, or None when the table would not be exact or not small.

    `distinct` holds the grid's distinct values and words their texts.
    The table maps each key to the row of a value with that key; it is
    used only if all values that share a key have the same text, so the
    row found is the cell's own text.  NaN, inf and -inf take the three
    entries after the finite keys.  The key span is found, and the table
    filled and checked, _BLOCK_CELLS values at a time.
    """
    lo, hi, special = np.inf, -np.inf, False
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, distinct.size, _BLOCK_CELLS):
            block = distinct[i:i + _BLOCK_CELLS]
            keys = _millimetre_keys(block[np.isfinite(block)])
            special |= keys.size < block.size
            lo, hi = keys.min(initial=lo), keys.max(initial=hi)
        if lo > hi:  # no finite value
            lo = hi = 0.0
        span = hi - lo + 1
    if not span + 3 <= max(cells, _KEY_TABLE_MIN):
        return None
    span = int(span)

    def slots(key):
        key -= lo
        if special:
            np.nan_to_num(key, copy=False, nan=span, posinf=span + 1, neginf=span + 2)
        return key.astype(np.intp)

    # Filled, then checked, one block of values at a time in value order,
    # so the last value written for a key is the one the table keeps.
    table = np.zeros(span + 3, np.min_scalar_type(distinct.size))
    blocks = range(0, distinct.size, _BLOCK_CELLS)
    for i in blocks:
        at = slots(_millimetre_keys(distinct[i:i + _BLOCK_CELLS]))
        table[at] = np.arange(i, i + at.size)
    for i in blocks:
        at = slots(_millimetre_keys(distinct[i:i + _BLOCK_CELLS]))
        if not np.array_equal(words[table[at]], words[i:i + _BLOCK_CELLS]):
            return None
    return lambda block: table[slots(_millimetre_keys(block))]


def _cell_words(vals: np.ndarray, sentinel: str) -> tuple[np.ndarray, Callable]:
    """Return (words, index_of): for any block of rows of vals, the text
    of its cell (i, j) is row index_of(block)[i, j] of the byte table
    words (see _byte_table).

    Each distinct value is formatted once.  Booleans and integers index
    the table by value; floats take their row from a millimetre key table
    when it is exact and small (_millimetre_index).  Otherwise, for
    integers whose range is wider than the grid has cells and for floats,
    the row is found by np.searchsorted in the sorted distinct keys, so no
    full-size argsort or inverse index is made.  Floats are keyed there by
    their float64 bit patterns, so 0.0 and -0.0 keep their own text and
    every NaN gets the sentinel.
    """
    if vals.dtype == bool:
        return _byte_table(2, ["0 1"]), lambda block: block.view(np.uint8)
    if np.issubdtype(vals.dtype, np.integer):
        lo, hi = vals.min(), vals.max()
        if int(hi) - int(lo) < vals.size:
            # intp arithmetic wraps, so the offset is exact for any dtype.
            values = range(int(lo), int(hi) + 1)
            words = _byte_table(len(values), _joined(values, "%d"))
            return words, lambda block: np.subtract(block, lo, dtype=np.intp)
        distinct = _sorted_distinct(vals)
        words = _byte_table(distinct.size, _joined(distinct, "%d"))
        return words, lambda block: np.searchsorted(distinct, block)

    def bits(block):
        return np.asarray(block, np.float64).view(np.int64)

    distinct = _sorted_distinct(vals, bits)
    floats = distinct.view(np.float64)
    # %.3f prints every NaN, signed or not, as "nan" and no other value
    # contains it, so one replace writes the sentinel; neither a value nor
    # the sentinel contains a space, so the spaces part one text per value.
    texts = (block.replace("nan", sentinel) for block in _joined(floats, "%.3f"))
    words = _byte_table(floats.size, texts)
    index_of = _millimetre_index(floats, words, vals.size)
    return words, index_of or (lambda block: np.searchsorted(distinct, bits(block)))


def write_ascii_grid(path: str, raster: Raster) -> None:
    """Serialize to the plain-text grid format, north row first.

    Float cells print as %.3f with NaN replaced by the nodata sentinel;
    boolean cells print as 0/1; integer cells print as-is.  Line endings
    are "\\n" regardless of platform.  Each distinct value is formatted
    once into a fixed-width byte table, and every cell takes its text by
    index, so formatting costs follow the distinct values, not the cells.
    The body is written _BLOCK_CELLS cells at a time: a block gathers its
    cells' rows of the table, turns the space after its last column into
    a newline, drops the NUL padding and is written as bytes, so the text
    in memory is one block's, not the file's.
    """
    spec = raster.spec
    sentinel = _fmt_num(raster.nodata)
    header = (
        f"ncols {spec.width}\n"
        f"nrows {spec.height}\n"
        f"xllcorner {_fmt_num(spec.origin_x)}\n"
        f"yllcorner {_fmt_num(spec.origin_y)}\n"
        f"cellsize {_fmt_num(spec.gsd)}\n"
        f"NODATA_value {sentinel}\n"
    )
    vals = raster.values[::-1]
    words, index_of = _cell_words(vals, sentinel)
    padded = not words.view(np.uint8).all()
    rows = max(1, _BLOCK_CELLS // spec.width)
    try:
        with open(path, "wb") as f:
            f.write(header.encode("ascii"))
            for r0 in range(0, spec.height, rows):
                cells = np.take(words, index_of(vals[r0:r0 + rows]), axis=0)
                text = cells.view(np.uint8).reshape(cells.shape[0], spec.width, -1)
                last = text[:, -1]
                last[last == ord(" ")] = ord("\n")
                f.write(text.tobytes().translate(None, b"\0") if padded else text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_report(out_dir: str, name: str, lines: list[str]) -> None:
    """Write a text report into out_dir (created if missing), one "\n"
    ending per line; any OSError becomes IoFailure."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _parses_as_float(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def read_ascii_grid(path: str) -> Raster:
    """Parse a grid file back into a Raster of float64 values.

    Header keys are case-insensitive; NODATA_value is optional and
    defaults to -9999.  The body is parsed by one np.fromstring as a flat
    run of whitespace-separated numbers, so its line wrapping is free.
    Cells equal to the sentinel come back as NaN.
    """
    header: dict[str, float] = {}
    try:
        with open(path, "r", encoding="ascii") as f:
            mark = 0
            for i, line in enumerate(iter(f.readline, ""), 1):
                parts = line.split()
                # A header line is a key and a value; a body row, even one
                # of two cells, starts with a number.
                if len(parts) != 2 or _parses_as_float(parts[0]):
                    # Put the body's first line back: a join would copy the body.
                    f.seek(mark)
                    break
                key = parts[0].lower()
                if key not in _HEADER_KEYS + ("nodata_value",):
                    raise MalformedHeader(f"{path}: line {i}: unknown header key {parts[0]!r}")
                try:
                    header[key] = float(parts[1])
                except ValueError as exc:
                    raise MalformedHeader(f"{path}: bad header line {i}: {line.rstrip()!r}") from exc
                mark = f.tell()
            body = f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not ASCII text: {exc}") from exc
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MalformedHeader(f"{path}: missing header keys {missing}")
    # An integral ncols/nrows becomes an int; GridSpec rejects anything else.
    width, height = (int(v) if v.is_integer() else v for v in (header["ncols"], header["nrows"]))
    try:
        spec = GridSpec(header["xllcorner"], header["yllcorner"], header["cellsize"], width, height)
    except ConfigError as exc:
        raise MalformedHeader(f"{path}: bad grid header: {exc}") from exc
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    try:
        # numpy releases that only warn on a token they cannot parse would
        # return the cells before it; a blank body would read as one -1.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            vals = np.empty(0) if body.isspace() else np.fromstring(body, sep=" ")
    except (ValueError, DeprecationWarning) as exc:
        raise MalformedHeader(f"{path}: non-numeric cell data") from exc
    del body
    if vals.size != width * height:
        raise ShapeMismatch(f"{path}: expected {width * height} cells, found {vals.size}")
    vals = vals.reshape(height, width)[::-1].copy()
    vals[vals == nodata] = np.nan
    return Raster(spec, vals, nodata=nodata)
