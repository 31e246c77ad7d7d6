"""CSV ingestion, column parsing, and the typed dataset container.

A CSV file is read as bytes once, and no Python code runs per cell where
the bytes allow it. A file without quotes, with LF or CRLF line ends, no
blank line and the header's comma count on every line is split at its
separators with numpy, and its table keeps the file's bytes and each
cell's byte offsets; a screen over the bytes (a cell's length and its first
and last byte) finds the missing tokens, and only cells with whitespace or
non-ASCII bytes at an edge are decoded for the exact test. Every other file
goes through `csv.reader` row by row, and both give the same table.

Each column is typed as a whole by `parse_column`: integer, float,
datetime (fixed format list), then category, or only the kind a role hint
names. Whether a column's cells are finite numbers, their values and
whether `int` reads them all are decided once, by `_Text.numbers`, for
typing, for the numeric and epoch recipes and for a regression target. It
reads the cells' bytes with the compiled kernel's `parse_numbers` in one
pass (Clinger's exact fast path, so the bits are Python's `float`), and
the few cells outside its exact range with `float` and `int`; a column with
a cell outside its grammar (padding, `1_000`, `inf`, other digits), or a
host without a compiler, is converted in Python to the same bits. A
column's `str` cells are made only when needed: for a category's distinct
values, for a column the kernel cannot read and for date cells that need
`strptime`, and they are stripped at most once. A datetime format is given
up as soon as more cells fail than the 99% threshold allows, so a text
column costs a few dozen trial parses per format, not one per cell. Cells
written in a format's zero-padded ASCII layout are parsed together from
their bytes with numpy; every other cell falls back to `strptime`, so each
cell gets the value a per-cell `strptime` would give.
Category codes come from one sorted dictionary per column: the kernel's
`code_cells` gives each cell the id of its bytes, and only the distinct
values become `str` to be sorted. Constant columns are dropped. Datetime
columns are expanded into calendar parts by integer calendar arithmetic and
excluded from modeling themselves.

A raw table predicts as the dataset built from it: `parse_features` parses
its cells into the columns `build_dataset` gives, and `conform` codes any
such dataset as the training reference does.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .encoders import lookup_sorted
from .errors import DataError
from .gbm import native
from .metrics import MetricSpec, default_metric

ROLE_KINDS = ("numeric", "category", "datetime", "target", "drop")
TASK_KINDS = ("binary", "multiclass", "regression")

MISSING_TOKENS = frozenset({"", "na", "nan", "null", "none"})

# Trial order for datetime detection. A column is datetime only if at least
# 99% of its non-missing cells parse under a single format.
DATETIME_FORMATS = (
    "%Y-%m-%d",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%Y/%m/%d",
    "%d.%m.%Y",
    "%m/%d/%Y",
)
EPOCH_FORMAT = "epoch_seconds"
EPOCH_RANGE = (10 ** 8, 10 ** 11)
DATETIME_PARSE_THRESHOLD = 0.99

DATETIME_PARTS = ("year", "month", "day", "weekday", "hour")

# Conventional default fold count: the preset's CV schemes, its typing folds,
# the learners' target-encoding folds where the CV scheme has none and the
# small-class warning at build time (make_folds does the fallback).
DEFAULT_K = 5


class RawTable:
    """A parsed CSV: header plus each column's cells as text, missing cells
    as None.

    A column is given either as its text cells or as a `_FileColumn`: the
    bytes of a file `read_csv` split in one pass and where the column's
    cells sit in them. The text cells of such a column are made the first
    time `column` or `columns` asks for them; parsing reads its bytes
    (`cells`), so a numeric column's cells never become `str` objects.
    """

    def __init__(self, column_names: tuple[str, ...], columns, n_rows: int) -> None:
        self.column_names = tuple(column_names)
        self._cells = tuple(columns)
        self.n_rows = n_rows

    @property
    def columns(self) -> tuple[tuple, ...]:
        return tuple(map(_strings, self._cells))

    def column(self, name: str) -> tuple:
        return _strings(self.cells(name))

    def cells(self, name: str):
        """Column `name` as parsing takes it: its `_FileColumn` if it has one,
        else its text cells."""
        return self._cells[self.column_names.index(name)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawTable):
            return NotImplemented
        return ((self.column_names, self.n_rows, self.columns)
                == (other.column_names, other.n_rows, other.columns))

    def __repr__(self) -> str:
        return f"RawTable({self.column_names!r}, {self.columns!r}, {self.n_rows!r})"


@dataclass(frozen=True)
class Task:
    kind: str
    n_classes: int = 0
    metric: MetricSpec | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.metric is None:
            object.__setattr__(self, "metric", default_metric(self.kind))
        if not self.metric.valid_for(self.kind):
            raise DataError(f"metric {self.metric.name!r} is not valid for {self.kind} tasks")

    @property
    def encoding_classes(self) -> int:
        """The `n_classes` of this task's target encodings: one indicator row
        per class for multiclass, else 0 (the one target row is y itself)."""
        return self.n_classes if self.kind == "multiclass" else 0


@dataclass(frozen=True)
class Column:
    """One typed feature column.

    kind 'numeric':  float64 values, NaN marks missing.
    kind 'category': int32 dense codes 0..card-1, -1 marks missing/unseen;
                     `dictionary` holds the observed training values (strings
                     for text columns, float64 for numeric-origin categories).
    kind 'datetime': float64 epoch seconds, NaN marks missing (kept only for
                     bookkeeping; modeling uses the expanded parts).
    """

    name: str
    kind: str
    values: np.ndarray
    dictionary: np.ndarray | None = None
    # True when the source cells were float literals with a fractional part.
    from_float_literals: bool = False


@dataclass
class DatasetMeta:
    n_rows: int
    warnings: list[str] = field(default_factory=list)


@dataclass
class Dataset:
    """Immutable typed table: modeling columns, target, task, metadata.

    ``columns`` hold the modeling features (numeric and category) and say how
    each is coded. ``schema`` holds each source column's parse recipe, and
    ``{"source": name}`` for a datetime part. A dropped column appears in
    neither; a raw datetime column has a schema entry and no column.
    """

    columns: dict[str, Column]
    target: np.ndarray
    task: Task
    meta: DatasetMeta
    schema: dict[str, dict] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.meta.n_rows

    def feature_names(self) -> list[str]:
        return list(self.columns.keys())

    def numeric_feature_names(self) -> list[str]:
        return [n for n, c in self.columns.items() if c.kind == "numeric"]

    def category_feature_names(self) -> list[str]:
        return [n for n, c in self.columns.items() if c.kind == "category"]


def numeric_to_category(col: Column) -> Column:
    finite = col.values[~np.isnan(col.values)]
    dictionary = np.unique(finite)
    codes = np.full(col.values.shape, -1, dtype=np.int32)
    ok = ~np.isnan(col.values)
    idx = np.searchsorted(dictionary, col.values[ok])
    codes[ok] = idx.astype(np.int32)
    return Column(col.name, "category", codes, dictionary=dictionary,
                  from_float_literals=col.from_float_literals)


# ---------------------------------------------------------------------------
# CSV reading


def read_csv(path: str, target_name: str | None = None,
             hints: dict[str, str] | None = None) -> RawTable:
    """Read an RFC 4180 CSV with a header row into text columns.

    Empty cells and the tokens NA/NaN/null/None (case-insensitive, surrounding
    whitespace ignored) become missing (None). Ragged rows are a hard error
    reporting the 1-based data row index. `target_name` and hint keys are
    validated against the header. A file that is not UTF-8, or a cell longer
    than `csv.field_size_limit()`, is a `DataError` too.

    The file is read once. What reads it depends on its bytes alone: a file
    `_plain_layout` accepts (no quote, LF or CRLF line ends, no blank line,
    the header's comma count on every line) is split at its separators,
    and its table keeps the file's bytes and each cell's byte offsets
    (`_FileColumn`): parsing reads numbers and dates from the bytes, and a
    column's `str` cells are made only when a caller asks for them. Any other
    file is decoded and goes through `csv.reader`, which also raises the
    ragged-row, blank-line and empty-file errors. Both give the same table.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    plain = data if data.endswith(b"\n") else data + (b"\r\n" if b"\r" in data else b"\n")
    layout = _plain_layout(plain)
    if layout is None:
        header, columns, n_rows = _read_rows(path, _decode(path, data))
    else:
        del data
        if not plain.isascii():
            _decode(path, plain)  # raises where the file is not UTF-8
        n_cols, cr, seps, missing = layout
        header = plain[:seps[n_cols] - cr].decode().split(",")
        _check_header(path, header)
        n_cells = seps.shape[0] - 1
        n_rows = n_cells // n_cols - 1
        columns = tuple(
            _FileColumn(plain, seps[n_cols + j:n_cells:n_cols], seps[n_cols + j + 1::n_cols],
                        cr if j == n_cols - 1 else 0, missing[n_cols + j::n_cols])
            for j in range(n_cols))
    if target_name is not None and target_name not in header:
        raise DataError(f"target column {target_name!r} not found in header")
    for key in (hints or {}):
        if key not in header:
            raise DataError(f"role hint names unknown column {key!r}")
    return RawTable(tuple(header), columns, n_rows)


@dataclass(frozen=True, eq=False)
class _FileColumn:
    """One column of a file `read_csv` split in one pass, as the file's
    bytes: row r's cell is data[before[r] + 1:after[r] - cr], the bytes
    between the separators around it less the CR of a CRLF line end, and
    missing[r] marks a missing token. The arrays are strided views of the
    table's own, so the columns of a file share its bytes and offsets."""

    data: bytes
    before: np.ndarray
    after: np.ndarray
    cr: int
    missing: np.ndarray

    @cached_property
    def strings(self) -> tuple:
        """The text cells, None where missing, made on the first call."""
        cells = _decode_cells(np.frombuffer(self.data, dtype=np.uint8), self.before + 1,
                              self.after - self.cr)
        for r in np.flatnonzero(self.missing).tolist():
            cells[r] = None
        return tuple(cells)


def _strings(cells) -> tuple:
    """The text cells of a column given as text cells or as a `_FileColumn`."""
    return cells.strings if isinstance(cells, _FileColumn) else cells


def _decode_cells(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of the cells buf[starts[i]:ends[i]], none of which holds a
    comma: one gather of their bytes, each followed by a comma, then one
    decode and one split."""
    if starts.shape[0] == 0:
        return []
    lengths = ends - starts + 1  # with the comma
    stops = np.cumsum(lengths)
    joined = buf.take(np.arange(stops[-1]) + np.repeat(starts - stops + lengths, lengths),
                      mode="clip")
    joined[stops - 1] = ord(",")
    cells = joined.tobytes().decode().split(",")
    cells.pop()
    return cells


# A cell equals a missing token after `strip().lower()` only if it is at most
# `_TOKEN_BYTES` long or its first or last byte is in `_EDGE_BYTES`: the ASCII
# whitespace `str.strip` removes, and every byte of a non-ASCII character
# (each non-ASCII whitespace character starts and ends with one). No
# non-ASCII character lowercases to ASCII letters of a token. A short cell
# without such an edge byte is a token exactly when its bytes, each OR 0x20,
# are the token's: OR 0x20 maps a byte to a token letter only from that
# letter or its capital, and to no byte below 0x20, so cells of different
# lengths get different keys.
_TOKEN_BYTES = max(map(len, MISSING_TOKENS))
_EDGE_BYTES = np.array([chr(b).isspace() or b >= 0x80 for b in range(256)])
_TOKEN_KEYS = np.array([int.from_bytes(t.encode(), "little") for t in MISSING_TOKENS],
                       dtype=np.uint32)  # 4 bytes: the longest token's
_KEY_MASKS = np.array([(1 << 8 * k) - 1 for k in range(_TOKEN_BYTES + 1)], dtype=np.uint32)
# The separator scan and the byte screen take the file a block at a time, so
# no temporary array grows with it: reading holds little beside its table.
_SCAN_BYTES = 1 << 16
_SCAN_CELLS = 1 << 14


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text: byte offset {exc.start}: {exc.reason}") from None


def _plain_layout(data: bytes) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """How a split at every comma and line end reads a file ending in a line
    end as `csv.reader` does, or None when the file needs `csv.reader`.

    A file qualifies when it has no `"`, its line ends are all LF or all
    CRLF (so no other CR), every line has the header's comma count, no line
    is blank (in a one-column file a blank line is a ragged row to
    `csv.reader`, not an empty cell) and no cell is longer in bytes than the
    csv field limit.

    Returns the column count, 1 for CRLF line ends (else 0), the separators
    and the missing-token mask. seps[0] is -1 and seps[c + 1] the position of
    the separator after cell c, header cells first, so cell c is
    data[seps[c] + 1:seps[c + 1]], less the CR that ends a CRLF line's last
    cell. The byte screen picks the data cells that may be missing tokens;
    a short one without an edge byte is tested as a key of its bytes, and
    only the few others are decoded for the exact test.
    """
    header_end = data.find(b"\n")
    if b'"' in data or header_end < 0:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    n_lines = n_seps = 0
    for lo in range(0, buf.shape[0], _SCAN_BYTES):
        block = buf[lo:lo + _SCAN_BYTES]
        is_sep = block == ord("\n")
        n_lines += np.count_nonzero(is_sep)
        is_sep |= block == ord(",")
        n_seps += np.count_nonzero(is_sep)
    n_cols = data.count(b",", 0, header_end) + 1
    n_cells = n_lines * n_cols
    if n_seps != n_cells:
        return None
    seps = np.empty(n_cells + 1, dtype=np.int64)
    seps[0], k = -1, 1
    for lo in range(0, buf.shape[0], _SCAN_BYTES):
        block = buf[lo:lo + _SCAN_BYTES]
        at = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        np.add(at, lo, out=seps[k:k + at.shape[0]])
        k += at.shape[0]
    line_ends = seps[n_cols::n_cols]
    n_cr = data.count(b"\r") if b"\r" in data else 0
    if ((buf[line_ends] != ord("\n")).any() or n_cr not in (0, n_lines)
            or (n_cr and (buf[line_ends - 1] != ord("\r")).any())):
        return None
    cr, limit = int(n_cr > 0), csv.field_size_limit()
    missing = np.zeros(n_cells, dtype=bool)
    step = max(_SCAN_CELLS // n_cols, 1) * n_cols  # whole lines
    for lo in range(0, n_cells, step):
        starts = seps[lo:min(lo + step, n_cells)] + 1
        ends = seps[lo + 1:lo + 1 + starts.shape[0]].copy()
        ends[n_cols - 1::n_cols] -= cr
        lengths = ends - starts
        if lengths.max() > limit or (n_cols == 1 and not lengths.all()):
            return None
        edge = _EDGE_BYTES.take(buf.take(starts))
        edge |= _EDGE_BYTES.take(buf.take(ends - 1))
        edge &= lengths > 0
        short = np.flatnonzero((lengths <= _TOKEN_BYTES) & ~edge)
        at = starts[short, None] + np.arange(_TOKEN_BYTES)
        keys = buf.take(at, mode="clip").view("<u4").ravel() | np.uint32(0x20202020)
        keys &= _KEY_MASKS.take(lengths[short])
        missing[lo + short] = np.isin(keys, _TOKEN_KEYS)
        for c in np.flatnonzero(edge).tolist():
            cell = data[starts[c]:ends[c]].decode(errors="replace")
            missing[lo + c] = cell.strip().lower() in MISSING_TOKENS
    missing[:n_cols] = False  # header cells
    return n_cols, cr, seps, missing


def _read_rows(path: str, text: str) -> tuple[list[str], tuple[tuple, ...], int]:
    """Header, columns and row count of any CSV text, through `csv.reader`,
    with the exact missing-token test on every cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    n_rows = -1  # rows read, -1 while the header is read
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        _check_header(path, header)
        n_rows = 0
        n_cols = len(header)
        cols: list[list] = [[] for _ in range(n_cols)]
        for i, row in enumerate(reader, start=1):
            if len(row) != n_cols:
                raise DataError(
                    f"{path}: ragged row {i}: expected {n_cols} cells, got {len(row)}")
            for j, cell in enumerate(row):
                cols[j].append(None if cell.strip().lower() in MISSING_TOKENS else cell)
            n_rows = i
    except csv.Error as exc:
        where = "header" if n_rows < 0 else f"data row {n_rows + 1}"
        raise DataError(f"{path}: {where}: {exc}") from None
    return header, tuple(tuple(c) for c in cols), n_rows


def _check_header(path: str, header: list[str]) -> None:
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")


# ---------------------------------------------------------------------------
# Column parsing


class _Text:
    """The non-missing cells of one column, and where they sit.

    A column of a file `read_csv` split keeps the file's bytes and its
    cells' byte offsets (`bytes`), and its `str` cells (`unstripped`, and
    `cells` stripped) are made only when asked for: to read the numbers of
    a column the kernel cannot read, for a category's distinct values
    (`pick`), or for a date cell that needs `strptime`. Text cells given as
    `str` are encoded once, the first time `bytes` is asked for. Cells are
    stripped only when needed. Whether the cells are numbers is decided
    once, by `numbers`, for typing and for every recipe that reads numbers.
    """

    def __init__(self, present: np.ndarray, file: _FileColumn | None = None) -> None:
        self.present = present  # bool per row
        self.size = int(np.count_nonzero(present))
        self._file = file

    @classmethod
    def of(cls, cells) -> "_Text":
        """The cells of a column given as text cells or as a `_FileColumn`."""
        if isinstance(cells, _FileColumn):
            return cls(~cells.missing, cells)
        text = cls(np.fromiter(map(operator.is_not, cells, itertools.repeat(None)),
                               dtype=bool, count=len(cells)))
        text.unstripped = [c for c in cells if c is not None]
        return text

    def __len__(self) -> int:
        return self.size

    @cached_property
    def unstripped(self) -> list[str]:
        """The non-missing cells, as read."""
        return _decode_cells(*self.bytes)

    @cached_property
    def cells(self) -> list[str]:
        """The non-missing cells, stripped."""
        return [c.strip() for c in self.unstripped]

    @cached_property
    def bytes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The UTF-8 bytes the non-missing cells sit in, and where each cell
        starts and ends in them."""
        if self._file is not None:
            file = self._file
            return (np.frombuffer(file.data, dtype=np.uint8), file.before[self.present] + 1,
                    file.after[self.present] - file.cr)
        joined = "".join(self.unstripped)
        data = joined.encode("utf-8", "surrogatepass")
        cells = (self.unstripped if len(data) == len(joined) else
                 [c.encode("utf-8", "surrogatepass") for c in self.unstripped])
        lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(self))
        ends = np.cumsum(lengths)
        return np.frombuffer(data, dtype=np.uint8), ends - lengths, ends

    @cached_property
    def numbers(self) -> tuple[np.ndarray, bool] | None:
        """`float(cell.strip())` of every non-missing cell, and whether
        `int(cell.strip())` reads every one; None when a cell is not a
        finite number.

        The kernel's `parse_numbers` (in _kernel.c) reads the column from
        its bytes in one pass when every cell is in its grammar, Python's
        `float` bit for bit, and leaves the few cells outside its exact
        range to `float` and `int`. A column with a cell outside its
        grammar, or any column on a host without the kernel, is read in
        Python: `int` first, then `float` where `int` fails, so a text
        column is refused at its first cell. `float` of a cell `int` reads
        is its `int`, but -0.0 for a negative zero.
        """
        lib = native.optional_kernel()
        if lib is not None:
            buf, starts, ends = self.bytes
            values, flag = np.empty(len(self)), np.empty(len(self), dtype=np.uint8)
            status = lib.parse_numbers(buf.ctypes.data, starts.ctypes.data, ends.ctypes.data,
                                       len(self), values.ctypes.data, flag.ctypes.data)
            if status >= 0:
                flagged = np.flatnonzero(flag)
                rest = self.pick(flagged)
                values[flagged] = _convert(float, rest, len(rest))
                integral = status == 1 and _convert(int, rest, len(rest)) is not None
                return (values, integral) if np.isfinite(values).all() else None
        values = self._read(int)
        if values is not None:
            for i in np.flatnonzero(values == 0).tolist():
                if self.unstripped[i].lstrip().startswith("-"):
                    values[i] = -0.0
            return values, True
        values = self._read(float)
        return (values, False) if values is not None and np.isfinite(values).all() else None

    def _read(self, convert) -> np.ndarray | None:
        """float64 of `convert(cell.strip())` for each non-missing cell, where
        `convert` is `int` or `float`, or None where a cell does not convert.

        `float` and `int` ignore all the surrounding whitespace `str.strip`
        removes but U+001C to U+001F, so a cell that converts as read gives
        its stripped value. Only when a cell as read fails do the stripped
        cells decide, and they are converted only if that cell strips to
        something else: otherwise they would fail at the same cell.
        """
        cells = iter(self.unstripped)
        values = _convert(convert, cells, len(self))
        if values is None:
            failed = self.unstripped[len(self) - operator.length_hint(cells) - 1]
            if failed.strip() != failed:
                values = _convert(convert, self.cells, len(self))
        return values

    def first_non_number(self) -> tuple[int, str]:
        """The row and the cell, as read, of the first cell that is not a
        finite number, where `numbers` is None: looked up to name it."""
        for row, cell in zip(np.flatnonzero(self.present).tolist(), self.unstripped):
            try:
                if math.isfinite(float(cell.strip())):
                    continue
            except ValueError:
                pass
            return row, cell

    def pick(self, positions: np.ndarray) -> list[str]:
        """The non-missing cells at `positions`, as read: a file column's
        are made from its bytes alone."""
        if self._file is None:
            return [self.unstripped[i] for i in positions.tolist()]
        buf, starts, ends = self.bytes
        return _decode_cells(buf, starts[positions], ends[positions])

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Values of the non-missing cells spread over all rows, NaN elsewhere."""
        out = np.full(self.present.shape[0], np.nan)
        out[self.present] = values
        return out


def _convert(convert, cells, count: int) -> np.ndarray | None:
    """float64 of `convert(cell)` for each of `count` cells, or None where one
    raises ValueError, or OverflowError (an integer beyond float64)."""
    try:
        return np.fromiter(map(convert, cells), dtype=np.float64, count=count)
    except (ValueError, OverflowError):
        return None


_FIELD_WIDTHS = {"Y": 4, "m": 2, "d": 2, "H": 2, "M": 2, "S": 2}


def _layout(fmt: str) -> tuple[int, dict[str, slice], list[tuple[int, int]]]:
    """Width, field positions and literal characters of `fmt` written with
    zero-padded fields."""
    fields: dict[str, slice] = {}
    literals: list[tuple[int, int]] = []
    pos = i = 0
    while i < len(fmt):
        if fmt[i] == "%":
            width = _FIELD_WIDTHS[fmt[i + 1]]
            fields[fmt[i + 1]] = slice(pos, pos + width)
            pos += width
            i += 2
        else:
            literals.append((pos, ord(fmt[i])))
            pos += 1
            i += 1
    return pos, fields, literals


_LAYOUTS = {fmt: _layout(fmt) for fmt in DATETIME_FORMATS}
# strptime matches a format's punctuation literally: a cell with fewer of any
# of these characters than its format has cannot parse under it
_PUNCTUATION = {fmt: [(ch, fmt.count(ch)) for ch in "-/.:" if ch in fmt]
                for fmt in DATETIME_FORMATS}


def _bulk_epochs(text: _Text, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of the cells written exactly in `fmt`'s zero-padded ASCII
    layout that name a valid time, NaN elsewhere; and the mask of those cells.

    Only cells of the layout's width in bytes are gathered from the cells'
    bytes into a (cells x width) array, so a long cell costs nothing and no
    cell becomes a `str`. A valid time has a year from 1, a real calendar
    day, hour < 24, minute < 60 and second < 60; every other cell, padded
    ones included, is left to `strptime`.
    """
    width, fields, literals = _LAYOUTS[fmt]
    buf, starts, ends = text.bytes
    epochs = np.full(len(text), np.nan)
    done = np.zeros(len(text), dtype=bool)
    rows = np.flatnonzero(ends - starts == width)
    if rows.size == 0:
        return epochs, done
    chars = buf.take(starts[rows, None] + np.arange(width))
    digits = chars - np.uint8(ord("0"))  # bytes below "0" wrap round to large values
    ok = np.ones(rows.size, dtype=bool)
    for pos, code in literals:
        ok &= chars[:, pos] == code
    part = {}
    for name, cols in fields.items():
        value = np.zeros(rows.size, dtype=np.int64)
        for pos in range(cols.start, cols.stop):
            ok &= digits[:, pos] < 10
            value = value * 10 + digits[:, pos]
        part[name] = value
    rows, part = rows[ok], {name: value[ok] for name, value in part.items()}
    year, month, day = part["Y"], part["m"], part["d"]
    hour, minute, second = (part.get(k, 0) for k in "HMS")
    first = ((year - 1970) * 12 + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    month_start = first.astype("datetime64[D]")
    month_days = ((first + 1).astype("datetime64[D]") - month_start).astype(np.int64)
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
             & (hour < 24) & (minute < 60) & (second < 60))
    days = month_start.astype(np.int64) + day - 1
    seconds = days * 86400 + hour * 3600 + minute * 60 + second
    epochs[rows[valid]] = seconds[valid]
    done[rows[valid]] = True
    return epochs, done


def _strptime_utc(cell: str, fmt: str) -> datetime | None:
    """`strptime` of the cell as UTC, or None where it fails. A cell short of
    the format's punctuation fails without the call."""
    if any(cell.count(ch) < k for ch, k in _PUNCTUATION[fmt]):
        return None
    try:
        return datetime.strptime(cell, fmt).replace(tzinfo=timezone.utc)
    except ValueError:
        return None


def _parse_datetime_format(text: _Text, fmt: str,
                           max_failures: int | None = None) -> tuple[np.ndarray, int] | None:
    """Parse under one format; failures become NaN. Returns (epochs, n_parsed),
    or None as soon as more than `max_failures` non-missing cells fail.

    Cells in the format's fixed layout are parsed in bulk; the rest go through
    `strptime` one at a time, which accepts unpadded fields and runs of
    whitespace and has the final word on every cell the bulk pass leaves
    (`_strptime_utc` refuses a cell short of the format's punctuation
    without calling it).
    """
    epochs, done = _bulk_epochs(text, fmt)
    failures = 0
    for i in np.flatnonzero(~done):
        dt = _strptime_utc(text.cells[i], fmt)
        if dt is None:
            failures += 1
            if max_failures is not None and failures > max_failures:
                return None
            continue
        epochs[i] = dt.timestamp()
    return text.scatter(epochs), len(text) - failures


def _failure_budget(n_nonmissing: int) -> int:
    """Most failed cells a format may have and still reach the threshold:
    the largest k with (n - k) / n >= DATETIME_PARSE_THRESHOLD."""
    n = n_nonmissing
    k = int(n * (1.0 - DATETIME_PARSE_THRESHOLD))
    while k < n and (n - k - 1) / n >= DATETIME_PARSE_THRESHOLD:
        k += 1
    while k > 0 and (n - k) / n < DATETIME_PARSE_THRESHOLD:
        k -= 1
    return k


def _try_datetime(text: _Text) -> tuple[np.ndarray, str] | None:
    """The first format under which enough cells parse. A format is given up
    once its failures exceed the threshold's budget."""
    if not text:
        return None
    budget = _failure_budget(len(text))
    for fmt in DATETIME_FORMATS:
        parsed = _parse_datetime_format(text, fmt, budget)
        if parsed is not None:
            return parsed[0], fmt
    return None


def _epoch_seconds(values: np.ndarray) -> np.ndarray:
    """The values in EPOCH_RANGE, NaN elsewhere."""
    lo, hi = EPOCH_RANGE
    return np.where((values >= lo) & (values <= hi), values, np.nan)


def _epoch_int_to_datetime(values: np.ndarray) -> np.ndarray | None:
    """Integers that all look like epoch seconds become a datetime column."""
    epochs = _epoch_seconds(values)
    n = np.count_nonzero(~np.isnan(values))
    if n and np.count_nonzero(~np.isnan(epochs)) / n >= DATETIME_PARSE_THRESHOLD:
        return epochs
    return None


def _category_column(name: str, text: _Text) -> Column:
    """The cells as codes into their sorted distinct values, -1 where missing.

    The kernel's `code_cells` gives each cell the id of its bytes in order of
    first appearance, so `str` cells are made only for the distinct values,
    and sorting those ranks the ids. Two cells are equal exactly when their
    UTF-8 bytes are, so this is the dictionary and the codes of
    `sorted(set(cells))`, which a host without the kernel computes. A cell
    ending in U+0000 is a DataError: the dictionary's numpy strings would
    drop the NUL and hold two equal values."""
    lib = native.optional_kernel()
    if lib is None:
        seen = sorted(set(text.unstripped))
        lookup = {v: i for i, v in enumerate(seen)}
        present = np.fromiter(map(lookup.__getitem__, text.unstripped), dtype=np.int32,
                              count=len(text))
    else:
        buf, starts, ends = text.bytes
        ids = np.empty(len(text), dtype=np.int32)
        first = np.empty(len(text), dtype=np.int64)
        k = lib.code_cells(buf.ctypes.data, starts.ctypes.data, ends.ctypes.data, len(text),
                           ids.ctypes.data, first.ctypes.data)
        if k < 0:
            raise MemoryError("code_cells could not allocate its table")
        values = text.pick(first[:k])
        order = sorted(range(k), key=values.__getitem__)
        seen = [values[i] for i in order]
        rank = np.empty(k, dtype=np.int32)
        rank[order] = np.arange(k, dtype=np.int32)
        present = rank[ids]
    codes = np.full(text.present.shape[0], -1, dtype=np.int32)
    codes[text.present] = present
    nul = [i for i, v in enumerate(seen) if v.endswith("\x00")]
    if nul:
        row = int(np.flatnonzero(np.isin(codes, nul))[0])
        raise DataError(f"column {name!r} holds {seen[codes[row]]!r} at row {row + 1}, "
                        "and a category cannot end in U+0000")
    return Column(name, "category", codes, dictionary=np.array(seen, dtype=str))


def parse_column(name: str, cells, hint: str | None = None) -> tuple[Column, dict]:
    """Type one column, given as text cells or as a `_FileColumn`: integer,
    float, datetime, then category. A role hint ('numeric', 'datetime' or
    'category') tries its own kind only and raises DataError where the
    column does not parse as it; a 'target' hint types as no hint.

    Only a column `int` reads without a hint is tried as epoch seconds, and
    a column `int` reads takes its values as `int` gives them (+0.0 for
    -0). Returns the typed column plus a schema entry describing how to
    re-parse the same source column at inference time.
    """
    text = _Text.of(cells)
    hint = None if hint == "target" else hint
    if hint in (None, "numeric") and text.numbers is not None:
        values, integral = text.numbers
        fraction = bool(np.any(values != np.floor(values)))
        values = text.scatter(values + 0.0 if integral else values)
        epochs = _epoch_int_to_datetime(values) if integral and hint is None else None
        if epochs is not None:
            return Column(name, "datetime", epochs), {"kind": "datetime", "format": EPOCH_FORMAT}
        return Column(name, "numeric", values, from_float_literals=fraction), {"kind": "numeric"}
    if hint in (None, "datetime") and (parsed := _try_datetime(text)) is not None:
        return Column(name, "datetime", parsed[0]), {"kind": "datetime", "format": parsed[1]}
    if hint not in (None, "category"):
        raise DataError(f"column {name!r} hinted {hint} but does not parse")
    return _category_column(name, text), {"kind": "category"}


def parse_with_schema(name: str, cells, entry: dict) -> Column:
    """Re-parse a raw column (text cells or a `_FileColumn`) at inference
    using the stored training recipe.

    A numeric or epoch recipe takes the cells that `build_dataset` types as
    numbers, with `float`'s values, and raises DataError at the first other
    one."""
    kind, fmt = entry["kind"], entry.get("format")
    text = _Text.of(cells)
    if kind not in ("numeric", "datetime"):  # text: coded in the stored dictionary later
        return _category_column(name, text)
    if kind == "datetime" and fmt != EPOCH_FORMAT:
        return Column(name, "datetime", _parse_datetime_format(text, fmt)[0])
    if text.numbers is None:
        row, cell = text.first_non_number()
        raise DataError(f"column {name!r} holds {cell!r} at row {row + 1}, "
                        "which is not a finite number")
    values = text.scatter(text.numbers[0])
    return Column(name, kind, _epoch_seconds(values) if kind == "datetime" else values)


# ---------------------------------------------------------------------------
# Datetime expansion


def expand_datetime(col: Column) -> list[Column]:
    """Expand epoch seconds into numeric year/month/day/weekday/hour columns.

    Missing timestamps propagate as NaN in every part. Weekday is 0 for
    Monday. Constant parts are handled by the caller's constant-column rule.
    The seconds are truncated to integers and split into days and the second
    of the day by floor division; the civil date of the day comes from
    Hinnant's days-to-civil algorithm ("chrono-Compatible Low-Level Date
    Algorithms"), which counts in 400-year eras of the proleptic Gregorian
    calendar from 0000-03-01, so it holds for negative days too.
    """
    values = col.values
    mask = np.isnan(values)
    days, second = np.divmod(np.where(mask, 0.0, values).astype(np.int64), 86400)
    era, day_of_era = np.divmod(days + 719468, 146097)  # 719468: 0000-03-01 to 1970-01-01
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    shifted = (5 * day_of_year + 2) // 153  # months from March
    month = np.where(shifted < 10, shifted + 3, shifted - 9)
    part_values = {
        "year": year_of_era + era * 400 + (month <= 2),
        "month": month,
        "day": day_of_year - (153 * shifted + 2) // 5 + 1,
        "weekday": (days + 3) % 7,
        "hour": second // 3600,
    }
    out = []
    for part in DATETIME_PARTS:
        arr = part_values[part].astype(np.float64)
        arr[mask] = np.nan
        out.append(Column(f"{col.name}__{part}", "numeric", arr))
    return out


# ---------------------------------------------------------------------------
# Target handling


def _encode_target(cells, task_kind: str) -> tuple[np.ndarray, tuple[str, ...]]:
    text = _Text.of(cells)
    if len(text) < text.present.shape[0]:
        row = int(np.argmin(text.present))
        raise DataError(f"target has a missing value at row {row + 1}")
    if task_kind == "regression":
        if text.numbers is None:
            i, cell = text.first_non_number()
            try:
                float(cell.strip())
            except ValueError:
                raise DataError(
                    f"target value {cell!r} at row {i + 1} is not numeric") from None
            raise DataError(f"target value at row {i + 1} is not finite")
        return text.numbers[0], ()
    cells = text.unstripped
    labels = sorted({c.strip() for c in cells})
    if task_kind == "binary" and len(labels) != 2:
        raise DataError(f"binary target must have exactly 2 labels, found {len(labels)}")
    if task_kind == "multiclass" and len(labels) < 3:
        raise DataError(f"multiclass target must have at least 3 labels, found {len(labels)}")
    lookup = {v: i for i, v in enumerate(labels)}
    out = np.array([lookup[c.strip()] for c in cells], dtype=np.int64)
    return out, tuple(labels)


def _constant(col: Column) -> bool:
    present = col.values >= 0 if col.kind == "category" else ~np.isnan(col.values)
    return np.unique(col.values[present]).size <= 1


# ---------------------------------------------------------------------------
# Dataset construction


def build_dataset(raw: RawTable, target_name: str, task_kind: str,
                  hints: dict[str, str] | None = None,
                  metric: MetricSpec | None = None) -> Dataset:
    """Parse a raw table into a typed dataset for the given task.

    Hints override the cascade per column ('numeric', 'category' and
    'datetime' through `parse_column`, and 'drop'). Constant columns are
    dropped, datetime columns expanded, and classification targets
    label-encoded with the mapping stored on the task.
    """
    if target_name not in raw.column_names:
        raise DataError(f"target column {target_name!r} not found")
    hints = dict(hints or {})
    for key, role in hints.items():
        if role not in ROLE_KINDS:
            raise DataError(f"role hint for {key!r} has unknown role {role!r}")

    target, labels = _encode_target(raw.cells(target_name), task_kind)
    task = Task(task_kind, n_classes=len(labels) if task_kind != "regression" else 0,
                metric=metric, labels=labels)

    columns: dict[str, Column] = {}
    schema: dict[str, dict] = {}
    warnings: list[str] = []

    for name in raw.column_names:
        hint = hints.get(name)
        if name == target_name or hint == "drop":
            continue
        col, entry = parse_column(name, raw.cells(name), hint)

        if col.kind == "datetime":
            schema[name] = entry
            for part in expand_datetime(col):
                if not _constant(part):
                    columns[part.name] = part
                    schema[part.name] = {"source": name}
            continue

        if not _constant(col):
            columns[name] = col
            schema[name] = entry

    if task_kind == "multiclass":
        counts = np.bincount(target, minlength=task.n_classes)
        small = [task.labels[i] for i in range(task.n_classes) if counts[i] < DEFAULT_K]
        if small:
            warnings.append(
                f"classes {small} have fewer than {DEFAULT_K} members; stratification degrades")

    return Dataset(columns, target, task, DatasetMeta(raw.n_rows, warnings), schema)


def dataset_from_arrays(X: np.ndarray, y: np.ndarray, task_kind: str,
                        feature_names: list[str] | None = None,
                        category_columns: list[str] | None = None,
                        metric: MetricSpec | None = None) -> Dataset:
    """Build a dataset directly from numeric arrays. Columns listed in
    `category_columns` are coded over their distinct values; every recipe is
    numeric, and `conform` codes the categories among parsed numbers."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be 2-dimensional")
    n, f = X.shape
    names = feature_names or [f"f{i}" for i in range(f)]
    if len(names) != f:
        raise DataError("feature_names length does not match X")
    y = np.asarray(y)
    if task_kind == "regression":
        target = y.astype(np.float64)
        labels: tuple[str, ...] = ()
    else:
        classes = np.unique(y)
        target = np.searchsorted(classes, y).astype(np.int64)
        labels = tuple(str(c) for c in classes)
        if task_kind == "binary" and len(labels) != 2:
            raise DataError("binary target must have exactly 2 labels")
    task = Task(task_kind, n_classes=len(labels), metric=metric, labels=labels)
    columns: dict[str, Column] = {}
    for j, name in enumerate(names):
        vals = X[:, j]
        finite = vals[~np.isnan(vals)]
        has_fraction = bool(finite.size and np.any(finite != np.floor(finite)))
        col = Column(name, "numeric", vals.copy(), from_float_literals=has_fraction)
        if category_columns and name in category_columns:
            col = numeric_to_category(col)
        columns[name] = col
    schema = {name: {"kind": "numeric"} for name in names}
    return Dataset(columns, target, task, DatasetMeta(n), schema)


# ---------------------------------------------------------------------------
# Inference input


def parse_features(raw: RawTable, reference: Dataset, names: list[str]) -> Dataset:
    """Features `names` of `reference` parsed from `raw` by its stored
    recipes, as `build_dataset` gives them: numbers and datetime parts
    numeric, text categories with their own dictionaries, constant columns
    kept. Each source column is parsed once; a missing one is a DataError."""
    sources: dict[str, dict] = {}
    for name in names:
        entry = reference.schema.get(name)
        if entry is None:
            raise DataError(f"no parse recipe stored for column {name!r}")
        source = entry.get("source", name)
        sources[source] = reference.schema[source]
    missing = [s for s in sources if s not in raw.column_names]
    if missing:
        raise DataError(f"input table is missing columns {sorted(missing)}")
    parsed: dict[str, Column] = {}
    for source, entry in sources.items():
        col = parse_with_schema(source, raw.cells(source), entry)
        for part in expand_datetime(col) if col.kind == "datetime" else (col,):
            parsed[part.name] = part
    return Dataset({name: parsed[name] for name in names}, np.zeros(raw.n_rows),
                   reference.task, DatasetMeta(raw.n_rows), reference.schema)


def conform(dataset: Dataset, reference: Dataset, selected: list[str] | None = None) -> Dataset:
    """`dataset`'s columns of the reference's features (those in `selected`
    when given) in the reference's order, a category coded in the reference's
    dictionary (-1 where missing or unseen) whether it arrives as text, as
    numbers or as a category of numbers. Raises DataError naming a feature
    that is missing or whose kind does not fit the reference's."""
    wanted = set(selected) if selected is not None else reference.columns.keys()
    columns: dict[str, Column] = {}
    for name, ref_col in reference.columns.items():
        if name not in wanted:
            continue
        col = dataset.columns.get(name)
        if col is None:
            raise DataError(f"input dataset has no column for feature {name!r}")
        if ref_col.kind == "category" and _is_text(col) == _is_text(ref_col):
            columns[name] = _recode_category(col, ref_col)
        elif ref_col.kind == col.kind == "numeric":
            columns[name] = col
        else:
            raise DataError(f"column {name!r} holds {_holds(col)} but the model was "
                            f"trained on {_holds(ref_col)}")
    return Dataset(columns, dataset.target, reference.task, dataset.meta, reference.schema)


def dataset_from_raw_with_schema(raw: RawTable, reference: Dataset,
                                 selected: list[str] | None = None) -> Dataset:
    """The feature columns of `reference` (those in `selected` when given)
    rebuilt from a new raw table: `parse_features`, then `conform`."""
    names = selected if selected is not None else reference.feature_names()
    return conform(parse_features(raw, reference, names), reference, names)


def _is_text(col: Column) -> bool:
    return col.kind == "category" and col.dictionary.dtype.kind == "U"


def _holds(col: Column) -> str:
    return ("numbers" if col.kind != "category" else
            "text categories" if _is_text(col) else "numeric categories")


def _recode_category(col: Column, ref_col: Column) -> Column:
    """Codes of `col` in the training dictionary, -1 where missing or unseen.

    A text category arrives parsed as a category with its own dictionary; a
    numeric-origin one (a re-typed number or datetime part) as numeric.
    """
    codes = np.full(col.values.shape[0], -1, dtype=np.int32)
    if col.kind == "category":
        ok = col.values >= 0
        codes[ok] = lookup_sorted(ref_col.dictionary, col.dictionary)[col.values[ok]]
    else:
        ok = ~np.isnan(col.values)
        codes[ok] = lookup_sorted(ref_col.dictionary, col.values[ok])
    return Column(col.name, "category", codes, dictionary=ref_col.dictionary)
