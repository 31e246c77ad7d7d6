"""The column-wise parse in data.py equals the per-cell cascade it replaced.

The reference cascade lives in oracles.py. Columns are drawn from missing
tokens, integers near the epoch range and beyond float64, fractions, all
datetime formats with and without zero padding, invalid dates, non-ASCII
digits and free text. Cells are padded with whitespace that `float` ignores
and with U+001C to U+001F, which only `str.strip` removes.

The number steps run twice, through the kernel's `parse_numbers` and in
Python as on a host without a compiler, and both must give the cascade's
bits; a column of decimal literals drawn around the edges of the kernel's
exact range checks its values against `float` and `int` directly. Columns
written to a CSV file parse from the file's bytes as from their text.

Text categories are coded as the oracle's dict codes them, through the
kernel's `code_cells` and without it, from text cells and from a file's
bytes or its `csv.reader` cells. The datetime parts of integer calendar
arithmetic are those of numpy's datetime64 casts, bit for bit.
"""

import csv
import math
import re
from contextlib import contextmanager
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotab.data import (DATETIME_FORMATS, DATETIME_PARSE_THRESHOLD, EPOCH_FORMAT, Column,
                          _FileColumn, _category_column, _Text, _failure_budget, _try_datetime,
                          expand_datetime, parse_column, parse_with_schema, read_csv)
from autotab.errors import DataError
from autotab.gbm import native

from oracles import (cascade_category_column, cascade_parse_column, cascade_parse_with_schema,
                     cascade_try_datetime, cascade_try_float, cascade_try_int,
                     expand_datetime_datetime64)

FOREIGN_DIGITS = ("٠١٢٣٤٥٦٧٨٩",
                  "０１２３４５６７８９")
SCHEMA_ENTRIES = ([{"kind": "numeric"}, {"kind": "category"},
                   {"kind": "datetime", "format": EPOCH_FORMAT}]
                  + [{"kind": "datetime", "format": f} for f in DATETIME_FORMATS])

# whitespace `str.strip` removes; `float` and `int` do not ignore U+001C to U+001F
pad = st.sampled_from(["", "", "", " ", "  ", "\t", "\x1c", "\x1f", "\x0b", "\xa0", "\u3000"])

# (year, month, day, hour, minute, second) that name no time; the last five
# are invalid only in formats with a time of day.
INVALID_TIMES = ((2021, 2, 30, 0, 0, 0), (2019, 2, 29, 0, 0, 0), (1900, 2, 29, 0, 0, 0),
                 (0, 1, 1, 0, 0, 0), (2021, 13, 1, 0, 0, 0), (2021, 0, 5, 0, 0, 0),
                 (2021, 4, 31, 0, 0, 0), (2021, 1, 0, 0, 0, 0), (2021, 1, 1, 0, 0, 60),
                 (2021, 1, 1, 0, 0, 61), (2021, 1, 1, 24, 0, 0), (2021, 1, 1, 0, 60, 0),
                 (2021, 1, 1, 23, 60, 59))


def invalid_times(fmt: str) -> tuple:
    return INVALID_TIMES if "%H" in fmt else INVALID_TIMES[:-5]


def render(fmt: str, fields: tuple, zero_pad: bool = True) -> str:
    values = dict(zip("YmdHMS", fields))
    out, i = [], 0
    while i < len(fmt):
        if fmt[i] == "%":
            v = values[fmt[i + 1]]
            out.append(f"{v:04d}" if fmt[i + 1] == "Y" else f"{v:02d}" if zero_pad else str(v))
            i += 2
        else:
            out.append(fmt[i])
            i += 1
    return "".join(out)


def near_miss(text: str, pos: int, char: str) -> str:
    """`text` with one character swapped, e.g. a digit for ":", the code point
    after "9"."""
    return text[:pos] + char + text[pos + 1:]


@st.composite
def foreign(draw, text: str) -> str:
    """`text` with its ASCII digits sometimes written in another script."""
    if draw(st.integers(0, 9)) != 0:
        return text
    digits = draw(st.sampled_from(FOREIGN_DIGITS))
    return text.translate(str.maketrans("0123456789", digits))


@st.composite
def date_cell(draw, fmt: str | None = None) -> str:
    fmt = fmt or draw(st.sampled_from(DATETIME_FORMATS))
    if draw(st.integers(0, 7)) > 0:
        year = draw(st.one_of(st.integers(1900, 2100), st.sampled_from([1, 1969, 1970, 9999])))
        month, day = draw(st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 28)),
            st.sampled_from([(1, 31), (4, 30), (12, 31), (2, 29)])))
        if (month, day) == (2, 29):
            year = draw(st.sampled_from([2000, 2020]))
        fields = (year, month, day, draw(st.integers(0, 23)), draw(st.integers(0, 59)),
                  draw(st.integers(0, 59)))
    else:
        fields = draw(st.sampled_from(invalid_times(fmt)))
    text = render(fmt, fields, zero_pad=draw(st.integers(0, 3)) > 0)
    if "T" in fmt and draw(st.booleans()):
        text = text.replace("T", "t")
    if " " in fmt and draw(st.integers(0, 3)) == 0:
        text = text.replace(" ", draw(st.sampled_from(["  ", "\t"])))
    if draw(st.integers(0, 7)) == 0:
        text = near_miss(text, draw(st.sampled_from(range(len(text)))),
                         draw(st.sampled_from(":/.-T0a٣")))
    return draw(pad) + draw(foreign(text)) + draw(pad)


missing_token = st.sampled_from(["", "NA", "na", "NaN", "nan", "null", "NULL", "None",
                                 "none", " NA ", "N/A", "-"])
int_cell = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(10 ** 8 - 3, 10 ** 8 + 3),
    st.integers(10 ** 11 - 3, 10 ** 11 + 3),
    st.integers(1_500_000_000, 1_700_000_000),
    st.just(10 ** 400),  # beyond float64
).map(str)
float_cell = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.6g}"),
    st.tuples(st.integers(-999, 999), st.integers(0, 99)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from(["1e5", "1E-3", ".5", "5.", "-0.0", "1_000.5", "inf", "-Infinity",
                     "3.0", "1e400"]),
)
text_cell = st.one_of(st.sampled_from(["a", "b", "B", "x y", " a", "grp_0001", "é",
                                       "2021", "12/31"]),
                      st.text(max_size=8))


@st.composite
def cell(draw, base):
    """One cell: usually of the column's base kind, sometimes anything."""
    if draw(st.integers(0, 19)) == 0:
        return None
    if draw(st.integers(0, 24)) == 0:
        return draw(st.one_of(missing_token, int_cell, float_cell, date_cell(), text_cell))
    text = draw(base)
    return draw(pad) + draw(foreign(text)) + draw(pad) if base is not text_cell else text


base_kind = st.one_of(st.just(int_cell), st.just(float_cell), st.just(text_cell),
                      st.just(missing_token),
                      st.sampled_from(DATETIME_FORMATS).map(date_cell))
columns = base_kind.flatmap(lambda base: st.lists(cell(base), max_size=40)).map(tuple)


def assert_same_column(got, want):
    assert (got.name, got.kind) == (want.name, want.kind)
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()
    if want.dictionary is None:
        assert got.dictionary is None
    else:
        assert got.dictionary.dtype == want.dictionary.dtype
        assert np.array_equal(got.dictionary, want.dictionary)
    assert got.from_float_literals == want.from_float_literals


def assert_same_datetime(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[1] == want[1]
    assert got[0].tobytes() == want[0].tobytes()


@contextmanager
def numbers_read_by(parser: str):
    """Numbers read by the kernel, or in Python as on a host without `cc`."""
    if parser == "kernel":
        assert native.optional_kernel() is not None
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "optional_kernel", lambda: None)
        yield


@pytest.fixture(scope="module", params=["kernel", "python"])
def number_parser(request):
    return request.param


def assert_same_outcome(got, want, compare=assert_same_column):
    """`got()` gives what `want()` gives, by `compare`, or refuses with the
    DataError and the message that `want()` refuses with."""
    try:
        expected = want()
    except DataError as exc:
        with pytest.raises(DataError) as refused:
            got()
        assert str(refused.value) == str(exc)
        return
    compare(got(), expected)


def assert_same_typed(got, want):
    assert_same_column(got[0], want[0])
    assert got[1] == want[1]


def check_parse_column(cells):
    assert_same_outcome(lambda: parse_column("c", cells), lambda: cascade_parse_column("c", cells),
                        assert_same_typed)


@given(columns)
def test_parse_column_matches_cascade(cells):
    with numbers_read_by("kernel"):
        check_parse_column(cells)


@given(columns)
def test_parse_column_matches_cascade_without_kernel(cells):
    with numbers_read_by("python"):
        check_parse_column(cells)


@given(columns)
def test_try_datetime_matches_cascade(cells):
    assert_same_datetime(_try_datetime(_Text.of(cells)), cascade_try_datetime(cells))


def check_parse_with_schema(cells, entry):
    """The recipe parses as the cascade does, and refuses with its message
    the same cell the cascade refuses."""
    assert_same_outcome(lambda: parse_with_schema("c", cells, entry),
                        lambda: cascade_parse_with_schema("c", cells, entry))


@given(columns, st.sampled_from(SCHEMA_ENTRIES))
def test_parse_with_schema_matches_cascade(cells, entry):
    with numbers_read_by("kernel"):
        check_parse_with_schema(cells, entry)


@given(columns, st.sampled_from(SCHEMA_ENTRIES))
def test_parse_with_schema_matches_cascade_without_kernel(cells, entry):
    with numbers_read_by("python"):
        check_parse_with_schema(cells, entry)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


@given(st.lists(columns, min_size=2, max_size=3))
def test_file_columns_parse_as_their_text_cells(number_parser, csv_path, cols):
    """A column of a file `read_csv` splits parses from the file's bytes
    (`RawTable.cells`) as from its text cells (`RawTable.column`), by the
    cascade and by every recipe, refusals included."""
    with numbers_read_by(number_parser):
        n_rows = min(map(len, cols))
        drop = {ord(ch): None for ch in ',"\r\n'}  # so that one split reads the file
        lines = [",".join(f"c{j}" for j in range(len(cols)))]
        lines += [",".join("" if c is None else c.translate(drop) for c in row)
                  for row in zip(*(col[:n_rows] for col in cols))]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = read_csv(str(csv_path))
        for name in raw.column_names:
            assert isinstance(raw.cells(name), _FileColumn)
            assert_same_outcome(lambda: parse_column(name, raw.cells(name)),
                                lambda: parse_column(name, raw.column(name)), assert_same_typed)
            for entry in SCHEMA_ENTRIES:
                assert_same_outcome(lambda: parse_with_schema(name, raw.cells(name), entry),
                                    lambda: parse_with_schema(name, raw.column(name), entry))


@given(st.sampled_from(DATETIME_FORMATS), st.integers(100, 300), st.integers(-2, 2),
       st.randoms(use_true_random=False))
def test_failure_share_around_threshold(fmt, n, offset, rnd):
    budget = max(k for k in range(n + 1) if (n - k) / n >= DATETIME_PARSE_THRESHOLD)
    n_bad = max(budget + offset, 0)
    cells = []
    for _ in range(n - n_bad):
        t = datetime.fromordinal(rnd.randint(1, 3652059)).replace(
            hour=rnd.randint(0, 23), minute=rnd.randint(0, 59), second=rnd.randint(0, 59))
        cells.append(render(fmt, t.timetuple()[:6]))
    bad = [render(fmt, f) for f in invalid_times(fmt)] + ["??", ""]
    digit_at = [i for i, c in enumerate(cells[0]) if c.isdigit()]
    bad += [near_miss(cells[0], rnd.choice(digit_at), rnd.choice(":/")) for _ in range(5)]
    cells += [rnd.choice(bad) for _ in range(n_bad)]
    rnd.shuffle(cells)
    cells = tuple(cells)
    want = cascade_try_datetime(cells)
    assert (want is not None) == (n_bad <= budget)
    assert_same_datetime(_try_datetime(_Text.of(cells)), want)


def test_failure_budget_is_the_threshold_in_counts():
    for n in range(1, 1001):
        want = max(k for k in range(n + 1) if (n - k) / n >= DATETIME_PARSE_THRESHOLD)
        assert _failure_budget(n) == want


# Decimal literals in the kernel's grammar and around the edges of its exact
# range (significands of 2^53 and of 19 digits or more, exponents of 22 and
# 23, subnormals, overflow), and cells that only Python reads.
GRAMMAR = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
digit_run = st.text(alphabet="0123456789", max_size=25)


@st.composite
def literal(draw) -> str:
    whole, fraction, point = draw(digit_run), draw(digit_run), draw(st.booleans())
    if not whole and not (point and fraction):
        whole = "0"
    cell = draw(st.sampled_from(["", "+", "-"])) + whole + ("." + fraction if point else "")
    if draw(st.booleans()):
        cell += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text(alphabet="0123456789", min_size=1, max_size=4)))
    return cell


decimal_cell = st.one_of(
    literal(),
    st.sampled_from(["-0", "+0", "0", "-0.0", ".5", "5.", "+7", "007", "0.000", "-.5e-3",
                     str(2 ** 53 - 1), str(2 ** 53), str(2 ** 53 + 1), "-" + str(2 ** 53 + 1),
                     "9007199254740993.0", "1" * 19, "12345678901234567890", "0" * 30 + "1",
                     "1e22", "1e23", "1E-22", "1e-23", "123e-20", "4.5e-1",
                     "5e-324", "4.9e-324", "2.2250738585072014e-308", "1e-400", "1e400",
                     "-1e400", "0e999", "1" + "0" * 400, "1.7976931348623157e308"]),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
foreign_cell = st.sampled_from(["1_0", "1_000.5", " 5", "5 ", "\x1c5", "5\x1f", "\xa012",
                                "١٢", "１.５", "inf", "-Infinity", "nan", "1e", ".", "+", "e5",
                                "0x10", "1.2.3", ""])


@st.composite
def number_columns(draw) -> tuple:
    """Decimal literals and missing cells, and now and then a cell only
    Python reads."""
    cells = draw(st.lists(decimal_cell | st.none(), max_size=30))
    if cells and draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(foreign_cell)
    return tuple(cells)


def finite_floats_reference(cells):
    out = np.full(len(cells), np.nan)
    for i, c in enumerate(cells):
        if c is None:
            continue
        try:
            out[i] = float(c.strip())
        except ValueError:
            return None, i
        if not math.isfinite(out[i]):
            return None, i
    return out, None


def kernel_read(text):
    """`parse_numbers` of the cells: its status, values and flags."""
    buf, starts, ends = text.bytes
    values, flag = np.empty(len(text)), np.empty(len(text), dtype=np.uint8)
    status = native.optional_kernel().parse_numbers(
        buf.ctypes.data, starts.ctypes.data, ends.ctypes.data, len(text), values.ctypes.data,
        flag.ctypes.data)
    return status, values, flag.astype(bool)


@given(number_columns())
def test_number_steps_match_float_and_int(number_parser, cells):
    """`_Text.numbers` gives the cascade's bits, through the kernel or in
    Python: `float`'s values, and `int`'s but for the sign of a zero, where
    `int` reads every cell; None where a cell is not a finite number, and
    then `first_non_number` names the cell the reference stops at. Where
    every cell is in the kernel's grammar the kernel reads the column, and
    each cell it does not leave to Python is `float` of the cell bit for
    bit."""
    with numbers_read_by(number_parser):
        as_int, as_float = cascade_try_int(cells), cascade_try_float(cells)
        want, bad = finite_floats_reference(cells)
        text = _Text.of(cells)
        got = text.numbers
        assert (got is None) == (want is None) == (as_float is None)
        if got is None:
            assert as_int is None
            assert text.first_non_number() == (bad, cells[bad])
        else:
            values, integral = got
            assert text.scatter(values).tobytes() == want.tobytes() == as_float[0].tobytes()
            assert bool(np.any(values != np.floor(values))) == as_float[1]
            assert integral == (as_int is not None)
            assert not integral or text.scatter(values + 0.0).tobytes() == as_int[0].tobytes()
        if number_parser == "kernel" and all(GRAMMAR.fullmatch(c) for c in text.unstripped):
            status, values, flagged = kernel_read(text)
            assert status == all(re.fullmatch(r"[+-]?[0-9]+", c) for c in text.unstripped)
            want = np.array([float(c) for c in text.unstripped])
            assert values[~flagged].tobytes() == want[~flagged].tobytes()


# Category cells: prefixes of one another, non-ASCII ones, "é" composed and
# decomposed, empty and blank text, commas and quotes, and more distinct
# values than code_cells' first table has slots, so that it grows.
category_text = st.one_of(
    st.sampled_from(["a", "ab", "abc", "b", "é", "é", "ß", "日本", "🙂", "", " ", " a",
                     "a,b", 'say "hi"', "NA"]),
    st.integers(0, 400).map(lambda i: f"k{i}"),
    st.text(max_size=6))
category_columns = st.lists(category_text | st.none(), max_size=200).map(tuple)
CATEGORY_CASES = {
    "grows": tuple(f"level{i % 700:03d}" for i in range(2000)),
    "prefixes": ("abc", "a", "ab", "abc", None, "ab", "a"),
    "non-ascii": ("é", "é", "é", "日本", "日", "ß", "ss", "é"),
    "one-cell": ("only",),
    "all-missing": (None, None, None),
    "empty": (),
    "nul-inside": ("a\x00b", "a", "b"),
    "nul-at-the-end": ("a", "b", "a\x00", "a"),
}


def check_category_column(cells):
    assert_same_outcome(lambda: _category_column("c", _Text.of(cells)),
                        lambda: cascade_category_column("c", cells))


@pytest.mark.parametrize("cells", CATEGORY_CASES.values(), ids=CATEGORY_CASES.keys())
def test_category_cases_match_the_oracle(number_parser, cells):
    with numbers_read_by(number_parser):
        check_category_column(cells)


@given(category_columns)
def test_category_column_matches_the_oracle(cells):
    with numbers_read_by("kernel"):
        check_category_column(cells)


@given(category_columns)
def test_category_column_matches_the_oracle_without_kernel(cells):
    with numbers_read_by("python"):
        check_category_column(cells)


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["minimal", "all"])
@given(st.lists(category_text, min_size=1, max_size=120))
def test_category_column_of_a_file_matches_the_oracle(number_parser, csv_path, quoting, cells):
    """A category read by `read_csv`, split from the file's bytes or as
    `str` cells from `csv.reader` (every cell quoted), codes as the oracle
    codes its text cells."""
    cells = [c.translate({ord(ch): None for ch in "\r\n"}) for c in cells]
    with numbers_read_by(number_parser):
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting, lineterminator="\n")
            writer.writerow(["c", "n"])
            writer.writerows([c, i] for i, c in enumerate(cells))
        raw = read_csv(str(csv_path))
        if quoting == csv.QUOTE_ALL:
            assert not isinstance(raw.cells("c"), _FileColumn)
        assert_same_outcome(lambda: _category_column("c", _Text.of(raw.cells("c"))),
                            lambda: cascade_category_column("c", raw.column("c")))


DAY_RANGE = (-719162, 2932896)  # 0001-01-01 and 9999-12-31, in days from 1970-01-01
epoch_seconds = st.one_of(
    st.integers(DAY_RANGE[0] * 86400, DAY_RANGE[1] * 86400 + 86399),
    st.tuples(st.integers(*DAY_RANGE), st.integers(0, 24), st.integers(-2, 2)).map(
        lambda t: t[0] * 86400 + t[1] * 3600 + t[2]),  # at and around whole hours
    st.sampled_from([0, -1, 1, 3599, 3600, 86399, 86400, -86400, -86401, 951782400,
                     -2203891200]),  # 2000-03-01 and 1900-03-01
).map(float) | st.floats(DAY_RANGE[0] * 86400.0, DAY_RANGE[1] * 86400.0)


@given(st.lists(epoch_seconds | st.none(), max_size=60))
def test_expand_datetime_matches_datetime64(epochs):
    """Every calendar part by integer arithmetic is the part numpy's
    datetime64 casts give, bit for bit, NaN rows included."""
    col = Column("d", "datetime", np.array([np.nan if v is None else v for v in epochs]))
    got, want = expand_datetime(col), expand_datetime_datetime64(col)
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert g.values.tobytes() == w.values.tobytes(), g.name
