"""The column-wise parse in data.py equals the per-cell cascade it replaced.

The reference cascade lives in oracles.py. Columns are drawn from missing
tokens, integers near the epoch range and beyond float64, fractions, all
datetime formats with and without zero padding, invalid dates, non-ASCII
digits and free text. Cells are padded with whitespace that `float` ignores
and with U+001C to U+001F, which only `str.strip` removes.
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotab.data import (DATETIME_FORMATS, DATETIME_PARSE_THRESHOLD, EPOCH_FORMAT, _Text,
                          _failure_budget, _try_datetime, parse_column, parse_with_schema)
from autotab.errors import DataError

from oracles import cascade_parse_column, cascade_parse_with_schema, cascade_try_datetime

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


@given(columns)
def test_parse_column_matches_cascade(cells):
    want = cascade_parse_column("c", cells)
    got = parse_column("c", cells)
    assert_same_column(got[0], want[0])
    assert got[1] == want[1]


@given(columns)
def test_try_datetime_matches_cascade(cells):
    assert_same_datetime(_try_datetime(_Text.of(cells)), cascade_try_datetime(cells))


@given(columns, st.sampled_from(SCHEMA_ENTRIES))
def test_parse_with_schema_matches_cascade(cells, entry):
    """The recipe parses as the cascade does, and refuses with its message
    the same cell the cascade refuses."""
    try:
        want = cascade_parse_with_schema("c", cells, entry)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            parse_with_schema("c", cells, entry)
        assert str(got.value) == str(exc)
        return
    assert_same_column(parse_with_schema("c", cells, entry), want)


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
