"""read_csv returns the table the row-by-row csv.reader loop returned.

The reference reader lives in oracles.py. Files are drawn from numbers,
missing tokens in any case padded with ASCII, U+001C and Unicode whitespace,
non-ASCII text, empty cells and NUL, in every shape the two reading paths
must agree on: LF, CRLF, lone-CR and mixed line ends, with and without a
final line end, blank lines (one-column files too), ragged rows and quoted
cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.data import MISSING_TOKENS, _plain_layout, read_csv
from autotab.errors import DataError

from oracles import reference_read_csv

WHITESPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028",
              "\u3000")
NEEDS_QUOTES = (",", '"', "\r", "\n")


@st.composite
def missing_token(draw) -> str:
    token = draw(st.sampled_from(sorted(MISSING_TOKENS)))
    token = "".join(c.upper() if draw(st.booleans()) else c for c in token)
    pad = st.text(alphabet=st.sampled_from(WHITESPACE), max_size=2)
    return draw(pad) + token + draw(pad)


# cells one split reads as csv.reader does, and cells that need quotes
plain_cell = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    missing_token(),
    st.sampled_from(["", "", "\x00", "a\x00", "é", "日本", "naïve", "Ñ", "nä", " x", "NUL",
                     "nonE1", "\x1c1.5", "n\xa0a"]),
    st.text(alphabet=st.characters(blacklist_characters=NEEDS_QUOTES), max_size=5),
)
any_cell = st.one_of(plain_cell, st.sampled_from(["1\r", "x\ny", "a,b", 'say "hi"', " NA\n"]),
                     st.text(max_size=5))


@st.composite
def csv_bytes(draw) -> bytes:
    n_cols = draw(st.integers(1, 4))
    quoting = draw(st.integers(0, 3)) == 0
    cell = any_cell if quoting else plain_cell
    if draw(st.integers(0, 9)) == 0:
        header = [draw(cell) for _ in range(n_cols)]
    else:
        header = [f"c{j}" for j in range(n_cols)]
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), max_size=8))
    if rows and draw(st.integers(0, 9)) == 0:  # a ragged row
        r = draw(st.integers(0, len(rows) - 1))
        shape = draw(st.sampled_from(["short", "long", "shifted"]))
        if shape == "long" or not rows[r]:
            rows[r].append(draw(cell))
        elif shape == "short" or r + 1 == len(rows):
            rows[r].pop()
        else:  # this row one cell short, the next one long: the file's comma count holds
            rows[r + 1].append(rows[r].pop())
    lines = [",".join(render_cell(draw, c) if quoting else c for c in line)
             for line in [header] + rows]
    if draw(st.integers(0, 9)) == 0:  # a blank line
        lines.insert(draw(st.integers(0, len(lines))), "")
    style = draw(st.sampled_from(["\n", "\r\n"] * 3 + ["\r", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style
            for _ in lines]
    if not draw(st.integers(0, 3)):  # no final line end
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def render_cell(draw, text: str) -> str:
    if any(c in text for c in NEEDS_QUOTES) or draw(st.integers(0, 4)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


def outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return f"DataError: {exc}"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


@settings(max_examples=400)
@given(data=csv_bytes())
def test_read_csv_matches_the_row_by_row_reader(csv_path, data):
    csv_path.write_bytes(data)
    assert outcome(read_csv, str(csv_path)) == outcome(reference_read_csv, str(csv_path))


@pytest.mark.parametrize("data, plain", [
    (b"a,b\n1,2\n", True),
    (b"a,b\r\n1,2\r\n", True),
    (b"a\nNA\n x \n", True),
    (b'a,b\n"1",2\n', False),  # a quote
    (b"a,b\r1,2\r", False),  # lone CR
    (b"c\rx\n", False),  # lone CR as many as the line ends
    (b"a,b\r\n1,2\n", False),  # mixed line ends
    (b"a,b\n1,2\n\n", False),  # blank line
    (b"a\n1\n\n2\n", False),  # blank line in a one-column file
    (b"a,b\n1,2,3\n", False),  # ragged row
    (b"a,b\n1,2,3\n4\n", False),  # ragged rows with the file's comma count
    (b"\n", False),  # blank header
])
def test_plain_layout_takes_only_files_one_split_reads_as_csv_reader(data, plain):
    """`read_csv` hands `_plain_layout` its bytes ending in a line end."""
    assert (_plain_layout(data) is not None) == plain
