import csv
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import PresetConfig, fit_preset, predict_automl
from autotab.data import (DATETIME_FORMATS, EPOCH_FORMAT, RawTable, _strptime_utc,
                          build_dataset, dataset_from_arrays, dataset_from_raw_with_schema,
                          expand_datetime, parse_column, parse_with_schema, read_csv)
from autotab.encoders import lookup_sorted
from autotab.errors import DataError

from conftest import write_csv


class TestReadCsv:
    def test_direct_parse(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x"], [2, "y"]])
        raw = read_csv(path, target_name="b")
        assert raw.n_rows == 2
        assert raw.column("a") == ("1", "2")
        assert raw.column("b") == ("x", "y")

    def test_missing_tokens(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"],
                         [["NA", 0], ["", 1], ["null", 0], ["None", 1], ["nan", 0], [5, 1]])
        raw = read_csv(path)
        assert raw.column("a") == (None, None, None, None, None, "5")

    def test_ragged_row_reports_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_csv("/no/such/file.csv")

    def test_absent_target_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a"], [[1]])
        with pytest.raises(DataError, match="zz"):
            read_csv(path, target_name="zz")

    def test_quoted_cells_rfc4180(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n"x,1",2\n"say ""hi""",3\n')
        raw = read_csv(str(path))
        assert raw.column("a") == ("x,1", 'say "hi"')

    def test_hint_for_unknown_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a"], [[1]])
        with pytest.raises(DataError):
            read_csv(path, hints={"ghost": "numeric"})

    def test_file_that_is_not_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n\xe9t\xe9,3\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text: byte offset 8:")):
            read_csv(str(path))

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_cell_over_the_field_limit_names_the_row(self, tmp_path, quote):
        path = tmp_path / "t.csv"
        big = quote + "x" * (csv.field_size_limit() + 1) + quote
        path.write_text(f"a,b\n1,2\n3,{big}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: data row 2: field larger")):
            read_csv(str(path))

    def test_traced_peak_stays_near_the_table(self, tmp_path):
        """Reading holds little beside the table it returns: position arrays
        and text copies are freed before the cells are made."""
        rng = np.random.default_rng(7)
        n = 20_000
        cols = [[f"{v:.6g}" for v in rng.normal(size=n)] for _ in range(6)]
        cols += [[f"grp{j}_{k:04d}" for k in rng.integers(0, 500, n)] for j in range(3)]
        days = np.datetime64("2018-01-01") + rng.integers(0, 2000, n).astype("timedelta64[D]")
        cols += [list(np.datetime_as_string(days)), [f"{v:.2f}" for v in rng.random(n) * 100]]
        for col in cols:
            for i in rng.choice(n, n // 20, replace=False):
                col[i] = ""
        path = write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(len(cols))], zip(*cols))
        tracemalloc.start()
        try:
            raw = read_csv(path)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (raw.n_rows, len(raw.columns)) == (n, 11)
        assert peak <= 1.25 * size


class TestParseCascade:
    def test_integer_column(self):
        col, entry = parse_column("a", ("1", "2", "3"))
        assert col.kind == "numeric"
        assert col.values.tolist() == [1.0, 2.0, 3.0]
        assert not col.from_float_literals

    def test_float_column_flags_fraction(self):
        col, _ = parse_column("a", ("1.5", "2.0"))
        assert col.kind == "numeric"
        assert col.from_float_literals

    def test_iso_date(self):
        col, entry = parse_column("a", ("2021-01-02", "2021-02-03"))
        assert col.kind == "datetime"
        assert entry["format"] == "%Y-%m-%d"

    def test_epoch_seconds_become_datetime(self):
        cells = tuple(str(v) for v in (1_600_000_000, 1_600_086_400, 1_600_172_800))
        col, _ = parse_column("a", cells)
        assert col.kind == "datetime"

    def test_mixed_text_becomes_category(self):
        col, _ = parse_column("a", ("x", "y", "x"))
        assert col.kind == "category"
        assert col.values.tolist() == [0, 1, 0]

    def test_dotted_european_dates(self):
        col, entry = parse_column("a", ("02.01.2021", "03.02.2021"))
        assert col.kind == "datetime"
        assert entry["format"] == "%d.%m.%Y"

    def test_integer_beyond_float64_is_not_an_integer_column(self):
        col, entry = parse_column("a", ("1", "9" * 400, "3"))
        assert (col.kind, entry) == ("category", {"kind": "category"})
        # the float parse gives inf, which build_dataset would not type as a number
        with pytest.raises(DataError, match="'a' holds '9+' at row 2"):
            parse_with_schema("a", ("1600000000", "9" * 400),
                              {"kind": "datetime", "format": EPOCH_FORMAT})


@pytest.mark.parametrize("entry", [{"kind": "numeric"},
                                   {"kind": "datetime", "format": EPOCH_FORMAT}])
def test_recipes_refuse_a_cell_that_is_not_a_number(entry):
    """A numeric or epoch recipe takes the cells build_dataset types as
    numbers, missing ones aside, and names the first other cell."""
    cells = ["1600000000"] * 10
    cells[3], cells[6] = None, "oops"
    with pytest.raises(DataError, match="'t' holds 'oops' at row 7"):
        parse_with_schema("t", tuple(cells), entry)
    cells[6] = " 1600000001 "
    assert parse_with_schema("t", tuple(cells), entry).values[6] == 1600000001


def _strptime_or_none(cell, fmt):
    try:
        return datetime.strptime(cell, fmt).replace(tzinfo=timezone.utc)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(DATETIME_FORMATS),
       cell=st.text(alphabet="0123456789-/.: T", max_size=20))
def test_punctuation_filter_refuses_only_what_strptime_refuses(fmt, cell):
    assert _strptime_utc(cell, fmt) == _strptime_or_none(cell, fmt)


class TestBuildDataset:
    def test_numeric_parse(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"],
                         [[1, 0], [2, 1], [3, 0], [4, 1]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert ds.columns["a"].values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_constant_column_dropped(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"],
                         [["x", 0], ["x", 1], ["x", 0]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert "a" not in ds.columns
        assert "a" not in ds.schema

    def test_datetime_expanded(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["d", "y"],
                         [["2021-01-02", 0], ["2021-02-03", 1], ["2022-03-04", 0]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert "d" not in ds.columns
        assert ds.schema["d"]["kind"] == "datetime"
        assert ("d__year" in ds.columns) == ("d__year" in ds.schema)
        assert "d__day" in ds.columns

    def test_missing_target_is_hard_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"], [[1, 0], [2, ""]])
        with pytest.raises(DataError, match="target"):
            build_dataset(read_csv(path, "y"), "y", "binary")

    def test_binary_needs_two_labels(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"], [[1, 0], [2, 0]])
        with pytest.raises(DataError):
            build_dataset(read_csv(path, "y"), "y", "binary")

    def test_labels_stored_sorted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"],
                         [[1, "yes"], [2, "no"], [3, "yes"]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert ds.task.labels == ("no", "yes")
        assert ds.target.tolist() == [1, 0, 1]

    def test_small_class_warning(self, tmp_path):
        rows = [[i, "a"] for i in range(10)] + [[i, "b"] for i in range(10)] + [[99, "c"]]
        rows = [[r[0] + j, r[1]] for j, r in enumerate(rows)]
        path = write_csv(tmp_path / "t.csv", ["a", "y"], rows)
        ds = build_dataset(read_csv(path, "y"), "y", "multiclass")
        assert any("stratification" in w for w in ds.meta.warnings)

    def test_role_hints_override(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b", "y"],
                         [[1, 5, 0], [2, 6, 1], [3, 7, 0]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary",
                           hints={"a": "category", "b": "drop"})
        assert ds.columns["a"].kind == "category"
        assert "b" not in ds.columns and "b" not in ds.schema

    EPOCH_ROWS = [[1_600_000_000 + 86_400 * i, 10 + i, "u" if i % 2 else "v", i % 2]
                  for i in range(6)]

    def build_hinted(self, tmp_path, hints):
        path = write_csv(tmp_path / "t.csv", ["t", "a", "c", "y"], self.EPOCH_ROWS)
        return build_dataset(read_csv(path, "y"), "y", "binary", hints=hints)

    def test_numeric_hint_keeps_epoch_integers_numeric(self, tmp_path):
        unhinted = self.build_hinted(tmp_path, {})
        assert unhinted.schema["t"] == {"kind": "datetime", "format": EPOCH_FORMAT}
        ds = self.build_hinted(tmp_path, {"t": "numeric"})
        assert ds.schema["t"] == {"kind": "numeric"}
        assert ds.columns["t"].kind == "numeric"
        assert ds.columns["t"].values.tolist() == [row[0] for row in self.EPOCH_ROWS]
        assert not any(name.startswith("t__") for name in ds.columns)

    def test_datetime_hint_on_epoch_integers_does_not_parse(self, tmp_path):
        with pytest.raises(DataError) as refused:
            self.build_hinted(tmp_path, {"t": "datetime"})
        assert str(refused.value) == "column 't' hinted datetime but does not parse"

    def test_numeric_hint_on_text_does_not_parse(self, tmp_path):
        with pytest.raises(DataError) as refused:
            self.build_hinted(tmp_path, {"c": "numeric"})
        assert str(refused.value) == "column 'c' hinted numeric but does not parse"

    def test_target_hint_on_a_feature_parses_as_no_hint(self, tmp_path):
        unhinted = self.build_hinted(tmp_path, {})
        ds = self.build_hinted(tmp_path, {"t": "target", "a": "target", "c": "target"})
        assert ds.schema == unhinted.schema
        assert ds.columns.keys() == unhinted.columns.keys()
        for name, col in ds.columns.items():
            want = unhinted.columns[name]
            assert (col.kind, col.from_float_literals) == (want.kind, want.from_float_literals)
            assert col.values.tobytes() == want.values.tobytes()

    def test_missing_rate_matches_mask(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "y"],
                         [[1, 0], ["NA", 1], [3, 0], [4, 1]])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert np.isnan(ds.columns["a"].values).mean() == pytest.approx(0.25)

    def test_id_column_of_huge_integers(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["id", "a", "y"],
                         [[str(10 ** 400 + i), i, i % 2] for i in range(6)])
        ds = build_dataset(read_csv(path, "y"), "y", "binary")
        assert ds.columns["id"].kind == "category"
        assert ds.columns["a"].kind == "numeric"

    def test_deterministic_rebuild(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b", "y"],
                         [[1.5, "u", 0], [2.5, "v", 1], ["NA", "u", 0], [4.0, "w", 1]])
        raw = read_csv(path, "y")
        d1 = build_dataset(raw, "y", "binary")
        d2 = build_dataset(raw, "y", "binary")
        for name in d1.columns:
            a, b = d1.columns[name].values, d2.columns[name].values
            assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))


class TestExpandDatetime:
    def test_calendar_parts(self):
        col, _ = parse_column("d", ("2021-01-02",))
        parts = {c.name: c.values[0] for c in expand_datetime(col)}
        assert parts["d__year"] == 2021
        assert parts["d__month"] == 1
        assert parts["d__day"] == 2
        assert parts["d__weekday"] == 5  # Saturday, Monday == 0
        assert parts["d__hour"] == 0

    def test_equal_timestamps_identical_rows(self):
        col, _ = parse_column("d", ("2021-06-01T10:30:00", "2021-06-01T10:30:00"))
        for part in expand_datetime(col):
            assert part.values[0] == part.values[1]

    def test_missing_propagates(self):
        col, _ = parse_column("d", ("2021-01-02", None))
        for part in expand_datetime(col):
            assert np.isnan(part.values[1])


class TestCategoryRecode:
    def test_unseen_category_maps_to_missing_code(self, tmp_path):
        train = write_csv(tmp_path / "train.csv", ["c", "y"],
                          [["a", 0], ["b", 1], ["a", 0], ["c", 1]])
        ds = build_dataset(read_csv(train, "y"), "y", "binary")
        test = write_csv(tmp_path / "test.csv", ["c"], [["b"], ["zz"], ["a"]])
        ds2 = dataset_from_raw_with_schema(read_csv(test), ds)
        assert ds2.columns["c"].values.tolist() == [1, -1, 0]

    def test_numeric_origin_category_recode(self):
        X = np.array([[1.0], [2.0], [1.0], [3.0]])
        ds = dataset_from_arrays(X, np.array([0, 1, 0, 1]), "binary",
                                 category_columns=["f0"])
        assert ds.columns["f0"].values.tolist() == [0, 1, 0, 2]

    def test_dataset_from_arrays_fraction_flag(self):
        ds = dataset_from_arrays(np.array([[1.5], [2.0]]), np.array([0, 1]), "binary")
        assert ds.columns["f0"].from_float_literals
        ds2 = dataset_from_arrays(np.array([[1.0], [2.0]]), np.array([0, 1]), "binary")
        assert not ds2.columns["f0"].from_float_literals

    @pytest.mark.parametrize("dictionary, keys, want", [
        (np.array([1.0, 2.5, 7.0]), [2.5, 0.0, 7.0, 9.0, np.nan, 1.0], [1, -1, 2, -1, -1, 0]),
        (np.array(["a", "ab", "b"]), np.array(["ab", "aa", "c", "a"]), [1, -1, -1, 0]),
        (np.array([]), [1.0, np.nan], [-1, -1]),
        (np.array([3.0]), np.array([]), []),
    ], ids=["numbers", "text", "empty-dictionary", "no-keys"])
    def test_lookup_sorted(self, dictionary, keys, want):
        assert lookup_sorted(dictionary, keys).tolist() == want


class TestCategoryEndingInNul:
    """numpy's strings drop a trailing U+0000, so `a` and `a\\x00` would be
    two equal dictionary entries: fitting and predicting both refuse such a
    cell, from a split file (plain) and from `csv.reader` (quoted)."""

    @staticmethod
    def write(path, cells, quote):
        q = '"' if quote else ""
        path.write_text("c,y\n" + "".join(f"{q}{c}{q},{i % 2}\n" for i, c in enumerate(cells)),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("quote", [False, True], ids=["plain", "quoted"])
    def test_fit_refuses_it(self, tmp_path, quote):
        path = self.write(tmp_path / "train.csv", ["a", "a", "a\x00", "b", "a\x00", "b"], quote)
        with pytest.raises(DataError, match=r"column 'c' holds 'a\\x00' at row 3"):
            build_dataset(read_csv(path, "y"), "y", "binary")

    @pytest.mark.parametrize("quote", [False, True], ids=["plain", "quoted"])
    def test_predict_refuses_it(self, tmp_path, quote):
        train = self.write(tmp_path / "train.csv", ["a", "b", "a", "b"], quote)
        ds = build_dataset(read_csv(train, "y"), "y", "binary")
        test = self.write(tmp_path / "test.csv", ["b", "a\x00"], quote)
        with pytest.raises(DataError, match=r"column 'c' holds 'a\\x00' at row 2"):
            dataset_from_raw_with_schema(read_csv(test), ds)


class TestDatetimePartAsCategory:
    def test_predict_from_csv_rebuilds_category_typed_part(self):
        # Auto-typing turns `when__month` into a category; predicting from raw
        # cells must still expand `when` and recode the month against the
        # stored float dictionary.
        rng = np.random.default_rng(0)
        n = 3000
        days = np.datetime64("2019-01-01") + rng.integers(0, 1460, n).astype("timedelta64[D]")
        month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
        x = rng.normal(size=n)
        y = np.isin(month, (1, 4, 7, 10)) + 0.3 * x + 0.5 * rng.normal(size=n) > 0.5
        cols = (tuple(np.datetime_as_string(days, unit="D")), tuple(f"{v:.4f}" for v in x),
                tuple("yes" if v else "no" for v in y))
        raw = RawTable(("when", "x", "label"), cols, n)
        ds = build_dataset(raw, "label", "binary")
        model = fit_preset(ds, PresetConfig(selection_strategy="none", use_gbm_leaf=False,
                                            use_gbm_sym=False, budget_seconds=600))
        assert "when__month" in model.typing_report.category_columns()
        assert model.reference.schema["when__month"]["source"] == "when"
        pred = predict_automl(model, RawTable(raw.column_names[:2], cols[:2], n))
        assert pred.shape[0] == n and np.isfinite(pred).all()
        rebuilt = dataset_from_raw_with_schema(raw, model.reference, model.selected)
        ref = model.reference.columns["when__month"]
        assert rebuilt.columns["when__month"].kind == "category"
        assert np.array_equal(ref.dictionary[rebuilt.columns["when__month"].values], month)
