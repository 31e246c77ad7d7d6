"""Predicting from a raw table equals predicting from the dataset built from
it, for single runs and blends of runs, before and after a save and load.

One table per task kind carries a small-integer column that auto-typing
re-types as a category, a text category, a datetime column and missing
cells. The models are fitted once per task kind; hypothesis then draws
tables to predict, with category levels, dates and numbers the training
table never had.
"""

from dataclasses import dataclass
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import PresetConfig, TimeBudget, build_dataset, fit_preset, utilized_fit
from autotab import data
from autotab.artifact import load_model, save_model
from autotab.data import RawTable
from autotab.errors import DataError
from autotab.pipeline import UtilizedModel

KINDS = ("binary", "multiclass", "regression")
HEADER = ("level", "color", "when", "x", "target")
COLORS = ("red", "green", "blue", "grey")
# rows every drawn table starts with, so that no feature is constant in it
# (a constant column is dropped by build_dataset) and every class occurs
FIXED_ROWS = (("1", "red", "2019-01-01", "0.500"), ("2", "blue", "2020-02-03", "-1.250"),
              ("12", "green", "2021-07-15", None))
TARGETS = {"binary": ("no", "yes"), "multiclass": ("a", "b", "c"),
           "regression": ("0.5", "-1.5", "2.25")}


def training_table(kind: str, n: int = 400, seed: int = 0) -> RawTable:
    rng = np.random.default_rng(seed)
    level = rng.integers(1, 13, n)
    color = rng.choice(COLORS, n)
    days = np.datetime64("2019-01-01") + rng.integers(0, 1460, n).astype("timedelta64[D]")
    x = rng.normal(size=n)
    signal = (np.isin(level, (1, 4, 7, 10)) + 0.5 * (color == "red") + 0.3 * x
              + 0.5 * rng.normal(size=n))
    if kind == "binary":
        y = np.where(signal > 0.6, "yes", "no")
    elif kind == "multiclass":
        y = np.array(["a", "b", "c"])[np.digitize(signal, np.quantile(signal, [1 / 3, 2 / 3]))]
    else:
        y = [f"{v:.4f}" for v in signal]

    def cells(values, fmt=str):
        return tuple(None if rng.random() < 0.05 else fmt(v) for v in values)

    cols = (cells(level), cells(color), cells(np.datetime_as_string(days, unit="D")),
            cells(x, lambda v: f"{v:.3f}"), tuple(y))
    return RawTable(HEADER, cols, n)


def table(kind: str, rows) -> RawTable:
    rows = list(FIXED_ROWS) + list(rows)
    targets = TARGETS[kind]
    cols = [tuple(row[j] for row in rows) for j in range(4)]
    cols.append(tuple(targets[i % len(targets)] for i in range(len(rows))))
    return RawTable(HEADER, tuple(cols), len(rows))


@dataclass
class Fitted:
    raw: RawTable
    models: dict


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    out = {}
    for kind in KINDS:
        raw = training_table(kind)
        ds = build_dataset(raw, "target", kind)
        config = PresetConfig(budget_seconds=30.0, tuning_enabled=False,
                              selection_strategy="none", seed=1, use_gbm_sym=False)
        model = fit_preset(ds, config)
        assert "level" in model.typing_report.category_columns()
        utilized = utilized_fit(ds, [config], [[1, 2]], budget=TimeBudget(60.0))
        assert isinstance(utilized, UtilizedModel) and len(utilized.runs) == 2
        models = {"automl": model, "utilized": utilized}
        for name in ("automl", "utilized"):
            path = str(tmp_path_factory.mktemp(kind) / f"{name}.lama")
            save_model(models[name], path)
            models[f"{name}_loaded"] = load_model(path)
        out[kind] = Fitted(raw, models)
    return out


def assert_same_predictions(models: dict, raw: RawTable, kind: str) -> None:
    ds = build_dataset(raw, "target", kind)
    for name, model in models.items():
        got, want = model.predict_raw_table(raw), model.predict_dataset(ds)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("kind", KINDS)
def test_training_table_predicts_as_its_dataset(fitted, kind):
    assert_same_predictions(fitted[kind].models, fitted[kind].raw, kind)


row = st.tuples(
    st.one_of(st.none(), st.integers(0, 14).map(str)),  # levels 0, 13, 14 unseen
    st.one_of(st.none(), st.sampled_from(COLORS + ("pink", "teal"))),
    st.one_of(st.none(), st.dates(date(2017, 1, 1), date(2024, 12, 31)).map(date.isoformat)),
    st.one_of(st.none(), st.floats(-5, 5).map(lambda v: f"{v:.3f}")),
)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30)
@given(rows=st.lists(row, max_size=25))
def test_drawn_table_predicts_as_its_dataset(fitted, kind, rows):
    assert_same_predictions(fitted[kind].models, table(kind, rows), kind)


def _with_column(raw: RawTable, name: str, cells) -> RawTable:
    j = raw.column_names.index(name)
    cols = raw.columns[:j] + (tuple(cells),) + raw.columns[j + 1:]
    return RawTable(raw.column_names, cols, raw.n_rows)


FAULTS = {
    # a batch in which x is constant: build_dataset drops it
    "missing": ("x", ("0.500",) * 6),
    "text for numbers": ("x", ("u", "v", "u", "w", "v", "u")),
    "one text cell among numbers": ("x", ("0.5", "1.5", "oops", "-1.0", None, "2.0")),
    "numbers for text": ("color", ("1", "2", "3", "1", "2", "3")),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_dataset_that_does_not_fit_names_the_column(fitted, fault):
    name, cells = FAULTS[fault]
    raw = _with_column(table("binary", [FIXED_ROWS[0]] * 3), name, cells)
    ds = build_dataset(raw, "target", "binary")
    for model in fitted["binary"].models.values():
        with pytest.raises(DataError, match=f"'{name}'"):
            model.predict_dataset(ds)


@pytest.mark.parametrize("fault", ["text for numbers", "one text cell among numbers"])
def test_table_with_text_for_numbers_names_the_column(fitted, fault):
    """The raw table is refused as its dataset is: a numeric recipe takes
    only the cells build_dataset types as numbers."""
    name, cells = FAULTS[fault]
    raw = _with_column(table("binary", [FIXED_ROWS[0]] * 3), name, cells)
    for model in fitted["binary"].models.values():
        with pytest.raises(DataError, match=f"'{name}'"):
            model.predict_raw_table(raw)


def test_blend_of_runs_parses_each_source_column_once(fitted, monkeypatch):
    utilized = fitted["binary"].models["utilized"]
    raw = fitted["binary"].raw
    parse = data.parse_with_schema
    calls = []

    def counting(name, cells, entry):
        calls.append(name)
        return parse(name, cells, entry)

    monkeypatch.setattr(data, "parse_with_schema", counting)
    utilized.predict_raw_table(raw)
    schema = utilized.runs[0].reference.schema
    sources = {schema[n].get("source", n) for run in utilized.runs for n in run.selected}
    assert sorted(calls) == sorted(sources)
