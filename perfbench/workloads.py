"""Seeded CSV generators and the preset settings of each benchmark workload.

Every generator draws its population structure (coefficients, category
effects, level frequencies) from a fixed structure seed, and its rows from a
seed stream. Each workload trains on one fixed table, so that every run
repeats the same fit; the workload seed draws the held-out tables.

The program under test only ever sees the CSV files written here.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

STRUCTURE_SEED = 2109_01528
DATE_LO = np.datetime64("2018-01-01")
DATE_SPAN_DAYS = 6 * 365


@dataclass
class Table:
    """One generated table: text cells per column plus what they contain."""

    header: list[str]
    cells: list[list[str]]  # column-major
    kinds: dict[str, str]  # source column -> numeric / category / date / target
    date_formats: dict[str, str] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.cells[0])

    def write(self, path: str, drop: str | None = None) -> None:
        cols = [j for j, name in enumerate(self.header) if name != drop]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow([self.header[j] for j in cols])
            w.writerows(zip(*(self.cells[j] for j in cols)))

    def traffic(self) -> dict:
        """Rows, source columns by kind, missing share per kind, category
        cardinalities and date formats."""
        by_kind: dict[str, list[str]] = {}
        for name in self.header:
            by_kind.setdefault(self.kinds[name], []).append(name)
        missing = {}
        for kind, names in by_kind.items():
            cells = [c for name in names for c in self.cells[self.header.index(name)]]
            missing[kind] = round(sum(_is_missing(c) for c in cells) / len(cells), 4)
        cards = {name: len({c for c in self.cells[self.header.index(name)]
                            if not _is_missing(c)})
                 for name in by_kind.get("category", [])}
        return {"rows": self.n_rows,
                "columns_by_kind": {k: len(v) for k, v in by_kind.items()},
                "missing_share_by_kind": missing,
                "category_cardinality": cards,
                "date_formats": dict(self.date_formats)}


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in ("", "na", "nan", "null", "none")


def _streams(seed: int, index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Train and held-out row generators of one sample of a workload seed."""
    train, held = np.random.SeedSequence([seed, index]).spawn(2)
    return np.random.default_rng(train), np.random.default_rng(held)


def _fmt(x: np.ndarray) -> list[str]:
    return [f"{v:.6g}" for v in x]


def _punch(rng: np.random.Generator, cells: list[str], share: float,
           tokens: tuple[str, ...] = ("",)) -> list[str]:
    """Replace a random share of cells by missing-value tokens."""
    hit = np.flatnonzero(rng.random(len(cells)) < share)
    pick = rng.integers(0, len(tokens), size=hit.size)
    for i, t in zip(hit, pick):
        cells[i] = tokens[t]
    return cells


class _Categories:
    """Fixed levels, Zipf-like frequencies and per-level effects of one column."""

    def __init__(self, name: str, card: int, scale: float, structure: np.random.Generator,
                 width: int = 1):
        self.levels = np.array([f"{name}_{i:04d}" for i in range(card)])
        p = 1.0 / np.arange(1, card + 1) ** 0.7
        self.p = p / p.sum()
        self.effect = structure.normal(0.0, scale, size=(card, width))

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(len(self.levels), size=n, p=self.p)
        return idx, self.effect[idx]


def _dates(rng: np.random.Generator, n: int) -> np.ndarray:
    return DATE_LO + rng.integers(0, DATE_SPAN_DAYS, size=n).astype("timedelta64[D]")


def _iso(days: np.ndarray) -> list[str]:
    return list(np.datetime_as_string(days, unit="D"))


def _dotted(days: np.ndarray) -> list[str]:
    return [f"{s[8:10]}.{s[5:7]}.{s[0:4]}" for s in _iso(days)]


def _month(days: np.ndarray) -> np.ndarray:
    return days.astype("datetime64[M]").astype(np.int64) % 12


# ---------------------------------------------------------------------------
# Binary, dense numerics plus text categories


BINARY_CARDS = (5, 40, 300, 3000)
BINARY_NUMERIC = 12


def binary_dense(rng: np.random.Generator, n: int) -> Table:
    structure = np.random.default_rng(STRUCTURE_SEED)
    cats = [_Categories(f"cat{k}", card, 0.8 if card < 100 else 0.0, structure)
            for k, card in enumerate(BINARY_CARDS)]

    X = rng.normal(size=(n, BINARY_NUMERIC))
    X[:, 4:8] = np.exp(0.5 * X[:, 4:8])  # skewed, positive
    X[:, 8:] = rng.uniform(-2.0, 2.0, size=(n, BINARY_NUMERIC - 8))
    # step effects: boosting learns them in a few trees, then starts to overfit
    logit = 2.0 * np.sign(X[:, 0]) + np.where(X[:, 1] > 0.5, 1.2, 0.0)
    header, cells, kinds = [], [], {}
    for j in range(BINARY_NUMERIC):
        header.append(f"x{j}")
        cells.append(_fmt(X[:, j]))
        kinds[f"x{j}"] = "numeric"
    for k, cat in enumerate(cats):
        idx, eff = cat.draw(rng, n)
        logit += eff[:, 0]
        name = f"cat{k}"
        header.append(name)
        cells.append(_punch(rng, list(cat.levels[idx]), 0.05))
        kinds[name] = "category"
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(logit - 0.5)))
    header.append("label")
    cells.append(["yes" if v else "no" for v in y])
    kinds["label"] = "target"
    return Table(header, cells, kinds)


# ---------------------------------------------------------------------------
# Multiclass with missing numerics, categories and a seasonal date


MULTI_CLASSES = ("alpha", "beta", "gamma")
MULTI_NUMERIC = 8


def multiclass_missing(rng: np.random.Generator, n: int) -> Table:
    structure = np.random.default_rng(STRUCTURE_SEED + 1)
    K = len(MULTI_CLASSES)
    W = structure.normal(0.0, 0.7, size=(MULTI_NUMERIC, K))
    season = structure.normal(0.0, 0.9, size=(12, K))
    cats = [_Categories("shop", 6, 0.7, structure, width=K),
            _Categories("region", 60, 0.5, structure, width=K)]

    X = rng.normal(size=(n, MULTI_NUMERIC))
    X[:, 5:] = np.round(np.exp(0.6 * X[:, 5:]) * 10.0, 1)
    logits = np.tanh(X[:, :5]) @ W[:5] + 0.05 * X[:, 5:] @ W[5:]
    days = _dates(rng, n)
    logits += season[_month(days)]
    header, cells, kinds = [], [], {}
    for j in range(MULTI_NUMERIC):
        header.append(f"m{j}")
        cells.append(_punch(rng, _fmt(X[:, j]), 0.10, ("", "NA")))
        kinds[f"m{j}"] = "numeric"
    for cat in cats:
        idx, eff = cat.draw(rng, n)
        logits += eff
        name = cat.levels[0].rsplit("_", 1)[0]
        header.append(name)
        cells.append(_punch(rng, list(cat.levels[idx]), 0.05))
        kinds[name] = "category"
    header.append("when")
    cells.append(_punch(rng, _iso(days), 0.05))
    kinds["when"] = "date"
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random((n, 1))
    y = (u > np.cumsum(p, axis=1)).sum(axis=1)
    header.append("label")
    cells.append([MULTI_CLASSES[c] for c in y])
    kinds["label"] = "target"
    return Table(header, cells, kinds, {"when": "%Y-%m-%d"})


# ---------------------------------------------------------------------------
# Regression with missing-value tokens, categories and two date formats


REG_NUMERIC = 6
REG_CARDS = (4, 150, 1000)
MISSING_TOKENS = ("", "NA", "null")


def ingest_regression(rng: np.random.Generator, n: int) -> Table:
    structure = np.random.default_rng(STRUCTURE_SEED + 2)
    w = structure.normal(0.0, 1.0, size=REG_NUMERIC)
    cats = [_Categories(f"grp{k}", card, 1.0, structure) for k, card in enumerate(REG_CARDS)]

    X = rng.normal(size=(n, REG_NUMERIC))
    X[:, 3:] = np.round(np.exp(0.4 * X[:, 3:]) * 100.0, 2)
    target = X[:, :3] @ w[:3] + 0.01 * X[:, 3:] @ w[3:] + rng.normal(0.0, 0.5, size=n)
    header, cells, kinds = [], [], {}
    for j in range(REG_NUMERIC):
        header.append(f"v{j}")
        cells.append(_punch(rng, _fmt(X[:, j]), 0.05, MISSING_TOKENS))
        kinds[f"v{j}"] = "numeric"
    for k, cat in enumerate(cats):
        idx, eff = cat.draw(rng, n)
        target += eff[:, 0]
        header.append(f"grp{k}")
        cells.append(_punch(rng, list(cat.levels[idx]), 0.03, MISSING_TOKENS))
        kinds[f"grp{k}"] = "category"
    opened = _dates(rng, n)
    closed = _dates(rng, n)
    target += (opened - DATE_LO).astype(np.int64) / DATE_SPAN_DAYS  # trend
    header += ["opened", "closed"]
    cells += [_punch(rng, _iso(opened), 0.02), _punch(rng, _dotted(closed), 0.02)]
    kinds.update(opened="date", closed="date")
    header.append("target")
    cells.append(_fmt(target))
    kinds["target"] = "target"
    return Table(header, cells, kinds, {"opened": "%Y-%m-%d", "closed": "%d.%m.%Y"})


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    target: str
    generator: Callable[[np.random.Generator, int], Table]
    train_rows: int
    holdout_rows: int
    config: dict  # PresetConfig keyword arguments; cv_k sets the fold count
    fixed_work: bool  # no phase may truncate or be skipped

    def tables(self, seed: int, index: int) -> tuple[Table, Table]:
        """The workload's training table and the index-th held-out table of a
        seed. Training uses one table for every seed, so every run repeats
        the same fit."""
        train_rng, _ = _streams(STRUCTURE_SEED, 0)
        _, held_rng = _streams(seed, index)
        return (self.generator(train_rng, self.train_rows),
                self.generator(held_rng, self.holdout_rows))


# The fixed-work budget is far above any run so that no phase is truncated.
FIXED_BUDGET = 3600.0

WORKLOADS = {w.name: w for w in (
    Workload("fixed-binary-dense", "binary", "label", binary_dense, 1500, 10000,
             {"tuning_enabled": False, "cv_k": 2, "stack_policy": "always",
              "budget_seconds": FIXED_BUDGET}, True),
    Workload("fixed-multiclass-missing", "multiclass", "label", multiclass_missing,
             2500, 2500,
             {"tuning_enabled": False, "selection_strategy": "none",
              "use_gbm_sym": False, "budget_seconds": FIXED_BUDGET}, True),
    Workload("ingest-regression", "regression", "target", ingest_regression,
             5000, 20000,
             {"selection_strategy": "none", "use_gbm_leaf": False,
              "use_gbm_sym": False, "metric": "r2", "budget_seconds": FIXED_BUDGET},
             True),
    Workload("budget-binary", "binary", "label", binary_dense, 10000, 5000,
             {"budget_seconds": 8.0}, False),
)}
