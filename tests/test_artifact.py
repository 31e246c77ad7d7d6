import dataclasses
import hashlib
import json
import re
import zipfile

import numpy as np
import pytest

from autotab import artifact
from autotab.artifact import load_model, save_model
from autotab.data import RawTable, dataset_from_arrays
from autotab.errors import ConfigError
from autotab.gbm import GBMParams, fit_booster
from autotab.learners import GBMFolds, fit_gbm
from autotab.pipeline import PresetConfig, UtilizedModel, fit_preset, utilized_fit
from autotab.budget import TimeBudget
from autotab.validation import CVScheme, make_folds

from conftest import make_binary, make_multiclass
from oracles import predict_raw, unpack


def _fast_config(**kw):
    base = dict(budget_seconds=25.0, tuning_enabled=False,
                selection_strategy="none", seed=2, use_gbm_sym=False)
    base.update(kw)
    return PresetConfig(**base)


def _raw_table_from_dataset(X, names):
    cols = tuple(tuple(repr(float(v)) for v in X[:, j]) for j in range(X.shape[1]))
    return RawTable(tuple(names), cols, X.shape[0])


class TestRoundTrip:
    def test_binary_predict_bit_identical(self, tmp_path):
        X, y = make_binary(500, 5, 3, seed=1)
        ds = dataset_from_arrays(X, y, "binary")
        model = fit_preset(ds, _fast_config())
        path = str(tmp_path / "model.lama")
        save_model(model, path)
        loaded = load_model(path)
        raw = _raw_table_from_dataset(X, ds.feature_names())
        a = model.predict_raw_table(raw)
        b = loaded.predict_raw_table(raw)
        assert np.array_equal(a, b)

    def test_multiclass_stack_round_trip(self, tmp_path):
        X, y = make_multiclass(700, 5, 3, 3, seed=2)
        ds = dataset_from_arrays(X, y, "multiclass")
        model = fit_preset(ds, _fast_config(use_gbm_leaf=False))
        assert model.level2
        path = str(tmp_path / "model.lama")
        save_model(model, path)
        loaded = load_model(path)
        raw = _raw_table_from_dataset(X, ds.feature_names())
        assert np.array_equal(model.predict_raw_table(raw),
                              loaded.predict_raw_table(raw))
        assert ([m.learner_tag for m in loaded.level1]
                == [m.learner_tag for m in model.level1])
        assert ([m.learner_tag for m in loaded.level2]
                == [m.learner_tag for m in model.level2])

    def test_utilized_round_trip(self, tmp_path):
        X, y = make_binary(400, 4, 3, seed=3)
        ds = dataset_from_arrays(X, y, "binary")
        cfg = _fast_config(use_gbm_leaf=False, budget_seconds=40.0)
        model = utilized_fit(ds, [cfg], [[1, 2]], budget=TimeBudget(40.0))
        assert isinstance(model, UtilizedModel)
        path = str(tmp_path / "model.lama")
        save_model(model, path)
        loaded = load_model(path)
        raw = _raw_table_from_dataset(X, ds.feature_names())
        assert np.array_equal(model.predict_raw_table(raw),
                              loaded.predict_raw_table(raw))

    def test_report_survives(self, tmp_path):
        X, y = make_binary(300, 4, 2, seed=4)
        ds = dataset_from_arrays(X, y, "binary")
        model = fit_preset(ds, _fast_config(use_gbm_leaf=False))
        path = str(tmp_path / "m.lama")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.report["metric_oof_blend"] == model.report["metric_oof_blend"]
        assert loaded.selected == model.selected


class TestPackedForest:
    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    def test_entries_do_not_grow_with_trees(self, tmp_path, flavor):
        X, y = make_binary(300, 4, 2, seed=6)
        entries = []
        for cap in (2, 40):
            est = fit_booster(X, y, GBMParams(n_estimators_cap=cap, flavor=flavor),
                              "binary").estimator
            assert est.n_iterations == cap
            path = str(tmp_path / f"{cap}.lama")
            save_model(est, path)
            assert load_model(path).predict(X).tobytes() == est.predict(X).tobytes()
            with zipfile.ZipFile(path) as z:
                entries.append(sum(1 for n in z.namelist() if n.startswith("arrays/")))
        assert entries[0] == entries[1]

    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    def test_multiclass_round_trip_keeps_class_order(self, tmp_path, flavor):
        X, y = make_multiclass(400, 4, 3, 3, seed=7)
        ds = dataset_from_arrays(X, y, "multiclass")
        folds = make_folds(CVScheme("kfold", k=2, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds),
                        GBMParams(max_leaves=8, n_estimators_cap=15, flavor=flavor))
        path = str(tmp_path / "mc.lama")
        save_model(model, path)
        loaded = load_model(path)
        assert model.predict_matrix(X).tobytes() == loaded.predict_matrix(X).tobytes()
        for est, back in zip(model.estimators, loaded.estimators):
            for tree, back_tree in zip(unpack(est.forest), unpack(back.forest), strict=True):
                # in class order
                assert predict_raw(*tree, X).tobytes() == predict_raw(*back_tree, X).tobytes()


class TestVersionGate:
    def test_stale_version_rejected(self, tmp_path):
        X, y = make_binary(300, 4, 2, seed=5)
        ds = dataset_from_arrays(X, y, "binary")
        model = fit_preset(ds, _fast_config(use_gbm_leaf=False))
        path = str(tmp_path / "m.lama")
        save_model(model, path)
        with zipfile.ZipFile(path) as z:
            manifest = json.loads(z.read("manifest.json"))
            arrays = {n: z.read(n) for n in z.namelist() if n != "manifest.json"}
        manifest["format_version"] = 999
        stale = str(tmp_path / "stale.lama")
        with zipfile.ZipFile(stale, "w") as z:
            z.writestr("manifest.json", json.dumps(manifest))
            for name, payload in arrays.items():
                z.writestr(name, payload)
        with pytest.raises(ConfigError, match="version"):
            load_model(stale)

    def test_version_2_rejected_before_decoding(self, tmp_path):
        # a version-2 model still carried a `stack` topology object, whose
        # type no longer exists; the version check must fire first
        X, y = make_binary(300, 4, 2, seed=5)
        ds = dataset_from_arrays(X, y, "binary")
        model = fit_preset(ds, _fast_config(use_gbm_leaf=False))
        path = str(tmp_path / "m.lama")
        save_model(model, path)
        with zipfile.ZipFile(path) as z:
            manifest = json.loads(z.read("manifest.json"))
            arrays = {n: z.read(n) for n in z.namelist() if n != "manifest.json"}
        manifest["format_version"] = 2
        manifest["root"]["state"]["stack"] = {
            "__dc__": "StackTopology",
            "state": {"levels": {"__tuple__": [{"__tuple__": ["linear"]}]}}}
        old = str(tmp_path / "v2.lama")
        with zipfile.ZipFile(old, "w") as z:
            z.writestr("manifest.json", json.dumps(manifest))
            for name, payload in arrays.items():
                z.writestr(name, payload)
        with pytest.raises(ConfigError, match="format version 2"):
            load_model(old)

    @pytest.mark.parametrize("version", [3, 4, 5, 6])
    def test_older_version_rejected_before_decoding(self, tmp_path, monkeypatch, version):
        # a version-3 model stored 1-d target maps and smoothing fields on its
        # encoder specs and views, a version-4 model the dataset's roles and
        # the model's encoder specs and version, a version-5 model its
        # forests' tree type and split gains, a version-6 model its forests'
        # positional fields and offset table; the version check must fire
        # before any node is decoded
        X, y = make_binary(300, 4, 2, seed=5)
        ds = dataset_from_arrays(X, y, "binary", category_columns=["f0"])
        model = fit_preset(ds, _fast_config(use_gbm_leaf=False))
        path = str(tmp_path / "m.lama")
        save_model(model, path)
        old = str(tmp_path / f"v{version}.lama")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(old, "w") as dst:
            for name in src.namelist():
                payload = src.read(name)
                if name == "manifest.json":
                    manifest = json.loads(payload)
                    manifest["format_version"] = version
                    payload = json.dumps(manifest)
                dst.writestr(name, payload)

        def no_decoding(node, arrays):
            raise AssertionError("a node was decoded")

        monkeypatch.setattr(artifact, "_decode", no_decoding)
        with pytest.raises(ConfigError, match=f"format version {version}"):
            load_model(old)

    def test_stored_fields_are_pinned_to_the_format_version(self):
        # an artifact stores every field of these types: a change to one
        # needs a new FORMAT_VERSION, and then a new fingerprint here
        fields = sorted((name, tuple(f.name for f in dataclasses.fields(cls)))
                        for name, cls in artifact._REGISTRY.items())
        fingerprint = hashlib.sha256(repr(fields).encode()).hexdigest()[:16]
        assert (artifact.FORMAT_VERSION, fingerprint) == (7, "2d42c8f002ead010"), fields

    def test_garbage_file_rejected(self, tmp_path):
        from autotab.errors import DataError
        path = tmp_path / "junk.lama"
        path.write_bytes(b"not a zip")
        with pytest.raises(DataError):
            load_model(str(path))

    def test_manifest_that_is_not_json_rejected(self, saved_model, tmp_path):
        _assert_damaged(_rewritten(saved_model, tmp_path, manifest=lambda m: b"{not json"))

    def test_manifest_without_root_rejected(self, saved_model, tmp_path):
        def drop_root(manifest):
            del manifest["root"]
            return json.dumps(manifest)
        _assert_damaged(_rewritten(saved_model, tmp_path, manifest=drop_root))

    def test_missing_array_entry_rejected(self, saved_model, tmp_path):
        _assert_damaged(_rewritten(saved_model, tmp_path, drop="arrays/3.npy"))

    def test_reference_past_the_stored_arrays_rejected(self, saved_model, tmp_path):
        def past_the_end(manifest):
            refs = []
            _collect_array_refs(manifest["root"], refs)
            refs[0]["__array__"] = len(refs)  # one past the last stored array
            return json.dumps(manifest)
        _assert_damaged(_rewritten(saved_model, tmp_path, manifest=past_the_end))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    X, y = make_binary(300, 4, 2, seed=5)
    path = tmp_path_factory.mktemp("saved") / "m.lama"
    save_model(fit_preset(dataset_from_arrays(X, y, "binary"), _fast_config(use_gbm_leaf=False)),
               str(path))
    return path


def _rewritten(src, tmp_path, manifest=lambda m: json.dumps(m), drop=None) -> str:
    """A copy of the artifact at src with its manifest passed through
    `manifest` and the entry `drop` left out."""
    out = str(tmp_path / "damaged.lama")
    with zipfile.ZipFile(src) as z, zipfile.ZipFile(out, "w") as dst:
        for name in z.namelist():
            payload = z.read(name)
            if name == "manifest.json":
                payload = manifest(json.loads(payload))
            if name != drop:
                dst.writestr(name, payload)
    return out


def _collect_array_refs(node, refs: list) -> None:
    if isinstance(node, list):
        for v in node:
            _collect_array_refs(v, refs)
    elif isinstance(node, dict):
        if "__array__" in node:
            refs.append(node)
        for v in node.values():
            _collect_array_refs(v, refs)


def _assert_damaged(path: str) -> None:
    """load_model raises DataError naming the path, as the CLI reports it."""
    from autotab.errors import DataError
    with pytest.raises(DataError, match=re.escape(path)):
        load_model(path)
