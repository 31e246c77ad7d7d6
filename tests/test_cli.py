import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autotab.cli import _build_preset_config, main
from autotab.errors import ConfigError

from conftest import write_csv

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def binary_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(300):
        x1 = round(float(rng.normal()), 4)
        x2 = round(float(rng.normal()), 4)
        label = "yes" if x1 + 0.5 * x2 + 0.3 * rng.normal() > 0 else "no"
        rows.append([x1, x2, label])
    return write_csv(tmp_path / "train.csv", ["x1", "x2", "cls"], rows)


@pytest.fixture
def fast_config(tmp_path):
    cfg = {"tuning_enabled": False, "selection_strategy": "none",
           "use_gbm_sym": False, "budget_seconds": 20.0, "seed": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFit:
    def test_fit_writes_artifacts(self, binary_csv, fast_config, tmp_path):
        out = str(tmp_path / "out")
        code = main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", fast_config, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "model.lama"))
        assert os.path.exists(os.path.join(out, "report.json"))
        report = json.loads(Path(out, "report.json").read_text())
        assert report["task"] == "binary"

    def test_missing_target_column_exits_2(self, binary_csv, tmp_path, capsys):
        code = main(["fit", "--train", binary_csv, "--target", "ghost",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_malformed_config_exits_3(self, binary_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", str(bad)])
        assert code == 3

    def test_unknown_config_key_exits_3(self, binary_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", str(bad)])
        assert code == 3

    @pytest.mark.parametrize("cfg", [
        {"tuning_enabled": "no"}, {"use_linear": "false"}, {"use_gbm_leaf": 0},
        {"use_gbm_sym": None}, {"seed": 1.5}, {"seed": True}, {"cv": {"k": 2.9}},
        {"cv": {"seed": "3"}}, {"budget_seconds": True},
        {"cv": {"holdout_fraction": "0.3", "kind": "holdout"}},
    ], ids=["tuning_enabled", "use_linear", "use_gbm_leaf", "use_gbm_sym", "seed",
            "seed-bool", "cv.k", "cv.seed", "budget_seconds-bool", "cv.holdout_fraction"])
    def test_config_value_of_the_wrong_type_exits_3(self, binary_csv, tmp_path, capsys, cfg):
        # bool(), int() and float() would turn "false" on, run 2.9 folds as 2
        # and a budget of true as 1 s
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        key = next(iter(cfg))
        assert (key if key != "cv" else f"cv.{next(iter(cfg['cv']))}") in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        {"budget_seconds": True}, {"budget_seconds": "60"},
        {"cv": {"kind": "holdout", "holdout_fraction": "0.3"}},
        {"cv": {"kind": "holdout", "holdout_fraction": False}},
    ], ids=["budget_seconds-bool", "budget_seconds-str", "cv.holdout_fraction-str",
            "cv.holdout_fraction-bool"])
    def test_preset_config_refuses_a_number_that_is_not_one(self, cfg):
        # float() would build a 1.0 s budget of true and a 0.3 fraction of "0.3"
        key = next(iter(cfg))
        key = key if key != "cv" else "cv.holdout_fraction"
        with pytest.raises(ConfigError, match=re.escape(key)):
            _build_preset_config(cfg, None, None)

    def test_preset_config_takes_json_numbers(self):
        config = _build_preset_config(
            {"budget_seconds": 60, "cv": {"kind": "holdout", "holdout_fraction": 0.3}},
            None, None)
        assert config.budget_seconds == 60.0 and config.cv.holdout_fraction == 0.3

    def test_flags_override_config(self, binary_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_seconds": 9999.0, "seed": 1,
                                   "tuning_enabled": False,
                                   "selection_strategy": "none",
                                   "use_gbm_sym": False, "use_gbm_leaf": False}))
        out = str(tmp_path / "out")
        code = main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", str(cfg), "--budget", "15", "--out", out])
        assert code == 0
        report = json.loads(Path(out, "report.json").read_text())
        assert report["budget_seconds"] == 15.0


class TestPredict:
    def test_binary_prediction_csv(self, binary_csv, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", fast_config, "--out", out]) == 0
        pred_path = str(tmp_path / "preds.csv")
        code = main(["predict", "--model", os.path.join(out, "model.lama"),
                     "--data", binary_csv, "--out", pred_path])
        assert code == 0
        lines = Path(pred_path).read_text().strip().splitlines()
        assert lines[0] == "index,prediction"
        assert len(lines) == 301
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_multiclass_prediction_has_class_columns(self, tmp_path, fast_config):
        rng = np.random.default_rng(1)
        rows = []
        for i in range(400):
            x = rng.normal(size=2)
            label = ["a", "b", "c", "d"][int(abs(x[0] * 2)) % 4]
            rows.append([round(float(x[0]), 4), round(float(x[1]), 4), label])
        train = write_csv(tmp_path / "mc.csv", ["x1", "x2", "cls"], rows)
        out = str(tmp_path / "out")
        assert main(["fit", "--train", train, "--target", "cls",
                     "--config", fast_config, "--out", out]) == 0
        pred_path = str(tmp_path / "p.csv")
        assert main(["predict", "--model", os.path.join(out, "model.lama"),
                     "--data", train, "--out", pred_path]) == 0
        lines = Path(pred_path).read_text().strip().splitlines()
        assert lines[0] == "index,p_a,p_b,p_c,p_d"
        assert len(lines[1].split(",")) == 5

    def test_column_mismatch_exits_2(self, binary_csv, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", fast_config, "--out", out]) == 0
        other = write_csv(tmp_path / "other.csv", ["zz"], [[1], [2]])
        code = main(["predict", "--model", os.path.join(out, "model.lama"),
                     "--data", other, "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_stale_artifact_exits_3(self, binary_csv, fast_config, tmp_path):
        import zipfile
        out = str(tmp_path / "out")
        assert main(["fit", "--train", binary_csv, "--target", "cls",
                     "--config", fast_config, "--out", out]) == 0
        model_path = os.path.join(out, "model.lama")
        with zipfile.ZipFile(model_path) as z:
            manifest = json.loads(z.read("manifest.json"))
            payloads = {n: z.read(n) for n in z.namelist() if n != "manifest.json"}
        manifest["format_version"] = 0
        stale = str(tmp_path / "stale.lama")
        with zipfile.ZipFile(stale, "w") as z:
            z.writestr("manifest.json", json.dumps(manifest))
            for name, blob in payloads.items():
                z.writestr(name, blob)
        code = main(["predict", "--model", stale, "--data", binary_csv,
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3


class TestInferTypes:
    def test_id_column_verdict(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = [[i, round(float(rng.normal()), 3), int(rng.integers(0, 2))]
                for i in range(300)]
        train = write_csv(tmp_path / "t.csv", ["user_id", "x", "y"], rows)
        code = main(["infer-types", "--train", train, "--target", "y"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["user_id"]["is_number"] is True
        assert payload["user_id"]["fired_rule"] == "R2"

    def test_informative_low_card_column_verdict(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 4000
        n1, n2 = int(0.54 * n), int(0.02 * n)
        values = np.repeat([1, 2, 3], [n1, n2, n - n1 - n2])
        rng.shuffle(values)
        means = {1: 0.5, 2: 0.9, 3: 0.1}
        rows = [[int(v), int(rng.random() < means[int(v)])] for v in values]
        train = write_csv(tmp_path / "t.csv", ["code", "y"], rows)
        code = main(["infer-types", "--train", train, "--target", "y"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"]["is_number"] is False

    def test_no_numeric_candidates_empty_report(self, tmp_path, capsys):
        rows = [["a", 0], ["b", 1], ["a", 0], ["c", 1], ["b", 0], ["a", 1]]
        train = write_csv(tmp_path / "t.csv", ["cat", "y"], rows)
        code = main(["infer-types", "--train", train, "--target", "y"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {}


    def test_custom_cv_report_equals_the_fit_report(self, tmp_path, capsys):
        """infer-types types on the folds that fit types on: the config's cv
        and seed, not the default scheme."""
        rng = np.random.default_rng(4)
        c = rng.integers(0, 8, size=400)
        x = rng.normal(size=400).round(3)
        y = (np.sin(c) + x + 0.5 * rng.normal(size=400)).round(4)
        train = write_csv(tmp_path / "t.csv", ["c", "x", "y"],
                          [[int(a), float(b), float(t)] for a, b, t in zip(c, x, y)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cv": {"kind": "kfold", "k": 3, "seed": 7},
                                   "tuning_enabled": False, "selection_strategy": "none",
                                   "use_gbm_leaf": False, "use_gbm_sym": False}))
        assert main(["infer-types", "--train", train, "--target", "y",
                     "--config", str(cfg)]) == 0
        typing = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert main(["fit", "--train", train, "--target", "y", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert typing == json.loads((out / "report.json").read_text())["typing"]
        assert set(typing) == {"c", "x"}

    def test_infinite_integer_target_exits_2(self, tmp_path, capsys):
        rows = [[0.5, "1"], [0.7, "inf"], [0.1, "2"], [0.3, "3"], [0.9, "4"]]
        train = write_csv(tmp_path / "t.csv", ["x", "y"], rows)
        assert main(["infer-types", "--train", train, "--target", "y"]) == 2
        assert "target value at row 2 is not finite" in capsys.readouterr().err


class TestReportDeterminism:
    def _strip_timing(self, node):
        drop = {"elapsed", "allocated", "seconds", "wallclock_seconds",
                "training_seconds"}
        if isinstance(node, dict):
            return {k: self._strip_timing(v) for k, v in node.items()
                    if k not in drop}
        if isinstance(node, list):
            return [self._strip_timing(v) for v in node]
        return node

    def test_same_inputs_same_report_modulo_timing(self, binary_csv, fast_config,
                                                   tmp_path):
        reports = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["fit", "--train", binary_csv, "--target", "cls",
                         "--config", fast_config, "--out", out]) == 0
            reports.append(json.loads(Path(out, "report.json").read_text()))
        a, b = (self._strip_timing(r) for r in reports)
        assert a == b


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_lama_threads_caps_the_blas_pool():
    """Importing the CLI applies LAMA_THREADS before numpy loads: a matrix
    product then runs on the main thread alone."""
    code = ("import os\n"
            "import autotab.cli\n"
            "import numpy as np\n"
            "a = np.ones((500, 500))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env.update(PYTHONPATH=str(SRC), LAMA_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == 1
