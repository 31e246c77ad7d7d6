"""The kernel loader: cached builds, compiler errors, and inference without it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from autotab.artifact import save_model
from autotab.data import dataset_from_arrays
from autotab.gbm import native
from autotab.pipeline import PresetConfig, fit_preset

from conftest import make_binary, write_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def _script(path: Path, body: str) -> tuple[str, ...]:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return (str(path),)


def test_second_build_reuses_the_cached_library(tmp_path):
    log = tmp_path / "calls.log"
    cc = _script(tmp_path / "cc", f'echo "$@" >> {log}\nexec cc "$@"\n')
    cache = tmp_path / "cache"
    first = native.build(cache, cc)
    mtime = first.stat().st_mtime_ns
    second = native.build(cache, cc)
    assert first == second and second.stat().st_mtime_ns == mtime
    compiles = [line for line in log.read_text().splitlines() if line != "--version"]
    assert len(compiles) == 1 and native.FLAGS[0] in compiles[0]
    assert os.listdir(cache) == [first.name]  # no temporary file left behind


def test_failing_compiler_raises_with_its_stderr(tmp_path):
    cc = _script(tmp_path / "cc", 'if [ "$1" = --version ]; then echo "fake cc 1.0"; exit 0; fi\n'
                                  'echo "_kernel.c:1: error: no luck" >&2\nexit 1\n')
    with pytest.raises(native.KernelCompileError) as info:
        native.build(tmp_path / "cache", cc)
    message = str(info.value)
    assert "_kernel.c:1: error: no luck" in message and cc[0] in message
    assert os.listdir(tmp_path / "cache") == []


def test_inference_never_imports_the_kernel(tmp_path):
    X, y = make_binary(300, 4, 3, seed=3)
    ds = dataset_from_arrays(X, y, "binary")
    model = fit_preset(ds, PresetConfig(budget_seconds=20.0, tuning_enabled=False,
                                        selection_strategy="none", seed=1))
    model_path = str(tmp_path / "model.lama")
    save_model(model, model_path)
    names = ds.feature_names()
    csv = write_csv(tmp_path / "rows.csv", names, X[:50].tolist())
    code = (
        "import sys\n"
        "from autotab import predict_automl, read_csv\n"
        "from autotab.artifact import load_model\n"
        f"pred = predict_automl(load_model({model_path!r}), read_csv({csv!r}))\n"
        "assert pred.shape == (50,), pred.shape\n"
        "assert 'autotab.gbm.native' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
