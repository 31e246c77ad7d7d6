"""The public surface and the names the benchmark's tracer wraps all exist."""

import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import autotab
from autotab import cli
from autotab.pipeline import PresetConfig

MODULES = sorted(
    m.name for m in pkgutil.walk_packages(autotab.__path__, prefix="autotab."))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module_name", ["autotab"] + MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()

    def owner_of(module_name, path):
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        return owner, attr

    targets = [owner_of(module, path) for module, path, _, _ in tracing.INSTRUMENTS]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, before))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in targets] == before


def test_cli_config_keys_are_the_preset_fields():
    cli_keys = {"train_path", "target", "out_dir", "model_path", "task"}
    fields = {f.name for f in dataclasses.fields(PresetConfig)}
    assert cli._CONFIG_KEYS == fields | cli_keys
