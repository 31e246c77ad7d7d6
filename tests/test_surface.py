"""The public surface and the names the benchmark's tracer wraps all exist,
and every function and class of the package is used outside the tests."""

import ast
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
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every Name and Attribute of a module, and every string constant made
    of identifiers (an `__all__` entry, a tracer target such as
    "GBMView.fit")."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_definition_is_used_outside_the_tests():
    """No function or class of src/autotab exists that only tests call:
    each name defined there must be referenced somewhere in src/ or
    perfbench/. Dunder methods are called by Python itself and are exempt.

    Names are matched without their owners, so a collision hides a definition
    that nothing uses: `TreeKernel.sample`, which only tests called, was
    never flagged, because perfbench's report has a "sample" key. This check
    is a floor, not a proof."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = set().union(*map(_referenced_names, trees.values()))
    package = ROOT / "src" / "autotab"
    unused = sorted(
        f"{path.relative_to(package)}:{node.name}"
        for path, tree in trees.items() if package in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert unused == []
