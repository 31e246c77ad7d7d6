"""The kernel loader: cached builds, compiler errors, the ctypes signatures,
inference without a compiler, and the pair counts of Normalized Gini."""

import ast
import ctypes
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from autotab import predict_automl, read_csv
from autotab.artifact import save_model
from autotab.data import dataset_from_arrays, parse_column
from autotab.encoders import _rank_concordance, dense_ranks
from autotab.errors import DataError
from autotab.gbm import GBMEstimator, native
from autotab.pipeline import PresetConfig, fit_preset

from conftest import make_binary, write_csv
from oracles import concordance_pairwise

SRC = Path(__file__).resolve().parents[1] / "src"


def _script(path: Path, body: str) -> tuple[str, ...]:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return (str(path),)


def _c_kind(decl: str):
    """The ctypes kind of one C type or parameter declaration."""
    if "*" in decl:
        return ctypes.c_void_p
    kinds = {"void": None, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
    return kinds[decl.replace("const", "").split()[0]]  # another C type fails the test


def test_signatures_match_the_c_prototypes():
    """Every exported function of _kernel.c has a SIGNATURES entry with the
    same return kind and the same pointer / int64 / double argument kinds:
    ctypes would pass garbage, not fail, on a wrong argtypes list."""
    source = native.SOURCE.read_text()
    exported = {name: (_c_kind(ret), [_c_kind(p) for p in params.split(",")])
                for ret, name, params in re.findall(
                    r"^(?!static)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, re.M)}
    assert set(exported) == set(native.SIGNATURES)
    for name, (restype, argtypes) in native.SIGNATURES.items():
        assert exported[name] == (restype, argtypes), name


def _kernel_calls() -> list[tuple[str, int, str]]:
    """(name, argument count, place) of each call in src/autotab of a
    SIGNATURES entry by its own name: `handle.name(...)`, or `name(...)`
    of a local alias. A name that src also defines as a Python function or
    method (TreeKernel.gradients, metrics.positive_rank_sum) is the kernel's
    only where it is reached through an attribute or a call, as in
    `self.short.gradients(...)` or `kernel().positive_rank_sum(...)`; on a
    plain name (`kern.gradients(...)`) or bare it is the Python one."""
    trees = [(path, ast.parse(path.read_text())) for path in (SRC / "autotab").rglob("*.py")]
    python = {node.name for _, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)}
    calls = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in native.SIGNATURES:
                continue
            if name in python and not (isinstance(func, ast.Attribute)
                                       and isinstance(func.value, (ast.Attribute, ast.Call))):
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args), name
            calls.append((name, len(node.args) + len(node.keywords),
                          f"{path.relative_to(SRC)}:{node.lineno}"))
    return calls


def test_every_kernel_call_passes_its_declared_arguments():
    """ctypes passes extra arguments to a C function without a word, so a
    call that kept an argument the kernel dropped would run on: each kernel
    call in src passes exactly len(argtypes) arguments."""
    calls = _kernel_calls()
    assert ({"leaf_grow", "obl_grow", "leaf_route", "parse_numbers", "code_cells"}
            <= {name for name, _, _ in calls})
    for name, n_args, place in calls:
        assert n_args == len(native.SIGNATURES[name][1]), (name, n_args, place)


def test_kernel_compiles_without_warnings(tmp_path):
    """The kernel builds with -Wall -Wextra -Werror on top of its own flags,
    so dead code or a suspicious conversion fails here, not in a review."""
    out = subprocess.run([*native.COMPILER, *native.FLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "kernel.so"), str(native.SOURCE), "-lm"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


_VALUE = st.sampled_from([-0.0, 0.0, 1.0, -1.5, 2.5]) | st.floats(-100.0, 100.0)


@example(rows=[(2.0, 1.0)], n=1)
@example(rows=[(0.0, 1.0), (-0.0, 2.0)], n=2)
@example(rows=[(1.0, 3.0), (1.0, 0.0), (1.0, 2.0)], n=3)
@example(rows=[(3.0, 1.0), (0.0, 1.0), (2.0, 1.0)], n=3)
@example(rows=[(1.0, 5.0), (2.0, 0.0), (0.0, 2.5), (3.0, -1.5), (2.0, 7.0)], n=3)
@given(rows=st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=60),
       n=st.integers(1, 60))
def test_rank_concordance_counts_untied_pairs(rows, n):
    """One kernel call gives C - D and P exactly, with ties in x and in y,
    signed zeros and constant columns. The (x, y) rows are ranked as a whole
    and only the first n are scored, so their ranks have gaps where the
    other rows' values were."""
    full_x, full_y = np.array(rows).T
    n = min(n, len(rows))
    (x_rank, x_levels), (y_rank, y_levels) = dense_ranks(full_x), dense_ranks(full_y)
    x, y = full_x[:n], full_y[:n]
    c_minus_d, p = _rank_concordance(y_rank[:n], y_levels, x_rank[:n], x_levels)
    assert c_minus_d == concordance_pairwise(y, x)
    assert p == sum(int(np.sum(y[i] != y[i + 1:])) for i in range(n))


@pytest.mark.parametrize("y_rank,x_rank", [([0, 3], [0, 1]), ([0, 1], [-1, 1]),
                                            ([0, 1], [0, 1, 1])])
def test_rank_concordance_rejects_ranks_the_kernel_cannot_index(y_rank, x_rank):
    with pytest.raises(DataError):
        _rank_concordance(np.array(y_rank), 3, np.array(x_rank), 2)


def test_second_build_reuses_the_cached_library(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    cc = _script(tmp_path / "cc", f'echo "$@" >> {log}\nexec cc "$@"\n')
    cache = tmp_path / "cache"
    first = native.build(cache, cc)
    mtime = first.stat().st_mtime_ns

    def no_process(*args, **kwargs):
        raise AssertionError(f"a cached build started {args[0]}")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    second = native.build(cache, cc)
    assert first == second and second.stat().st_mtime_ns == mtime
    compiles = log.read_text().splitlines()
    assert len(compiles) == 1 and native.FLAGS[0] in compiles[0]
    assert os.listdir(cache) == [first.name]  # no temporary file left behind


def test_threads_that_build_at_once_compile_once(tmp_path):
    """Fold workers may reach a cold cache together: the module lock lets
    one of them compile while the others wait and then find its library."""
    log = tmp_path / "calls.log"
    cc = _script(tmp_path / "cc", f'echo "$@" >> {log}\nsleep 0.3\nexec cc "$@"\n')
    cache = tmp_path / "cache"
    start = threading.Barrier(4, timeout=60)

    def build():
        start.wait()
        return native.build(cache, cc)

    with ThreadPoolExecutor(4) as pool:
        libs = [f.result(timeout=60) for f in [pool.submit(build) for _ in range(4)]]
    assert len(set(libs)) == 1 and libs[0].exists()
    assert len(log.read_text().splitlines()) == 1
    assert os.listdir(cache) == [libs[0].name]


def test_a_changed_compiler_builds_a_new_library(tmp_path):
    cc = _script(tmp_path / "cc", 'exec cc "$@"\n')
    cache = tmp_path / "cache"
    first = native.build(cache, cc)
    st = os.stat(cc[0])
    os.utime(cc[0], ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    second = native.build(cache, cc)
    assert second != first and os.listdir(cache) == [second.name]  # the first is superseded


def test_a_build_deletes_only_superseded_libraries(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "_kernel-0123456789abcdef.so"
    others = [cache / "_kernel.so", cache / "kernel-0123456789abcdef.so", cache / "notes.txt"]
    for path in [stale, *others]:
        path.write_bytes(b"")
    lib = native.build(cache)
    assert not stale.exists()
    assert sorted(os.listdir(cache)) == sorted([lib.name, *(p.name for p in others)])


def test_failing_compiler_raises_with_its_stderr(tmp_path):
    cc = _script(tmp_path / "cc", 'echo "_kernel.c:1: error: no luck" >&2\nexit 1\n')
    with pytest.raises(native.KernelCompileError) as info:
        native.build(tmp_path / "cache", cc)
    message = str(info.value)
    assert "_kernel.c:1: error: no luck" in message and cc[0] in message
    assert os.listdir(tmp_path / "cache") == []


def test_missing_compiler_raises(tmp_path):
    with pytest.raises(native.KernelCompileError, match="not found"):
        native.build(tmp_path / "cache", (str(tmp_path / "no-such-cc"),))


def test_inference_needs_no_compiler(tmp_path):
    """A host without `cc` loads a model and predicts: no process starts,
    the forests of both GBM flavours route in numpy, the numbers are read in
    Python, and the predictions are the in-process kernel's bit for bit. A
    text category is coded by a dict there, to the kernel's codes."""
    X, y = make_binary(300, 4, 3, seed=3)
    ds = dataset_from_arrays(X, y, "binary")
    model = fit_preset(ds, PresetConfig(budget_seconds=20.0, tuning_enabled=False,
                                        selection_strategy="none", seed=1))
    flavors = {est.params.flavor for m in model.level1 for est in m.estimators
               if isinstance(est, GBMEstimator)}
    assert flavors == {"leaf_wise", "symmetric_depth_wise"}
    model_path = str(tmp_path / "model.lama")
    save_model(model, model_path)
    rows = X[:50].tolist()
    # a missing token, a padded cell, a 17-digit significand and a cell only
    # Python reads: the kernel's numbers and Python's must agree on all
    rows[0][0], rows[1][1], rows[2][2], rows[3][3] = "NA", " 0.5 ", "0.12345678901234567", "1_0"
    csv = write_csv(tmp_path / "rows.csv", ds.feature_names(), rows)
    levels = write_csv(tmp_path / "levels.csv", ["c"], [["ab"], ["é"], ["a"], ["ab"], ["NA"]])
    assert native.optional_kernel() is not None
    expected = predict_automl(model, read_csv(csv))
    coded = parse_column("c", read_csv(levels).cells("c"))[0]
    out_path = str(tmp_path / "pred.npy")
    no_cc = tmp_path / "empty-bin"
    no_cc.mkdir()
    code = (
        "import subprocess\n"
        "import numpy as np\n"
        "def no_process(*args, **kwargs):\n"
        "    raise AssertionError(f'inference started {args[0]}')\n"
        "subprocess.Popen = no_process\n"
        "from autotab import predict_automl, read_csv\n"
        "from autotab.artifact import load_model\n"
        "from autotab.gbm import native\n"
        "from autotab.data import parse_column\n"
        f"pred = predict_automl(load_model({model_path!r}), read_csv({csv!r}))\n"
        f"coded = parse_column('c', read_csv({levels!r}).cells('c'))[0]\n"
        "assert native.optional_kernel() is None\n"
        f"np.save({out_path!r}, pred)\n"
        f"np.save({out_path + '.codes.npy'!r}, coded.values)\n"
        f"np.save({out_path + '.dictionary.npy'!r}, coded.dictionary)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PATH=str(no_cc))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    pred = np.load(out_path)
    assert pred.dtype == expected.dtype and pred.shape == expected.shape == (50,)
    assert pred.tobytes() == expected.tobytes()
    assert np.load(out_path + ".codes.npy").tolist() == coded.values.tolist() == [1, 2, 0, 1, -1]
    assert np.load(out_path + ".dictionary.npy").tolist() == coded.dictionary.tolist()


# Cells that take parse_numbers to the ends of its accumulators
UBSAN_CELLS = ("9" * 400, "1e" + "9" * 30, "1e-" + "9" * 30, "0." + "0" * 400 + "1", "-0",
               ".5", "5.", "+7", str(2 ** 53 + 1), "1" * 19, "1e22", "1e23", "5e-324", "1e400",
               "0e" + "9" * 30, "1_0", " 5", "\x1c5", "٣")


def test_kernel_has_no_undefined_behaviour(tmp_path):
    """The kernel built with UBSan, which aborts at a signed overflow, a bad
    shift or another undefined operation, reads the edge cells, codes them
    with enough other levels that its table grows, and grows a tree of each
    flavour."""
    lib = tmp_path / "kernel-ubsan.so"
    out = subprocess.run([*native.COMPILER, *native.FLAGS, "-fsanitize=undefined",
                          "-fno-sanitize-recover=all", "-o", str(lib), str(native.SOURCE), "-lm"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code = (
        "import ctypes\n"
        "from autotab.gbm import native\n"
        f"lib = ctypes.CDLL({str(lib)!r})\n"
        "for name, (restype, argtypes) in native.SIGNATURES.items():\n"
        "    getattr(lib, name).restype, getattr(lib, name).argtypes = restype, argtypes\n"
        "native.kernel = lambda hold_gil=False: lib\n"
        "native.optional_kernel = lambda: lib\n"
        "from autotab.data import _category_column, _Text\n"
        f"cells = {UBSAN_CELLS!r}\n"
        "import numpy as np\n"
        "for column in [cells[:-4]] + [(c,) for c in cells]:\n"
        "    buf, starts, ends = _Text.of(column).bytes\n"
        "    values, flag = np.empty(len(column)), np.empty(len(column), dtype=np.uint8)\n"
        "    status = lib.parse_numbers(buf.ctypes.data, starts.ctypes.data, ends.ctypes.data,\n"
        "                               len(column), values.ctypes.data, flag.ctypes.data)\n"
        "    assert (status < 0) == any(c in column for c in cells[-4:])\n"
        "levels = cells + tuple(f'k{i}' for i in range(300)) + cells\n"
        "assert len(_category_column('c', _Text.of(levels)).dictionary) == len(cells) + 300\n"
        "from autotab.gbm import GBMParams, fit_booster\n"
        "X = np.random.default_rng(1).normal(size=(200, 4))\n"
        "y = (X[:, 0] + X[:, 1] > 0).astype(float)\n"
        "for flavor in ('leaf_wise', 'symmetric_depth_wise'):\n"
        "    fit_booster(X, y, GBMParams(flavor=flavor, n_estimators_cap=2), 'binary')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
