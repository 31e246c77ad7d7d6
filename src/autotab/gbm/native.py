"""Build and load the compiled kernel, `_kernel.c`, with the system `cc`.

The library is built on first use, never at import, into `__pycache__/`
next to the source. Its name carries a hash of the source, the flags and
the resolved path, size and modification time of the compiler executable,
so an edit or a new compiler builds a new one, which deletes the libraries
it supersedes, and finding a cached library starts no process (the process
and temporary-file modules are imported only to compile). Fitting needs it:
GBM training grows its trees there and does the index bookkeeping and exact
arithmetic of each boosting iteration; ROC AUC sums its positives' ranks
there (`metrics.positive_rank_sum`), and so does Normalized Gini against a
two-valued target where the ranks of x are not known; and Normalized Gini
against a many-valued target (auto-typing and encoder selection for
regression) counts its pairs there from ranks (`encoders.rank_gini`).
Prediction and ingest use it where they can, when `optional_kernel()`
loads the library: a forest of either flavour is routed in one call
(`trees.route_forest`), a column of decimal numbers is read from the
CSV file's bytes in one call (`data._Text.numbers`) and a text category
column is coded from the same bytes in one call (`code_cells`, for
`data._category_column`), both for `build_dataset` and the re-parse at
prediction; on a host where it cannot be built, numpy routes, Python's
`float` and `int` convert and a dict codes, to the same bits. One module
lock serializes the build and the load, so threads that need the kernel at
once compile it once.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import threading
from pathlib import Path

from ..errors import AutotabError

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = ("cc",)
# No -ffast-math and no -march=native: the kernel must round like numpy.
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
SIGNATURES = {  # name -> (restype, argtypes), as declared in _kernel.c
    "pairwise_sums": (None, [_P, _P, _P, _I, _P]),
    "leaf_hist": (None, [_P, _I, _P, _P, _P, _I, _I, _P, _I, _P, _P, _P, _P]),
    "leaf_split": (_I, [_P, _I, _P, _P, _P, _I, _I, _I, _I, _P, _I, _P, _P, _P, _P, _P,
                        _P]),
    "leaf_scan": (None, [_P, _P, _I, _I, _D, _D, _P]),
    "leaf_grow": (_I, [_P, _I, _P, _P, _P, _P, _I, _I, _P, _I, _I, _I, _D, _D,
                       _P, _P, _P, _P, _P, _P]),
    "obl_hist": (None, [_P, _I, _P, _I, _P, _P, _P, _P, _I, _I, _P, _P, _P]),
    "obl_scan": (None, [_P, _P, _P, _I, _I, _D, _D, _P]),
    "obl_grow": (_I, [_P, _I, _P, _P, _P, _I, _I, _P, _I, _I, _I, _D, _D,
                      _P, _P, _P, _P, _P, _P]),
    "lay_out": (_I, [_P, _I, _I, _P, _P]),
    "gradients": (None, [_I, _P, _I, _I, _P, _I, _P, _P]),
    "add_scores": (None, [_P, _I, _I, _P, _P, _I]),
    "leaf_route": (None, [_P, _I, _P, _P, _P, _P, _P, _P, _I, _I, _P, _P]),
    "positive_rank_sum": (_D, [_P, _P, _I, _P]),
    "rank_concordance": (_I, [_P, _P, _I, _I, _I, _P, _P]),
    "parse_numbers": (_I, [_P, _P, _P, _I, _P, _P]),
    "code_cells": (_I, [_P, _P, _P, _I, _P, _P]),
}
_LOCK = threading.RLock()  # held by build() and kernel(), which calls build()


class KernelCompileError(AutotabError):
    """The C compiler could not build the tree kernel."""


def _run(cmd: list[str]) -> None:
    import subprocess  # only a compile starts a process

    try:
        out = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise KernelCompileError(f"{' '.join(cmd)} could not run: {exc}") from exc
    if out.returncode != 0:
        raise KernelCompileError(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")


def _executable_identity(program: str) -> list[str]:
    path = shutil.which(program)
    if path is None:
        raise KernelCompileError(f"{program} could not run: not found on PATH")
    real = os.path.realpath(path)
    st = os.stat(real)
    return [real, str(st.st_size), str(st.st_mtime_ns)]


def build(cache_dir: Path = CACHE_DIR, compiler: tuple[str, ...] = COMPILER) -> Path:
    """Path of the kernel library, compiled first unless cached."""
    with _LOCK:
        return _build(Path(cache_dir), compiler)


def _build(cache_dir: Path, compiler: tuple[str, ...]) -> Path:
    key = hashlib.sha256("\0".join([SOURCE.read_text(), *FLAGS, *compiler[1:],
                                    *_executable_identity(compiler[0])]).encode())
    lib = cache_dir / f"_kernel-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        import tempfile

        try:
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
        except OSError as exc:
            raise KernelCompileError(f"cannot write the kernel to {lib.parent}: {exc}") from exc
        os.close(fd)
        try:
            _run([*compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"])
            os.replace(tmp, lib)  # atomic: a concurrent build never sees half a file
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for old in lib.parent.glob("_kernel-*.so"):  # superseded builds
            if old != lib:
                old.unlink(missing_ok=True)
    return lib


def kernel(hold_gil: bool = False) -> ctypes.CDLL:
    """The loaded kernel, built on the first call in a process. Its calls
    release the GIL, so other threads run while a tree grows. With
    `hold_gil` they keep it (ctypes.PyDLL): for calls of microseconds,
    where releasing the GIL would hand it to another thread and then wait to
    get it back."""
    with _LOCK:
        return _open(ctypes.PyDLL if hold_gil else ctypes.CDLL)


@functools.cache
def _open(loader: type) -> ctypes.CDLL:
    lib = loader(str(build()))
    for name, (restype, argtypes) in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


@functools.cache
def optional_kernel() -> ctypes.CDLL | None:
    """`kernel()`, or None where it cannot be built (no `cc` on PATH, or a
    compile that fails): for prediction, which then routes in numpy. The
    answer is kept for the process, so a host without a compiler tries
    once."""
    try:
        return kernel()
    except KernelCompileError:
        return None
