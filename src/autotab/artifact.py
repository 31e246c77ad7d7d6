"""Model artifact container: a zip of a JSON manifest plus raw .npy arrays.

The object graph is encoded by dataclass reflection against an explicit type
registry; numpy arrays are stored as separate zip entries byte-for-byte, so a
save/load round trip predicts bit-identically.

A booster's forest is one `PackedTrees`: one node table of six node arrays
for all of its trees plus a vector of tree starts, so the number of entries
grows with the number of estimators, not of trees. A loaded forest is
checked when it routes (`trees.route_forest`), on every host.

The manifest carries a format version that is checked on load, before any
object is decoded. Version 4 dropped the encoder spec's and the views'
smoothing fields and the data model's unused metadata, and stores every
target map as (groups, K) means with a (K,) default. Version 5 dropped the
dataset's `roles` and `target_name`, the model's `enc_specs`, both models'
`version`, and the schema's `category_numeric` kind and `float_literals`
and `part` keys. Version 6 stores symmetric trees as complete `Tree`s,
so a forest no longer names its tree type (`PackedTrees.kind`), and dropped
the per-feature split gains of every tree and booster. Version 7 stores a
forest as named node arrays (`feature`, `bin_threshold`, `threshold`,
`left`, `right`, `value`) and one int64 `starts` vector, in place of a
positional field list and a (trees + 1, 6) offset table. Versions 1-6 are
rejected.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
import zlib

import numpy as np

from .autotype import ColumnTyping, TypingReport
from .data import Column, Dataset, DatasetMeta, Task
from .encoders import EncoderSpec, FrequencyMap, TargetMeanMap
from .ensemble import BlendWeights
from .errors import ConfigError, DataError
from .gbm import GBMEstimator, GBMParams, PackedTrees
from .learners import GBMView, LinearView, TrainedModel
from .linear import LinearEstimator, LinearParams
from .metrics import MetricSpec
from .pipeline import AutoMLModel, UtilizedModel
from .tuning import TrialHistory

FORMAT_VERSION = 7

_REGISTRY = {cls.__name__: cls for cls in (
    ColumnTyping, TypingReport, Column, Dataset, DatasetMeta, Task,
    EncoderSpec, FrequencyMap, TargetMeanMap, BlendWeights, GBMEstimator,
    GBMParams, PackedTrees, GBMView, LinearView, TrainedModel, LinearEstimator,
    LinearParams, MetricSpec, AutoMLModel, UtilizedModel, TrialHistory,
)}


def _encode(obj, arrays: list) -> object:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return {"__array__": len(arrays) - 1}
    if isinstance(obj, tuple):
        return {"__tuple__": [_encode(v, arrays) for v in obj]}
    if isinstance(obj, list):
        return [_encode(v, arrays) for v in obj]
    if isinstance(obj, dict):
        items = [[_encode(k, arrays), _encode(v, arrays)] for k, v in obj.items()]
        return {"__dict__": items}
    if dataclasses.is_dataclass(obj):
        name = type(obj).__name__
        if name not in _REGISTRY:
            raise ConfigError(f"cannot serialize {name}")
        state = {f.name: _encode(getattr(obj, f.name), arrays)
                 for f in dataclasses.fields(obj)}
        return {"__dc__": name, "state": state}
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def _decode(node, arrays: list):
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [_decode(v, arrays) for v in node]
    if "__array__" in node:
        return arrays[node["__array__"]]
    if "__tuple__" in node:
        return tuple(_decode(v, arrays) for v in node["__tuple__"])
    if "__dict__" in node:
        return {_decode(k, arrays): _decode(v, arrays) for k, v in node["__dict__"]}
    if "__dc__" in node:
        cls = _REGISTRY.get(node["__dc__"])
        if cls is None:
            raise ConfigError(f"unknown serialized type {node['__dc__']!r}")
        state = {k: _decode(v, arrays) for k, v in node["state"].items()}
        obj = object.__new__(cls)
        for k, v in state.items():
            object.__setattr__(obj, k, v)
        return obj
    raise ConfigError(f"cannot decode node {node!r}")


def save_model(model: AutoMLModel | UtilizedModel, path: str) -> None:
    arrays: list[np.ndarray] = []
    root = _encode(model, arrays)
    manifest = {"format_version": FORMAT_VERSION,
                "kind": type(model).__name__,
                "root": root}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("manifest.json", json.dumps(manifest))
        for i, arr in enumerate(arrays):
            buf = io.BytesIO()
            np.save(buf, arr, allow_pickle=False)
            z.writestr(f"arrays/{i}.npy", buf.getvalue())


def load_model(path: str) -> AutoMLModel | UtilizedModel:
    """The model saved at `path`. Raises ConfigError for another format
    version, and DataError naming the path for a file that is not a model
    artifact or is damaged: a manifest that is not JSON or lacks its root, a
    missing or unreadable array, or a reference to an array not stored."""
    try:
        z = zipfile.ZipFile(path, "r")
    except (OSError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot open model artifact {path}: {exc}") from exc
    try:
        with z:
            manifest = json.loads(z.read("manifest.json"))
            version = manifest.get("format_version")
            if version != FORMAT_VERSION:
                raise ConfigError(
                    f"artifact format version {version} is not supported "
                    f"(expected {FORMAT_VERSION})")
            n_arrays = sum(1 for n in z.namelist() if n.startswith("arrays/"))
            arrays = [np.load(io.BytesIO(z.read(f"arrays/{i}.npy")), allow_pickle=False)
                      for i in range(n_arrays)]
        return _decode(manifest["root"], arrays)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, EOFError,
            zipfile.BadZipFile, zlib.error) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"damaged model artifact {path}: {type(exc).__name__}: {exc}") from exc
