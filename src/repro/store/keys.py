"""Canonical, version-salted content keys for sweep points.

Every figure point in this reproduction is a pure function of its task
tuple — (machine config, algorithm worker, n, run seed) — plus the
process-global fault plan.  :func:`point_key` turns that tuple into a
stable 64-hex SHA-256 key suitable for a content-addressed store:

* **canonical structure, not pickle/repr** — the old executor
  ``_task_key`` hashed ``repr(task)``, which is not stable across
  interpreter versions (dict ordering, float repr churn, numpy
  truncation).  :func:`canonical` instead lowers a value to a nested
  JSON-serialisable structure: dataclasses become ``(qualified name,
  sorted field items)``, floats become their exact ``float.hex()``
  form, sets are sorted, ndarrays become ``(dtype, shape, content
  sha256)``;
* **version salt** — :data:`STORE_VERSION` is mixed into every key, so
  bumping it (whenever simulator semantics change in a way the goldens
  don't already catch) invalidates the whole store at once without
  touching any file;
* **environment capture** — the caller passes the ambient state that
  changes results but does not travel in the task tuple (the armed
  global fault plan); the sync path is deliberately *excluded* because
  both paths are bit-identical by contract (docs/PERFORMANCE.md).

:func:`request_key` is the request-level analogue used by the sweep
service: it additionally folds in the prediction-model set, so two
requests differing only in models get distinct identities even though
their simulator points coincide (and hit).
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Optional

__all__ = [
    "STORE_VERSION",
    "canonical",
    "digest",
    "point_key",
    "request_key",
    "task_digest",
]

#: Salt mixed into every point/request key.  Bump when the simulator's
#: output semantics change: every existing store entry then misses and
#: re-executes, without any on-disk migration.
STORE_VERSION = 1


def canonical(obj: Any) -> Any:
    """Lower *obj* to a canonical JSON-serialisable structure.

    The mapping is injective for the types sweeps actually use (frozen
    config dataclasses, numbers, strings, tuples); anything unknown
    falls back to ``repr`` — last resort, stable for simple objects but
    carrying none of the structural guarantees.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # float.hex() round-trips exactly and never depends on repr
        # shortest-form algorithms.
        return ["f", obj.hex()]
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return [
            "dc",
            f"{cls.__module__}.{cls.__qualname__}",
            [
                [f.name, canonical(getattr(obj, f.name))]
                for f in sorted(fields(obj), key=lambda f: f.name)
            ],
        ]
    if isinstance(obj, enum.Enum):
        cls = type(obj)
        return ["enum", f"{cls.__module__}.{cls.__qualname__}", obj.name]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(v) for v in obj]
        return ["set", sorted(items, key=lambda c: json.dumps(c, sort_keys=True))]
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return ["map", sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))]
    if isinstance(obj, bytes):
        return ["bytes", hashlib.sha256(obj).hexdigest(), len(obj)]
    try:
        import numpy as np

        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return canonical(float(obj))
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            return [
                "nd",
                arr.dtype.str,
                list(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest(),
            ]
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        pass
    return ["repr", repr(obj)]


def digest(struct: Any) -> str:
    """SHA-256 hex digest of a canonical structure."""
    blob = json.dumps(struct, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def point_key(
    fn_name: str, task: Any, env: Any = None, version: Optional[int] = None
) -> str:
    """Content key of one sweep point.

    ``fn_name`` names the worker function (two workers given the same
    tuple compute different things), ``task`` is the point tuple, and
    ``env`` carries ambient state that perturbs results (the armed
    fault plan spec).
    """
    return digest(
        [
            "qsm-point",
            STORE_VERSION if version is None else version,
            fn_name,
            canonical(task),
            canonical(env),
        ]
    )


def request_key(payload: Any, version: Optional[int] = None) -> str:
    """Identity of one service sweep request (includes the model set)."""
    return digest(
        [
            "qsm-request",
            STORE_VERSION if version is None else version,
            canonical(payload),
        ]
    )


def task_digest(task: Any) -> str:
    """Short canonical task identity for the checkpoint journal.

    Deliberately *not* salted with :data:`STORE_VERSION`: the journal
    is crash recovery for a single command, so its keys only need to be
    stable across interpreter versions, not invalidate with the store.
    """
    return digest(["qsm-task", canonical(task)])[:16]
