"""Canonical, version-salted content keys for sweep points.

Every figure point in this reproduction is a pure function of its task
tuple — (machine config, algorithm worker, n, run seed) — plus the
process-global fault plan.  :func:`point_key` turns that tuple into a
stable 64-hex SHA-256 key suitable for a content-addressed store:

* **canonical structure, not pickle/repr** — ``repr(task)`` is not
  stable across interpreter versions (dict ordering, float repr churn,
  numpy truncation), so :func:`canonical` instead lowers a value to a
  nested JSON-serialisable structure: dataclasses become ``(qualified
  name, sorted field items)``, floats become their exact
  ``float.hex()`` form, sets are sorted, ndarrays become ``(dtype,
  shape, content sha256)``;
* **version salt** — :data:`STORE_VERSION` is mixed into every key, so
  bumping it (whenever simulator semantics change in a way the goldens
  don't already catch) invalidates the whole store at once without
  touching any file;
* **environment capture** — the caller passes the ambient state that
  changes results or their side state but does not travel in the task
  tuple (the armed global fault plan, the obs and sanitizer modes); the
  sync path is deliberately *excluded* because both paths are
  bit-identical by contract (docs/PERFORMANCE.md);
* **lowered once per config object** — :func:`canonical` keeps the
  structure of a frozen config dataclass whose fields are all immutable
  per *object* (a bounded table that holds the object, so its id cannot
  be reused while it is cached), so a sweep's machine config is lowered
  once, not once per point.  Never by equality: ``0.0 == -0.0``, ``1 ==
  1.0`` and ``True == 1`` compare equal but lower to different keys.

:func:`request_key` is the request-level analogue used by the sweep
service: it additionally folds in the prediction-model set, so two
requests differing only in models get distinct identities even though
their simulator points coincide (and hit).
"""

from __future__ import annotations

import enum
import hashlib
import json
import threading
from dataclasses import fields, is_dataclass
from typing import Any, Iterable, List, Optional

__all__ = [
    "STORE_VERSION",
    "NotStructural",
    "canonical",
    "digest",
    "point_key",
    "point_keys",
    "request_key",
]

#: Salt mixed into every point/request key.  Bump when the simulator's
#: output semantics change: every existing store entry then misses and
#: re-executes, without any on-disk migration.
STORE_VERSION = 1


class NotStructural(TypeError):
    """Raised by ``canonical(..., strict=True)`` for a value it could
    only lower through ``repr``."""


def canonical(obj: Any, strict: bool = False) -> Any:
    """Lower *obj* to a canonical JSON-serialisable structure.

    The mapping is injective for the types sweeps actually use (frozen
    config dataclasses, numbers, strings, tuples); anything unknown
    falls back to ``repr`` — last resort, stable for simple objects but
    carrying none of the structural guarantees (an object printed with
    its address can share a key with a later, different object at the
    same address).  With *strict* the fallback raises
    :class:`NotStructural` instead.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # float.hex() round-trips exactly and never depends on repr
        # shortest-form algorithms.
        return ["f", obj.hex()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return _dataclass(obj, strict)
    if isinstance(obj, enum.Enum):
        cls = type(obj)
        return ["enum", f"{cls.__module__}.{cls.__qualname__}", obj.name]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical(v, strict) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(v, strict) for v in obj]
        return ["set", sorted(items, key=lambda c: json.dumps(c, sort_keys=True))]
    if isinstance(obj, dict):
        items = [[canonical(k, strict), canonical(v, strict)] for k, v in obj.items()]
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
        if isinstance(obj, np.ndarray) and not (strict and obj.dtype.hasobject):
            arr = np.ascontiguousarray(obj)
            return [
                "nd",
                arr.dtype.str,
                list(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest(),
            ]
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        pass
    if strict:
        raise NotStructural(f"{type(obj).__qualname__} has no canonical form")
    return ["repr", repr(obj)]


#: ``id(obj) -> (obj, structure)`` for frozen dataclasses whose fields
#: are all immutable, oldest first.  Holding *obj* keeps its id from
#: being reused while the entry lives.
_LOWERED: dict = {}
_LOWERED_LIMIT = 256
_LOWERED_LOCK = threading.Lock()

#: Per dataclass type: its field names, sorted.
_NAMES: dict = {}

#: Exact types whose values lower the same way for their whole life.
_SCALARS = frozenset({type(None), bool, int, float, str})


def _dataclass(obj: Any, strict: bool) -> list:
    """``canonical`` of dataclass *obj*: ``["dc", qualified name, sorted
    field items]``, from the cache when *obj* itself was lowered before
    (so the structure may be shared: callers only read it)."""
    cached = _LOWERED.get(id(obj))
    if cached is not None and cached[0] is obj:
        return cached[1]
    cls = type(obj)
    names = _NAMES.get(cls)
    if names is None:
        names = _NAMES[cls] = sorted(f.name for f in fields(cls))
    keep = cls.__dataclass_params__.frozen
    items = []
    for name in names:
        value = getattr(obj, name)
        items.append([name, canonical(value, strict)])
        keep = keep and _immutable(value)
    struct = ["dc", f"{cls.__module__}.{cls.__qualname__}", items]
    if keep:
        with _LOWERED_LOCK:
            if len(_LOWERED) >= _LOWERED_LIMIT:
                del _LOWERED[next(iter(_LOWERED))]
            _LOWERED[id(obj)] = (obj, struct)
    return struct


def _immutable(value: Any) -> bool:
    """Whether *value* can never lower differently: a scalar, an enum, a
    tuple of such values or a dataclass whose structure is cached."""
    cls = value.__class__
    if cls in _SCALARS or isinstance(value, enum.Enum):
        return True
    if cls is tuple:
        return all(_immutable(v) for v in value)
    cached = _LOWERED.get(id(value))
    return cached is not None and cached[0] is value


#: The JSON text :func:`digest` hashes: ``json.dumps(struct,
#: separators=(",", ":"), sort_keys=False)``.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def digest(struct: Any) -> str:
    """SHA-256 hex digest of a canonical structure."""
    return hashlib.sha256(_dumps(struct).encode("utf-8")).hexdigest()


def point_key(
    fn_name: str,
    task: Any,
    env: Any = None,
    version: Optional[int] = None,
    strict: bool = False,
) -> str:
    """Content key of one sweep point.

    ``fn_name`` names the worker function (two workers given the same
    tuple compute different things), ``task`` is the point tuple, and
    ``env`` carries ambient state that perturbs results (the armed
    fault plan spec).  With *strict*, a task or env without a fully
    structural form raises :class:`NotStructural`.  Equal to
    ``digest(["qsm-point", version, fn_name, canonical(task),
    canonical(env)])``.
    """
    return digest(_point(fn_name, version, canonical(task, strict), canonical(env, strict)))


def point_keys(
    fn_name: str,
    tasks: Iterable[Any],
    env: Any = None,
    version: Optional[int] = None,
    strict: bool = False,
) -> List[Optional[str]]:
    """:func:`point_key` of each of *tasks* under one *env*, which is
    lowered once; with *strict*, ``None`` for a task without a fully
    structural form (an env without one raises :class:`NotStructural`)."""
    lowered = canonical(env, strict)
    keys: List[Optional[str]] = []
    for task in tasks:
        try:
            keys.append(digest(_point(fn_name, version, canonical(task, strict), lowered)))
        except NotStructural:
            keys.append(None)
    return keys


def _point(fn_name: str, version: Optional[int], task: Any, env: Any) -> list:
    return ["qsm-point", STORE_VERSION if version is None else version, fn_name, task, env]


def request_key(payload: Any, version: Optional[int] = None) -> str:
    """Identity of one service sweep request (includes the model set)."""
    return digest(
        [
            "qsm-request",
            STORE_VERSION if version is None else version,
            canonical(payload),
        ]
    )

