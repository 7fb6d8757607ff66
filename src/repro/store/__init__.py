"""``repro.store`` — content-addressed memoization of sweep points.

Every sweep point replays byte-identically from a pickled capture
(result plus obs/sanitizer/fault side state), kept in one of two tiers
with one surface (``get_blob``/``put_blob``/``get_capture``/
``put_capture``):

* :mod:`repro.store.cas` — the on-disk tier (atomic writes,
  integrity-checked reads, ``stats``/``gc``): both the result cache
  and the checkpoint an interrupted sweep resumes from;
* :mod:`repro.store.memory` — the in-memory tier, a 1 MiB LRU for the
  life of the process, which also holds recorded sample-sort runs;
* :mod:`repro.store.keys` — canonical, version-salted point keys (a
  stable structural digest of the task tuple + the armed fault plan);
* :mod:`repro.store.flight` — single-flight dedupe so identical
  in-flight points are computed once.

Like ``repro.obs``/``repro.check``/``repro.faults``, activation is a
process-global switch: :func:`set_store` (the CLI ``--cache DIR`` or
``--checkpoint DIR`` flag, the ``serve`` subcommand, or
``QSM_CACHE=DIR`` in the environment) installs an on-disk store, and
:func:`repro.experiments.executor.parallel_map` caches in it, else in
:func:`memory_store` while observability is off — a second identical
sweep executes **zero** simulator points.  Hit/miss/coalesced/in-flight
counters cover both tiers (:func:`counters`) and are mirrored into
:mod:`repro.obs` as ``store.*`` counters whenever observability is
enabled; :func:`set_listener` streams per-point events to the sweep
service (docs/SERVICE.md).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Union

from repro.store.cas import ResultStore, StoreStats
from repro.store.flight import FileFlight, SingleFlight
from repro.store.keys import (
    STORE_VERSION,
    NotStructural,
    canonical,
    digest,
    point_key,
    point_keys,
    request_key,
)
from repro.store.memory import MemoryStore, live_size

__all__ = [
    "ResultStore",
    "MemoryStore",
    "StoreStats",
    "SingleFlight",
    "FileFlight",
    "STORE_VERSION",
    "NotStructural",
    "ENV_VAR",
    "canonical",
    "digest",
    "point_key",
    "point_keys",
    "request_key",
    "live_size",
    "set_store",
    "clear_store",
    "active_store",
    "memory_store",
    "counters",
    "reset_counters",
    "record",
    "notify",
    "set_listener",
    "clear_listener",
    "flight_begin",
    "flight_wait",
    "flight_finish",
]

#: Env var installing a store for a whole process (``QSM_CACHE=DIR``).
ENV_VAR = "QSM_CACHE"

_STORE: Optional[ResultStore] = None
_MEMORY = MemoryStore()
_FLIGHT = SingleFlight()
#: Cross-process single-flight bound to the installed store's directory
#: (two *processes* sharing a store coalesce identical in-flight points,
#: not just two threads — the hardened sweep service runs one process
#: per request).
_CROSS: Optional[FileFlight] = None
_COUNTS: Dict[str, int] = {}
_LISTENER: Optional[Callable[[dict], None]] = None


def set_store(store: Union[ResultStore, str, os.PathLike]) -> ResultStore:
    """Install the process-global result store (a :class:`ResultStore`
    or a directory path) and reset the counters."""
    global _STORE, _CROSS
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    _STORE = store
    _CROSS = FileFlight(store.root / "flight")
    _COUNTS.clear()
    return store


def clear_store() -> None:
    """Uninstall the store (``parallel_map`` reverts to the memory tier)."""
    global _STORE, _CROSS
    _STORE = None
    _CROSS = None


def _flight():
    """The active single-flight table: file-backed (cross-process) when
    a store is installed, the in-process fallback otherwise."""
    return _CROSS if _CROSS is not None else _FLIGHT


def active_store() -> Optional[ResultStore]:
    """The installed store, or ``None`` (the zero-overhead default)."""
    return _STORE


def memory_store() -> MemoryStore:
    """The process's in-memory tier."""
    return _MEMORY


# -- hit/miss/coalesced counters ---------------------------------------
def counters() -> Dict[str, int]:
    """Counters accumulated since :func:`set_store`/:func:`reset_counters`:
    ``hits``, ``misses``, ``coalesced``, ``inflight`` (points that
    entered flight), ``quarantined`` (corrupt objects sidelined on
    read), plus the live ``inflight_now`` gauge."""
    out = dict(_COUNTS)
    out["inflight_now"] = _flight().inflight()
    for name in ("hits", "misses", "coalesced", "inflight", "quarantined"):
        out.setdefault(name, 0)
    return out


def reset_counters() -> None:
    _COUNTS.clear()


#: When non-None, obs mirroring is being deferred (see defer_obs_mirror).
_DEFERRED: Optional[Dict[str, int]] = None


def record(kind: str, n: int = 1, **info: Any) -> None:
    """Bump counter *kind*; mirror into ``repro.obs`` when enabled and
    forward a ``{"counter": kind, ...}`` event to the listener."""
    _COUNTS[kind] = _COUNTS.get(kind, 0) + n
    if _DEFERRED is not None:
        _DEFERRED[kind] = _DEFERRED.get(kind, 0) + n
    else:
        _mirror(kind, n)
    if info:
        notify({"counter": kind, **info})


def _mirror(kind: str, n: int) -> None:
    from repro import obs

    if obs.enabled():
        obs.metrics().counter(f"store.{kind}").inc(n)


def defer_obs_mirror() -> None:
    """Buffer obs-counter mirroring until :func:`flush_obs_mirror`.

    The cache engine's in-process capture loop drains the global obs
    state after every task; a ``store.misses`` increment mirrored
    between two tasks would be swept into the *next* task's stored
    capture and double-counted on every replay.  Deferring keeps the
    parent's own accounting out of the point captures; the live
    :func:`counters` and listener events are unaffected.
    """
    global _DEFERRED
    _DEFERRED = {}


def flush_obs_mirror() -> None:
    global _DEFERRED
    deferred, _DEFERRED = _DEFERRED, None
    for kind, n in sorted((deferred or {}).items()):
        _mirror(kind, n)


# -- per-point event stream (the service's progress channel) -----------
def set_listener(callback: Optional[Callable[[dict], None]]) -> None:
    """Install a per-point event callback (``None`` clears).  Events are
    small dicts like ``{"status": "hit", "key": ..., "fn": ...}``; the
    callback runs on whichever thread executes the sweep, so it must be
    thread-safe (the service bridges into its event loop)."""
    global _LISTENER
    _LISTENER = callback


def clear_listener() -> None:
    set_listener(None)


def notify(event: dict) -> None:
    if _LISTENER is not None:
        _LISTENER(event)


# -- single-flight over the installed store ----------------------------
def flight_begin(key: str) -> bool:
    """Enter *key* into flight; True = leader (must compute + finish).

    With a store installed, flight is coordinated through lock files
    under the store directory, so leadership holds across *processes*
    sharing the store (concurrent service requests), not just threads.
    """
    leader = _flight().begin(key)
    if leader:
        record("inflight")
    return leader


def flight_wait(key: str, timeout: Optional[float] = None) -> bool:
    return _flight().wait(key, timeout)


def flight_finish(key: str) -> None:
    _flight().finish(key)


# Honour QSM_CACHE=DIR at import (mirrors the QSM_OBS/QSM_FAULTS idiom)
# so scripted pipelines can cache without threading --cache everywhere.
_env = os.environ.get(ENV_VAR, "").strip()
if _env and _env.lower() not in ("0", "false", "off"):
    set_store(_env)
