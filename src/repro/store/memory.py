"""In-memory tier of the result store: an LRU under a byte budget.

It has the disk store's blob and capture surface and lives as long as
the process.  Sweep points are held as bytes (pickled captures), so a
caller that mutates a returned result cannot change what a later replay
returns.  Recorded runs (:func:`repro.experiments.executor.recorded_run`)
are held as live objects (:meth:`MemoryStore.put_object`), so neither
keeping nor recalling one pickles or compresses it; their keeper hands
out copies whose shared arrays are read-only.  Both kinds share one
account: an entry is charged its key plus its bytes, a live object the
size its keeper gives (:func:`live_size` of the arrays it holds), and
one budget, entry cap and LRU order cover them all.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from typing import Any, Iterable, Optional, Union

__all__ = [
    "MemoryStore",
    "MEMO_BUDGET_BYTES",
    "MEMO_ENTRY_CAP_BYTES",
    "LIVE_ARRAY_OVERHEAD_BYTES",
    "live_size",
]

#: Byte budget of the memory tier: entries plus their keys.  A live
#: recorded sample-sort run is charged ~39 KB at p = 16 (its pickle,
#: compressed, was ~2 KB), and a full ``all`` prices 80 of them on every
#: fig4 and fig6 machine in turn, so the budget holds them all with its
#: sweep points: an LRU smaller than such a cycle misses on every
#: lookup.  CI pins the number of programs a full ``all`` runs.
MEMO_BUDGET_BYTES = 4 << 20

#: Largest entry (key plus blob) the memory tier keeps: one ~90 KB fig3
#: run record would otherwise displace ~1,000 sweep points.
MEMO_ENTRY_CAP_BYTES = 64 << 10

#: What a live object is charged per array it holds beyond the array's
#: own bytes: the array object and its share of the records, lists and
#: small values around it.  A recorded sample-sort run holds ~57 arrays;
#: at p = 16 they hold ~15.5 KB, and a walk of every object the run
#: reaches, each counted by ``sys.getsizeof``, read ~39 KB.
LIVE_ARRAY_OVERHEAD_BYTES = 400


def live_size(arrays: Iterable[Any]) -> int:
    """The bytes a live object holding *arrays* (ndarrays) is charged:
    each distinct array's ``nbytes`` plus
    :data:`LIVE_ARRAY_OVERHEAD_BYTES`.  It depends on the arrays' shapes
    and dtypes alone, not on the interpreter's object sizes."""
    distinct = {id(arr): arr for arr in arrays}.values()
    return sum(arr.nbytes + LIVE_ARRAY_OVERHEAD_BYTES for arr in distinct)


class _Live:
    """A live object the tier holds, and the bytes it is charged."""

    __slots__ = ("obj", "size")

    def __init__(self, obj: Any, size: int) -> None:
        self.obj = obj
        self.size = size

    def __len__(self) -> int:
        return self.size


class MemoryStore:
    """LRU of blobs and live objects under a byte budget, guarded by a
    lock."""

    def __init__(self, budget: int = MEMO_BUDGET_BYTES) -> None:
        self.budget = budget
        self.entry_cap = min(MEMO_ENTRY_CAP_BYTES, budget)
        self.nbytes = 0
        #: key -> blob or :class:`_Live`; an entry costs ``len(key) +
        #: len(value)``.
        self._entries: "OrderedDict[str, Union[bytes, _Live]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, key: str, kind: type) -> Any:
        """The entry under *key* if it is a *kind*, now the most recently
        used; an entry of the other kind is a miss and stays put."""
        with self._lock:
            value = self._entries.get(key)
            if not isinstance(value, kind):
                return None
            self._entries.move_to_end(key)
            return value

    def _put(self, key: str, value: Union[bytes, _Live]) -> bool:
        """Keep *value* under *key*, evicting the least recently used
        entries to fit; an entry above the cap is not kept."""
        size = len(key) + len(value)
        if size > self.entry_cap:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= len(key) + len(old)
            self._entries[key] = value
            self.nbytes += size
            while self.nbytes > self.budget:
                evicted, evicted_value = self._entries.popitem(last=False)
                self.nbytes -= len(evicted) + len(evicted_value)
        return True

    def get_blob(self, key: str) -> Optional[bytes]:
        return self._get(key, bytes)

    def put_blob(self, key: str, payload: bytes) -> bool:
        return self._put(key, payload)

    def put_capture(self, key: str, capture: Any) -> bool:
        return self.put_blob(key, pickle.dumps(capture, protocol=pickle.HIGHEST_PROTOCOL))

    def get_capture(self, key: str) -> Optional[Any]:
        blob = self.get_blob(key)
        return None if blob is None else pickle.loads(blob)

    def get_object(self, key: str) -> Optional[Any]:
        """The live object kept under *key*, itself, not a copy."""
        live = self._get(key, _Live)
        return None if live is None else live.obj

    def put_object(self, key: str, obj: Any, size: int) -> bool:
        """Keep *obj* itself under *key*, charged *size* bytes (see
        :func:`live_size`); whoever keeps it must not mutate it
        afterwards."""
        return self._put(key, _Live(obj, size))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
