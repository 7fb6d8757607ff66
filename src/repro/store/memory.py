"""In-memory tier of the result store: an LRU of blobs under a byte budget.

It has the disk store's blob and capture surface and lives as long as
the process.  It holds bytes, not objects, so a caller that mutates a
returned result cannot change what a later replay returns.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from typing import Any, Optional

__all__ = ["MemoryStore", "MEMO_BUDGET_BYTES", "MEMO_ENTRY_CAP_BYTES"]

#: Byte budget of the memory tier: blobs plus their keys.
MEMO_BUDGET_BYTES = 1 << 20

#: Largest entry (key plus blob) the memory tier keeps: one ~90 KB fig3
#: run record would otherwise displace ~1,000 sweep points.
MEMO_ENTRY_CAP_BYTES = MEMO_BUDGET_BYTES // 16


class MemoryStore:
    """LRU of blobs under a byte budget, guarded by a lock."""

    def __init__(self, budget: int = MEMO_BUDGET_BYTES) -> None:
        self.budget = budget
        self.entry_cap = min(MEMO_ENTRY_CAP_BYTES, budget)
        self.nbytes = 0
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._blobs)

    def get_blob(self, key: str) -> Optional[bytes]:
        with self._lock:
            blob = self._blobs.get(key)
            if blob is not None:
                self._blobs.move_to_end(key)
            return blob

    def put_blob(self, key: str, payload: bytes) -> bool:
        """Keep *payload* under *key*, evicting the least recently used
        entries to fit; an entry above the cap is not kept."""
        size = len(key) + len(payload)
        if size > self.entry_cap:
            return False
        with self._lock:
            old = self._blobs.pop(key, None)
            if old is not None:
                self.nbytes -= len(key) + len(old)
            self._blobs[key] = payload
            self.nbytes += size
            while self.nbytes > self.budget:
                evicted, evicted_blob = self._blobs.popitem(last=False)
                self.nbytes -= len(evicted) + len(evicted_blob)
        return True

    def put_capture(self, key: str, capture: Any) -> bool:
        return self.put_blob(key, pickle.dumps(capture, protocol=pickle.HIGHEST_PROTOCOL))

    def get_capture(self, key: str) -> Optional[Any]:
        blob = self.get_blob(key)
        return None if blob is None else pickle.loads(blob)

    def clear(self) -> None:
        with self._lock:
            self._blobs.clear()
            self.nbytes = 0
