"""Get/put request batches queued between syncs.

Per the bulk-synchronous contract (§2), ``get``/``put`` calls merely
*enqueue* requests; all communication happens inside ``sync()``.  A
:class:`RequestQueue` holds one processor's pending requests for the
current phase; each request carries numpy index/value arrays so that
per-owner splitting stays vectorised.

Enqueueing is the per-call half of a phase's cost, so it does the
least it can: an index array is bounds-checked with one reduction (its
maximum read as unsigned, which also catches negative indices; the
endpoints are computed only to name them in the error), and a
contiguous range is stored as a ``(start, count)`` span.  The
per-owner counting is left to the sync, which groups every
processor's requests by array (:class:`repro.qsmlib.plan.PhaseRequests`).

Semantics implemented (and enforced) from §2:

* values returned by gets issued in a phase reflect the shared memory
  state at the *start* of the phase;
* puts become visible at the *end* of the phase;
* the same location may not be both read and written within one phase
  (checked by the runtime when semantics checking is enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.qsmlib.address_space import SharedArray


class GetHandle:
    """Future for a get; ``data`` is available after the next ``sync()``.

    ``data[k]`` corresponds to ``indices[k]`` of the original request.
    ``origin`` is the enqueue ``file:line``, captured only when the
    phase sanitizer (:mod:`repro.check`) is armed.

    Range requests (``add_get_range``) record only a ``(start, count)``
    span; the explicit index array is materialised lazily the first time
    ``indices`` is read, so the bulk contiguous path never allocates it.
    """

    __slots__ = ("arr", "span", "_indices", "_data", "origin")

    def __init__(
        self,
        arr: SharedArray,
        indices: Optional[np.ndarray] = None,
        origin: Optional[str] = None,
        span: Optional[tuple] = None,
    ) -> None:
        self.arr = arr
        self.span = span
        self._indices = indices
        self._data: Optional[np.ndarray] = None
        self.origin = origin

    @property
    def indices(self) -> np.ndarray:
        idx = self._indices
        if idx is None:
            start, count = self.span
            idx = self._indices = np.arange(start, start + count, dtype=np.int64)
        return idx

    @property
    def ready(self) -> bool:
        return self._data is not None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            where = f" (get enqueued at {self.origin})" if self.origin else ""
            raise RuntimeError(
                "get() result read before sync(); QSM forbids using values "
                f"fetched in the same phase{where}"
            )
        return self._data

    def _fulfill(self, values: np.ndarray) -> None:
        self._data = values


class _Request:
    """Base of one queued access: explicit indices or a contiguous span.

    Exactly one of ``_indices``/``span`` is set at construction; the
    ``indices`` property materialises (and caches) the explicit array on
    demand, so span-only consumers — traffic counting, slice-based
    apply — never pay for it.  ``origin`` is the enqueue ``file:line``,
    captured only when the sanitizer is armed.
    """

    __slots__ = ("arr", "span", "_indices", "origin")

    def __init__(
        self,
        arr: SharedArray,
        indices: Optional[np.ndarray] = None,
        origin: Optional[str] = None,
        span: Optional[tuple] = None,
    ) -> None:
        self.arr = arr
        self.span = span
        self._indices = indices
        self.origin = origin

    @property
    def indices(self) -> np.ndarray:
        idx = self._indices
        if idx is None:
            start, count = self.span
            idx = self._indices = np.arange(start, start + count, dtype=np.int64)
        return idx


class GetRequest(_Request):
    __slots__ = ("handle",)

    def __init__(
        self,
        arr: SharedArray,
        indices: Optional[np.ndarray] = None,
        handle: Optional[GetHandle] = None,
        origin: Optional[str] = None,
        span: Optional[tuple] = None,
    ) -> None:
        # Attributes set inline (not via super().__init__): these run
        # once per enqueued request, the library's hottest call sites.
        self.arr = arr
        self.span = span
        self._indices = indices
        self.origin = origin
        self.handle = handle


class PutRequest(_Request):
    __slots__ = ("values",)

    def __init__(
        self,
        arr: SharedArray,
        indices: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        origin: Optional[str] = None,
        span: Optional[tuple] = None,
    ) -> None:
        self.arr = arr
        self.span = span
        self._indices = indices
        self.origin = origin
        self.values = values


@dataclass
class RequestQueue:
    """All requests one processor queued since the last sync."""

    pid: int
    gets: List[GetRequest] = field(default_factory=list)
    puts: List[PutRequest] = field(default_factory=list)
    #: The armed :class:`repro.check.PhaseSanitizer`, or ``None`` — the
    #: disarmed path pays one load + branch per enqueue call, nothing more.
    sanitizer: Optional[object] = field(default=None, repr=False, compare=False)

    def add_get(self, arr: SharedArray, indices: np.ndarray) -> GetHandle:
        san = self.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        try:
            indices = _as_index_array(arr, indices)
        except IndexError as exc:
            if san is not None:
                san.record_oob(self.pid, arr, "get", exc, origin)
            raise
        handle = GetHandle(arr, indices, origin=origin)
        self.gets.append(GetRequest(arr, indices, handle, origin=origin))
        return handle

    def add_get_range(self, arr: SharedArray, start: int, count: int) -> GetHandle:
        """`add_get` of the contiguous range ``[start, start+count)``.

        Bounds are checked from the endpoints, and the request carries
        only the ``(start, count)`` span — no index array is built
        unless some consumer (sanitizer, kappa tracking) asks for one.
        """
        san = self.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        try:
            _check_range(arr, start, count)
        except IndexError as exc:
            if san is not None:
                san.record_oob(self.pid, arr, "get", exc, origin)
            raise
        span = (start, count)
        handle = GetHandle(arr, origin=origin, span=span)
        self.gets.append(GetRequest(arr, handle=handle, origin=origin, span=span))
        return handle

    def add_put(self, arr: SharedArray, indices: np.ndarray, values) -> None:
        san = self.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        if san is not None:
            san.check_put_values(self.pid, arr, values, origin)
        try:
            indices = _as_index_array(arr, indices)
        except IndexError as exc:
            if san is not None:
                san.record_oob(self.pid, arr, "put", exc, origin)
            raise
        values = self._coerce_put_values(arr, indices, values)
        self.puts.append(PutRequest(arr, indices, values, origin=origin))

    def add_put_range(self, arr: SharedArray, start: int, values) -> None:
        """`add_put` to the contiguous range starting at *start*."""
        san = self.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        if san is not None:
            san.check_put_values(self.pid, arr, values, origin)
        # np.array always copies, giving the snapshot the old
        # asarray-then-copy pair produced in exactly one pass; a scalar
        # reshapes to the same single-element row the broadcast made.
        values = np.array(values, dtype=arr.dtype).reshape(-1)
        try:
            _check_range(arr, start, values.size)
        except IndexError as exc:
            if san is not None:
                san.record_oob(self.pid, arr, "put", exc, origin)
            raise
        self.puts.append(
            PutRequest(arr, values=values, origin=origin, span=(start, values.size))
        )

    def _coerce_put_values(
        self, arr: SharedArray, indices: np.ndarray, values
    ) -> np.ndarray:
        """Validate values against *indices* at enqueue time.

        Scalars broadcast; otherwise the value count must equal the index
        count (any shape — values are flattened to match the flattened
        index array).  A mismatch raises here, per-pid, instead of
        surfacing as an opaque numpy broadcast error inside the sync
        engine.
        """
        values = np.asarray(values, dtype=arr.dtype)
        if values.ndim == 0:
            return np.broadcast_to(values, indices.shape).copy()
        if values.size != indices.size:
            raise ValueError(
                f"put shape mismatch on array {arr.name!r} (pid {self.pid}): "
                f"{indices.size} indices vs {values.size} values "
                f"(value shape {values.shape})"
            )
        return values.reshape(indices.shape).copy()

    def clear(self) -> None:
        self.gets.clear()
        self.puts.clear()

    @property
    def empty(self) -> bool:
        return not self.gets and not self.puts


def _as_index_array(arr: SharedArray, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).ravel()
    # Read as unsigned, a negative index is at least 2**63, above any
    # array length, so one reduction checks both bounds.
    if idx.size and idx.view(np.uint64).max() >= arr.n:
        lo, hi = int(idx.min()), int(idx.max())
        raise IndexError(
            f"indices [{lo}, {hi}] out of bounds for {arr.name!r} of length {arr.n}"
        )
    return idx


def _check_range(arr: SharedArray, start: int, count: int) -> None:
    if count and (start < 0 or start + count > arr.n):
        raise IndexError(
            f"indices [{start}, {start + count - 1}] out of bounds for "
            f"{arr.name!r} of length {arr.n}"
        )
