"""The per-processor programming interface of the QSM library.

A QSM program is a Python generator taking one :class:`QSMContext`.
Within a phase it may:

* read/write its node-local memory directly (``ctx.local(arr)`` views),
  charging the work via ``ctx.charge`` / ``ctx.charge_cycles``;
* enqueue shared-memory traffic with ``ctx.get*`` / ``ctx.put*``;
* allocate/free shared arrays collectively (``ctx.alloc`` / ``ctx.free``).

Phases are delimited by ``yield ctx.sync()``; get handles become
readable only after the sync, and puts become visible only after it —
the driver enforces both.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.machine.cpu import CPUModel, OpProfile
from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.layout import Layout
from repro.qsmlib.requests import GetHandle, RequestQueue


class SyncToken:
    """Marker yielded by programs to end a phase."""

    __slots__ = ("pid",)

    def __init__(self, pid: int) -> None:
        self.pid = pid


class QSMContext:
    """One processor's view of the shared-memory machine."""

    def __init__(
        self,
        space: AddressSpace,
        pid: int,
        rng: np.random.Generator,
        cpu: CPUModel,
    ) -> None:
        self.space = space
        self.pid = pid
        self.p = space.p
        self.rng = rng
        self.cpu = cpu
        self.queue = RequestQueue(pid)
        self._compute_cycles = 0.0
        self._op_count = 0.0
        self._observations: list = []
        self._alloc_requests: Dict[str, tuple] = {}
        self._free_requests: list = []

    # ------------------------------------------------------------------
    # Local computation accounting
    # ------------------------------------------------------------------
    def charge(self, profile: OpProfile) -> float:
        """Charge a chunk of local work described by *profile*; returns cycles.

        A profile whose instruction or cycle count is not finite raises
        :class:`ValueError` (see :meth:`CPUModel.cost
        <repro.machine.cpu.CPUModel.cost>`).
        """
        cycles, total = self.cpu.cost(profile)
        self._compute_cycles += cycles
        self._op_count += total
        return cycles

    def charge_cycles(self, cycles: float, ops: float = 0.0) -> None:
        """Charge raw cycles (and optionally abstract ops) directly.

        Charges must be finite and nonnegative — NaN/inf would silently
        poison every downstream phase timing.
        """
        if not (math.isfinite(cycles) and math.isfinite(ops)):
            raise ValueError(
                f"charges must be finite, got cycles={cycles!r}, ops={ops!r}"
            )
        if cycles < 0 or ops < 0:
            raise ValueError("charges must be nonnegative")
        self._compute_cycles += cycles
        self._op_count += ops

    # ------------------------------------------------------------------
    # Shared memory access
    # ------------------------------------------------------------------
    def local(self, arr: SharedArray) -> np.ndarray:
        """This node's local portion of *arr* (BLOCKED layout) as a view."""
        return arr.local_view(self.pid)

    def local_offset(self, arr: SharedArray) -> int:
        return arr.local_offset(self.pid)

    def get(self, arr: SharedArray, indices) -> GetHandle:
        """Enqueue a read of ``arr[indices]``; data available after sync."""
        return self.queue.add_get(arr, indices)

    def get_range(self, arr: SharedArray, start: int, count: int) -> GetHandle:
        return self.queue.add_get_range(arr, start, count)

    def put(self, arr: SharedArray, indices, values) -> None:
        """Enqueue a write of ``values`` to ``arr[indices]``; visible after sync."""
        self.queue.add_put(arr, indices, values)

    def put_range(self, arr: SharedArray, start: int, values) -> None:
        self.queue.add_put_range(arr, start, values)

    # ------------------------------------------------------------------
    # Collective allocation (appendix: "allocate and register")
    # ------------------------------------------------------------------
    def alloc(
        self,
        name: str,
        n: int,
        layout: Layout = Layout.BLOCKED,
        dtype=np.int64,
    ) -> "SharedArrayRef":
        """Collectively allocate a shared array.

        Every processor must call ``alloc`` with identical arguments in
        the same phase; the array is usable after the next sync (its
        registration is part of the sync, as in the appendix programs).
        Returns a :class:`SharedArrayRef` that resolves after the sync.
        """
        spec = (n, layout, np.dtype(dtype))
        if name in self._alloc_requests:
            prev_spec, ref, _origin = self._alloc_requests[name]
            if prev_spec != spec:
                raise ValueError(f"conflicting alloc specs for {name!r} in one phase")
            return ref
        san = self.queue.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        ref = SharedArrayRef(name)
        self._alloc_requests[name] = (spec, ref, origin)
        return ref

    def free(self, arr_or_ref) -> None:
        """Collectively unregister a shared array at the next sync."""
        san = self.queue.sanitizer
        origin = san.enqueue_origin() if san is not None else None
        self._free_requests.append((arr_or_ref, origin))

    # ------------------------------------------------------------------
    def observe(self, key: str, value: float) -> None:
        """Report an algorithm-level observation (B, r, x_i skews, ...)."""
        self._observations.append((key, float(value)))

    def sync(self) -> SyncToken:
        """End the current phase (programs do ``yield ctx.sync()``)."""
        return SyncToken(self.pid)

    # -- driver-side harvest (not part of the program API) ----------------
    def _drain_compute(self) -> tuple:
        out = (self._compute_cycles, self._op_count)
        self._compute_cycles = 0.0
        self._op_count = 0.0
        return out

    def _drain_observations(self) -> list:
        out = self._observations
        self._observations = []
        return out


class SharedArrayRef:
    """Deferred handle returned by :meth:`QSMContext.alloc`.

    Resolves to the real :class:`SharedArray` after the allocating sync;
    attribute access and indexing forward to it once bound.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._arr: Optional[SharedArray] = None

    def _bind(self, arr: SharedArray) -> None:
        self._arr = arr

    @property
    def array(self) -> SharedArray:
        if self._arr is None:
            raise RuntimeError(
                f"shared array {self._name!r} is not registered yet; "
                "it becomes usable after the sync following alloc()"
            )
        return self._arr

    def __getattr__(self, item: str) -> Any:
        return getattr(self.array, item)

    def __len__(self) -> int:
        return len(self.array)
