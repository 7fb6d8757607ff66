"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it.  Events carry a value (delivered as the result of the
``yield``) or an exception (re-raised inside the waiting process).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.engine import SimulationError, Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *created* → *triggered* (``succeed``/``fail`` called, the
    event is on the queue) → *processed* (callbacks have run).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_ok", "_processed")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._ok = True
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("value read from an untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*, at the current time."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event already triggered")
        self._value = value
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, next(sim._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception (re-raised in waiters)."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._exc = exc
        self._ok = False
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, next(sim._seq), self))
        return self

    # -- callbacks --------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event was already processed, *fn* runs immediately — this
        keeps "wait on an event that already happened" race-free.
        """
        if self._processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def _fire(self) -> None:
        """Called by the simulator when the event comes off the queue."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires a fixed delay after its creation."""

    __slots__ = ("delay",)

    def __init__(
        self, sim: Simulator, delay: float, value: Any = None, order: Optional[int] = None
    ) -> None:
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = delay
        self._value = value
        seq = next(sim._seq) if order is None else order
        heapq.heappush(sim._queue, (sim._now + delay, seq, self))
