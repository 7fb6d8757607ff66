"""FIFO message stores (unbounded mailboxes).

A :class:`Store` is the rendezvous primitive used for message delivery:
producers :meth:`put` items (never blocking), consumers ``yield``
:meth:`get` events and receive items in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Store:
    """An unbounded FIFO queue connecting simulation processes."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item (immediately if available)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns the item or raises :class:`LookupError`."""
        if not self._items:
            raise LookupError(f"store {self.name!r} is empty")
        return self._items.popleft()
