"""FCFS resources with finite capacity.

Resources model contended servers: NIC send/receive engines, memory
banks, a snooping bus.  A process requests a slot, holds it for a
service time, and releases it; waiters are granted in FIFO (or priority)
order, which keeps the kernel deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Optional

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.monitor import TimeWeightedStat


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """A finite-capacity FCFS server.

    Usage inside a process::

        req = nic.request()
        yield req
        yield sim.timeout(service_cycles)
        nic.release(req)

    or equivalently with the :meth:`serve` helper::

        yield from nic.serve(service_cycles)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set = set()
        self._waiters: deque = deque()
        self.queue_stat = TimeWeightedStat(sim)
        self.busy_stat = TimeWeightedStat(sim)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._waiters.append(req)
            self.queue_stat.record(len(self._waiters))
        return req

    def release(self, req: Request) -> Optional[Request]:
        """Free *req*'s slot; returns the waiting request granted it, if any."""
        if req not in self._users:
            raise SimulationError("release() of a request that does not hold the resource")
        self._users.discard(req)
        self.busy_stat.record(len(self._users))
        if self._waiters:
            nxt = self._waiters.popleft()
            self.queue_stat.record(len(self._waiters))
            self._grant(nxt)
            return nxt
        return None

    def serve(self, hold: float):
        """Generator helper: acquire, hold for *hold* cycles, release."""
        req = self.request()
        yield req
        yield self.sim.timeout(hold)
        self.release(req)

    def _grant(self, req: Request) -> None:
        self._users.add(req)
        self.busy_stat.record(len(self._users))
        req.succeed(req)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name or id(self):} {len(self._users)}/{self.capacity} busy, "
            f"{len(self._waiters)} queued>"
        )


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by (priority, arrival)."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._heap: list = []
        self._tiebreak = itertools.count()

    def request(self, priority: int = 0) -> Request:  # type: ignore[override]
        req = Request(self, priority)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            heapq.heappush(self._heap, (priority, next(self._tiebreak), req))
            self.queue_stat.record(len(self._heap))
        return req

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    def release(self, req: Request) -> None:
        if req not in self._users:
            raise SimulationError("release() of a request that does not hold the resource")
        self._users.discard(req)
        self.busy_stat.record(len(self._users))
        while self._heap and len(self._users) < self.capacity:
            _prio, _tb, nxt = heapq.heappop(self._heap)
            self.queue_stat.record(len(self._heap))
            self._grant(nxt)
