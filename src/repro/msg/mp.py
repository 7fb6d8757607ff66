"""Matched send/receive endpoints over the simulated network.

An :class:`Endpoint` is one node's handle on the network.  ``send``
returns when the local NIC has injected the message (so back-to-back
sends pipeline at the gap rate); ``recv`` blocks until a message
matching ``(src, tag)`` arrives.  Matching is needed because during a
sync several logically distinct streams (plan entries, put data, get
requests, get replies, barrier hops) interleave in one inbox.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.machine.network import Message, Network
from repro.sim import Event


class Endpoint:
    """Node-local message-passing interface."""

    def __init__(self, network: Network, pid: int) -> None:
        self.network = network
        self.pid = pid
        self.sim = network.sim
        self._pending: Deque[Message] = deque()
        self._waiters: List[Tuple[Callable[[Message], bool], Event]] = []
        self._pump_running = False

    # -- sending ----------------------------------------------------------
    def send(
        self, dst: int, tag: Any, nbytes: int, payload: Any = None, order: Optional[int] = None
    ):
        """Generator: inject a message; returns when the NIC is free again.

        *order*, from :meth:`~repro.sim.engine.Simulator.reserve`, fixes
        the message's place among same-instant arrivals.
        """
        msg = Message(
            src=self.pid, dst=dst, tag=tag, nbytes=nbytes, payload=payload, order=order
        )
        yield from self.network.send_from(msg)
        return msg

    def post(self, dst: int, tag: Any, nbytes: int, payload: Any = None) -> None:
        """Fire-and-forget send as a detached process (still pays NIC time)."""
        msg = Message(src=self.pid, dst=dst, tag=tag, nbytes=nbytes, payload=payload)

        def _proc():
            yield from self.network.send_from(msg)

        self.sim.process(_proc())

    # -- receiving --------------------------------------------------------
    def recv(self, src: Optional[int] = None, tag: Any = None):
        """Generator: receive the first message matching ``(src, tag)``.

        ``None`` acts as a wildcard for either field.  Out-of-match
        messages are buffered and stay available to later receives.
        A message already delivered returns at once, without waking the
        inbox pump, as the epoch kernel's counting receive does.
        """

        def matches(m: Message) -> bool:
            return (src is None or m.src == src) and (tag is None or m.tag == tag)

        inbox = self.network.inbox[self.pid]
        while len(inbox):
            self._pending.append(inbox.try_get())
        for i, m in enumerate(self._pending):
            if matches(m):
                del self._pending[i]
                return m

        ev = Event(self.sim)
        self._waiters.append((matches, ev))
        self._ensure_pump()
        msg = yield ev
        return msg

    def _match(self, msg: Message) -> bool:
        """Hand *msg* to the first matching waiter; False if none match."""
        for i, (pred, ev) in enumerate(self._waiters):
            if pred(msg):
                del self._waiters[i]
                ev.succeed(msg)
                return True
        return False

    def _ensure_pump(self) -> None:
        if self._pump_running:
            return
        self._pump_running = True
        self.sim.process(self._pump())

    def _pump(self):
        """Drain the inbox while someone is waiting."""
        inbox = self.network.inbox[self.pid]
        while self._waiters:
            msg = yield inbox.get()
            if not self._match(msg):
                self._pending.append(msg)
        self._pump_running = False


def make_endpoints(network: Network) -> List[Endpoint]:
    """One endpoint per node of *network*."""
    return [Endpoint(network, pid) for pid in range(network.p)]
