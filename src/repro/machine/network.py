"""The simulated interconnect: per-node NICs, parametric wires.

Matches the Armadillo network model of §3.1.2:

* a *gap* ``g`` in cycles/byte limits per-NIC bandwidth,
* a per-message *overhead* ``o`` occupies the NIC controller on both
  the sending and the receiving side,
* a *latency* ``l`` delays each message in flight,
* there is **no network contention** — only the endpoints serialise.

Each node owns two FCFS :class:`~repro.sim.resource.Resource`\\ s (send
engine, receive engine), so messages from one node pipeline behind each
other while messages to distinct nodes proceed in parallel — this is
what lets bulk-synchronous programs hide ``l`` and amortise ``o``, the
central phenomenon the paper measures.

Under a :class:`~repro.machine.config.ClusterTopology` the same
structure is priced per *tier*: an intra-node message pays the cheap
shared-memory ``g/o/l`` on both sides and drains through the
destination core's private receive engine, while an inter-node message
pays the NetworkConfig tier to inject and then contends for the
destination **node's** shared wire :class:`Resource` — every core of a
node shares that ingress bandwidth, which is exactly the receive-side
bottleneck the cluster model adds (see docs/MODEL.md).  Every message
still crosses exactly one receive resource, so the epoch kernel stays
bit-identical to this per-message model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.machine.config import FlatTopology, NetworkConfig, Topology
from repro.sim import Event, Process, Resource, Simulator, Store
from repro.sim.engine import _Deferred
from repro.sim.monitor import TallyStat


@dataclass(slots=True)
class Message:
    """One message in flight between two nodes."""

    src: int
    dst: int
    tag: Any
    nbytes: int
    payload: Any = None
    sent_at: float = 0.0
    delivered_at: float = 0.0
    #: Heap tie-break number reserved for the arrival (see
    #: :meth:`~repro.sim.engine.Simulator.reserve`), or ``None``.
    order: Optional[int] = None
    # Set by transfer() when a caller wants to await delivery.
    _done_event: Optional[Event] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")


class _ClusterTiers:
    """Precomputed per-tier charges of one :class:`ClusterTopology`.

    One instance per network; ``None`` on the flat path, so flat keeps
    the exact pre-topology arithmetic (and zero per-message overhead).
    """

    __slots__ = (
        "node_of",
        "n_nodes",
        "intra_overhead",
        "intra_gap",
        "intra_latency",
        "inter_overhead",
        "inter_gap",
        "inter_latency",
        "wire_gap",
    )

    def __init__(self, topology, config: NetworkConfig, p: int) -> None:
        c = topology.cores_per_node
        self.node_of = [pid // c for pid in range(p)]
        self.n_nodes = (p + c - 1) // c
        self.intra_overhead = topology.intra_overhead_cycles
        self.intra_gap = topology.intra_gap_cycles_per_byte
        self.intra_latency = topology.intra_latency_cycles
        self.inter_overhead = config.overhead_cycles
        self.inter_gap = config.gap_cycles_per_byte
        self.inter_latency = config.latency_cycles
        wire = topology.node_wire_gap_cycles_per_byte
        self.wire_gap = config.gap_cycles_per_byte if wire is None else wire

    def is_intra(self, src: int, dst: int) -> bool:
        return self.node_of[src] == self.node_of[dst]

    def send_cycles(self, src: int, dst: int, nbytes: int) -> float:
        """Sender-side NIC occupancy to inject one message."""
        if self.node_of[src] == self.node_of[dst]:
            return self.intra_overhead + nbytes * self.intra_gap
        return self.inter_overhead + nbytes * self.inter_gap

    def recv_cycles(self, src: int, dst: int, nbytes: int) -> float:
        """Receive-side hold: the core's engine (intra) or the shared
        node wire's drain rate (inter)."""
        if self.node_of[src] == self.node_of[dst]:
            return self.intra_overhead + nbytes * self.intra_gap
        return self.inter_overhead + nbytes * self.wire_gap

    def latency(self, src: int, dst: int) -> float:
        if self.node_of[src] == self.node_of[dst]:
            return self.intra_latency
        return self.inter_latency


class Network:
    """``p`` NIC pairs plus wires, all inside one simulator."""

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        p: int,
        faults=None,
        topology: Optional[Topology] = None,
    ) -> None:
        if p < 1:
            raise ValueError(f"need at least one node, got p={p}")
        self.sim = sim
        self.config = config
        self.p = p
        self.topology = FlatTopology() if topology is None else topology
        #: ``None`` on the flat (pre-topology, bit-pinned) path.
        self._tiers: Optional[_ClusterTiers] = (
            None if self.topology.is_flat else _ClusterTiers(self.topology, config, p)
        )
        #: Per-node shared ingress wires (cluster topology only): every
        #: inter-node delivery to a core of node i serialises here.
        self.node_wire: List[Resource] = (
            []
            if self._tiers is None
            else [
                Resource(sim, capacity=1, name=f"node{i}.wire")
                for i in range(self._tiers.n_nodes)
            ]
        )
        #: Optional :class:`~repro.faults.state.FaultState` — ``None``
        #: (the default) is the zero-overhead path: one load + branch
        #: per wire crossing, never a draw.
        self.faults = faults
        self.send_engine: List[Resource] = [
            Resource(sim, capacity=1, name=f"nic{pid}.send") for pid in range(p)
        ]
        self.recv_engine: List[Resource] = [
            Resource(sim, capacity=1, name=f"nic{pid}.recv") for pid in range(p)
        ]
        self.inbox: List[Store] = [Store(sim, name=f"inbox{pid}") for pid in range(p)]
        self.latency_stat = TallyStat()
        self.bytes_sent = 0
        self.messages_sent = 0
        #: Deliveries that bounced off a full receive buffer (congestion).
        self.retries = 0
        # Receiver cycles owed for NACK handling, collected by the next
        # successful delivery at that node.
        self._bounce_debt = [0.0] * p
        #: Messages waiting for a receive resource, by their request.
        self._queued: Dict[Any, Tuple[Message, float]] = {}
        if sim.obs is not None:
            sim.obs.add_finalizer(self._harvest_obs)

    def _harvest_obs(self, observer) -> None:
        """Fold this network's lifetime statistics into the metrics
        registry (called once by :meth:`Observer.finalize`)."""
        m = observer.metrics
        m.counter("net.bytes_injected").inc(self.bytes_sent)
        m.counter("net.messages_sent").inc(self.messages_sent)
        if self.retries:
            m.counter("net.retries").inc(self.retries)
        m.histogram("net.delivery_latency").fold_tally(self.latency_stat)

    # ------------------------------------------------------------------
    @property
    def ideal_delivery(self) -> bool:
        """True when every delivery is fixed by its injection: receive
        buffers are unbounded, so no message bounces off a full one, and
        no fault plan drops or delays wire crossings.  The epoch kernel
        prices only such networks, and only on them does a sync message
        keep the arrival place its sender reserved (see
        :meth:`send_from`)."""
        if self.faults is not None and self.faults.plan.perturbs_network:
            return False
        return self.config.recv_buffer_slots == 0

    def _recv_resource(self, msg: Message) -> Resource:
        """The single FCFS resource this delivery drains through: the
        destination core's engine, or (inter-node under a cluster
        topology) the destination node's shared wire."""
        tiers = self._tiers
        if tiers is None or tiers.node_of[msg.src] == tiers.node_of[msg.dst]:
            return self.recv_engine[msg.dst]
        return self.node_wire[tiers.node_of[msg.dst]]

    def transfer(self, msg: Message) -> Process:
        """Launch the full life of *msg*; returns the (awaitable) process.

        The returned process fires when the message has been deposited
        in the destination inbox.  The *sender-side* completion (NIC
        free again) is what a sending node should wait on — use
        :meth:`send_from` inside node processes for that.
        """
        self._check_ids(msg)
        return self.sim.process(self._transfer_proc(msg))

    def send_from(self, msg: Message, resume: Optional[int] = None):
        """Generator for the *sender's* view: returns once the local NIC
        has finished injecting the message; delivery continues in the
        background.

        On an ideal network a message with a reserved ``order`` arrives
        under that heap place, scheduled as soon as its injection starts,
        so same-instant arrivals queue in reserved order; any other
        message crosses the wire in a process of its own.  A reserved
        *resume* place likewise fixes when, among the events of the
        instant the injection ends, the sender continues.
        """
        self._check_ids(msg)
        sim = self.sim
        tiers = self._tiers
        if tiers is None:
            send_cycles = self.config.message_send_cycles(msg.nbytes)
        else:
            send_cycles = tiers.send_cycles(msg.src, msg.dst, msg.nbytes)
        engine = self.send_engine[msg.src]
        req = engine.request()
        yield req
        reserved = msg.order is not None and self.ideal_delivery
        if reserved:
            arrival = sim.now + send_cycles + self._latency(msg)
            sim.schedule_at(_Deferred(partial(self._arrive, msg)), arrival, msg.order)
        yield sim.timeout(send_cycles, order=resume if reserved else None)
        engine.release(req)
        msg.sent_at = sim.now
        self.bytes_sent += msg.nbytes
        self.messages_sent += 1
        obs = sim.obs
        if obs is not None:
            obs.instant("net.inject", msg.src, dst=msg.dst, bytes=msg.nbytes)
        if not reserved:
            sim.process(self._wire_and_recv(msg))

    def _transfer_proc(self, msg: Message):
        yield from self.send_from(msg)
        # Wait for delivery too: _deliver succeeds the attached event.
        done = self.sim.event()
        msg._done_event = done
        yield done
        return msg

    def _latency(self, msg: Message) -> float:
        tiers = self._tiers
        if tiers is None:
            return self.config.latency_cycles
        return tiers.latency(msg.src, msg.dst)

    def _arrive(self, msg: Message) -> None:
        """The message queues FCFS at its receive resource: service
        starts now if it is idle, else in the event that delivers the
        message ahead (not a later grant event), as in the epoch kernel."""
        tiers = self._tiers
        if tiers is None:
            hold = self.config.message_recv_cycles(msg.nbytes) + self._bounce_debt[msg.dst]
        else:
            hold = tiers.recv_cycles(msg.src, msg.dst, msg.nbytes) + self._bounce_debt[msg.dst]
        self._bounce_debt[msg.dst] = 0.0
        engine = self._recv_resource(msg)
        req = engine.request()
        if req.triggered:
            self.sim.defer(hold, partial(self._deliver, msg, engine, req))
        else:
            self._queued[req] = (msg, hold)

    def _deliver(self, msg: Message, engine: Resource, req) -> None:
        """Service done: start the next queued message, then deposit
        this one in the destination inbox."""
        granted = engine.release(req)
        if granted is not None:
            nxt, hold = self._queued.pop(granted)
            self.sim.defer(hold, partial(self._deliver, nxt, engine, granted))
        msg.delivered_at = self.sim.now
        self.latency_stat.record(msg.delivered_at - msg.sent_at)
        obs = self.sim.obs
        if obs is not None:
            obs.instant("net.deliver", msg.dst, src=msg.src, bytes=msg.nbytes)
        self.inbox[msg.dst].put(msg)
        done = msg._done_event
        if done is not None:
            done.succeed(msg)

    def _wire_and_recv(self, msg: Message):
        tiers = self._tiers
        intra = tiers is not None and tiers.node_of[msg.src] == tiers.node_of[msg.dst]
        faults = self.faults
        # Under a cluster topology only inter-node crossings are
        # faultable: intra-node transfers are shared-memory traffic, not
        # wire traffic (docs/MODEL.md).  The flat path is untouched, so
        # the seeded fault draw order matches the pre-topology goldens.
        if faults is not None and faults.plan.perturbs_network and not intra:
            delivered = yield from self._faulty_wire(msg, faults)
            if not delivered:
                return  # message declared lost; faults.fatal is set
        else:
            latency = self._latency(msg)
            if latency:
                yield self.sim.timeout(latency)
        engine = self._recv_resource(msg)
        slots = self.config.recv_buffer_slots
        if slots:
            # Receiver-overrun model: a message arriving at a full
            # buffer bounces and retries after a backoff, re-crossing
            # the wire (the NACK/retransmit of Brewer & Kuszmaul).  Each
            # bounce also steals NACK-handling cycles from the receive
            # engine, collected by the next successful delivery.
            attempt = 0
            while engine.queue_length >= slots:
                self.retries += 1
                self._bounce_debt[msg.dst] += self.config.nack_cycles
                # Exponential backoff (capped), as real transports use —
                # also what keeps a retry storm from melting the fabric.
                backoff = self.config.retry_backoff_cycles * (1 << min(attempt, 10))
                attempt += 1
                yield self.sim.timeout(backoff + self.config.latency_cycles)
        self._arrive(msg)

    def _faulty_wire(self, msg: Message, faults) -> object:
        """Generator: cross the wire under an armed fault plan.

        Each crossing may be dropped (seeded draw).  On a drop the
        sender's transport layer times out and retransmits with
        exponential backoff; the retransmitted copy re-occupies the
        send NIC and re-pays the full ``o + g·bytes`` injection charge,
        so retransmit traffic is costed exactly like first sends.
        Surviving crossings may carry extra exponential delay jitter.
        Returns True when the message made it across, False when it
        exceeded ``max_retransmits`` and was declared lost (the run's
        :class:`~repro.faults.state.FaultError` is parked on
        ``faults.fatal`` for the sync engine to surface).
        """
        from repro.faults.state import FaultError
        from repro.obs import FAULT_TRACK

        sim = self.sim
        plan = faults.plan
        send = self.send_engine[msg.src]
        send_cycles = self.config.message_send_cycles(msg.nbytes)
        attempt = 0
        while plan.drop_prob and faults.message_dropped():
            attempt += 1
            faults.drops += 1
            obs = sim.obs
            if obs is not None:
                obs.instant(
                    "fault.drop", FAULT_TRACK, src=msg.src, dst=msg.dst, attempt=attempt
                )
            if attempt > plan.max_retransmits:
                faults.lost_messages += 1
                if faults.fatal is None:
                    faults.fatal = FaultError(
                        f"message {msg.src}->{msg.dst} ({msg.nbytes} B, tag "
                        f"{msg.tag!r}) lost after {plan.max_retransmits} "
                        f"retransmits (drop_prob={plan.drop_prob})"
                    )
                return False
            # Sender-side timeout, growing exponentially per attempt.
            wait = plan.retransmit_timeout_cycles * (
                plan.retransmit_backoff_factor ** (attempt - 1)
            )
            yield sim.timeout(wait)
            # The retransmitted copy queues behind current traffic at
            # the send NIC and re-pays the o + g·bytes injection charge.
            yield from send.serve(send_cycles)
            self.bytes_sent += msg.nbytes
            self.messages_sent += 1
            faults.retransmits += 1
            faults.retransmit_bytes += msg.nbytes
            obs = sim.obs
            if obs is not None:
                obs.instant(
                    "fault.retransmit",
                    FAULT_TRACK,
                    src=msg.src,
                    dst=msg.dst,
                    bytes=msg.nbytes,
                    attempt=attempt,
                )
        delay = self.config.latency_cycles
        if plan.delay_jitter_cycles:
            delay += faults.jitter_draw()
        if delay:
            yield sim.timeout(delay)
        return True

    # ------------------------------------------------------------------
    def _check_ids(self, msg: Message) -> None:
        if not (0 <= msg.src < self.p and 0 <= msg.dst < self.p):
            raise ValueError(f"message endpoints out of range: {msg.src}->{msg.dst} (p={self.p})")
        if msg.src == msg.dst:
            raise ValueError("self-messages do not traverse the network")
