"""Interconnect models between processors and memory banks.

Each model describes how one message crosses the medium from node
``src`` to node ``dst`` as a tuple of stages (:meth:`Interconnect.trip`)
that the microbenchmark kernel (:mod:`repro.membank.kernel`) replays: a
fixed delay ``(DELAY, cycles)``, or ``(r, cycles)`` to acquire, hold and
release FCFS resource ``r`` — a shared medium such as a bus or an
Ethernet link, with :attr:`Interconnect.capacities` ``[r]`` slots.  An
access runs ``trip(pid, bank)`` to the bank and ``trip(bank, pid)``
back.
"""

from __future__ import annotations

from typing import Tuple

from repro.membank.kernel import DELAY, Stage
from repro.util.validation import check_nonnegative, check_positive


class Interconnect:
    """Base class; subclasses model one medium."""

    #: Slots of each FCFS resource the stages name, by index.
    capacities: Tuple[int, ...] = ()

    def trip(self, src: int, dst: int) -> Tuple[Stage, ...]:  # pragma: no cover - abstract
        """The stages of one message from node *src* to node *dst*."""
        raise NotImplementedError

    def per_access_target_occupancy(self) -> float:
        """Exclusive time one access holds a *target-node-local* shared
        stage (link, port) — the interconnect's contribution to a
        hot-spot bottleneck.  Zero when the medium has no per-target
        serialisation (used by the analytic model's Conflict bound)."""
        return 0.0

    def per_access_global_occupancy(self) -> tuple:
        """(cycles, capacity) of the *globally shared* stage each access
        occupies — e.g. the snooping bus.  ``(0.0, 1)`` when none."""
        return (0.0, 1)


class BusInterconnect(Interconnect):
    """A split-transaction snooping bus (the Sun UltraEnterprise SMP).

    The address/snoop phase occupies the shared bus; the wide data path
    is modelled inside the same occupancy.  ``width`` > 1 models a
    pipelined/split bus that overlaps transactions.
    """

    def __init__(self, occupancy_cycles: float, width: int = 2) -> None:
        check_positive("occupancy_cycles", occupancy_cycles)
        if width < 1:
            raise ValueError(f"bus width must be >= 1, got {width}")
        self.occupancy_cycles = occupancy_cycles
        self.width = width
        self.capacities = (width,)
        self._trip = ((0, occupancy_cycles),)

    def trip(self, src: int, dst: int) -> Tuple[Stage, ...]:
        return self._trip

    def per_access_global_occupancy(self) -> tuple:
        # Two bus grants per access (address + data return) on a bus
        # with `width` concurrent transactions.
        return (2.0 * self.occupancy_cycles, self.width)


class EthernetInterconnect(Interconnect):
    """TCP over 10 Mb/s switched Ethernet (the NOW cluster).

    Every node has an egress link (resource ``i``) and an ingress link
    (resource ``n_nodes + i``); a frame occupies the sender's egress and
    the receiver's ingress for its serialisation time (frame bits /
    10 Mb/s, in CPU cycles) and each endpoint pays protocol-stack
    cycles.  Contention therefore concentrates on the *serving node's
    ingress link* when all processors target one node — the cluster's
    analogue of a bank conflict.
    """

    def __init__(
        self,
        n_nodes: int,
        frame_cycles: float,
        stack_cycles: float,
        propagation_cycles: float = 0.0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        check_positive("frame_cycles", frame_cycles)
        check_nonnegative("stack_cycles", stack_cycles)
        check_nonnegative("propagation_cycles", propagation_cycles)
        self.n_nodes = n_nodes
        self.frame_cycles = frame_cycles
        self.stack_cycles = stack_cycles
        self.propagation_cycles = propagation_cycles
        self.capacities = (1,) * (2 * n_nodes)

    def trip(self, src: int, dst: int) -> Tuple[Stage, ...]:
        n = self.n_nodes
        stages = (
            (DELAY, self.stack_cycles),
            (src % n, self.frame_cycles),
            (n + dst % n, self.frame_cycles),
        )
        if self.propagation_cycles:
            stages += ((DELAY, self.propagation_cycles),)
        return stages

    def per_access_target_occupancy(self) -> float:
        # Each access serialises one request frame on the target's
        # ingress link and one reply frame on its egress; the two links
        # work in parallel, so the per-stage occupancy is one frame.
        return self.frame_cycles


class TorusInterconnect(Interconnect):
    """A 3-D torus (the Cray T3E): per-hop latency, ample link bandwidth.

    Link contention is negligible for this workload on the T3E's
    interconnect, so only hop latency and router overhead are charged;
    hop count is the average for a 3-D torus of ``n_nodes``.
    """

    def __init__(self, n_nodes: int, hop_cycles: float, inject_cycles: float) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        check_nonnegative("hop_cycles", hop_cycles)
        check_nonnegative("inject_cycles", inject_cycles)
        self.n_nodes = n_nodes
        self.hop_cycles = hop_cycles
        self.inject_cycles = inject_cycles
        side = max(1, round(n_nodes ** (1.0 / 3.0)))
        # Average distance per dimension on a ring of length `side` is
        # ~side/4; three dimensions.
        self.avg_hops = max(1.0, 3.0 * side / 4.0)
        self._trip = ((DELAY, inject_cycles + self.avg_hops * hop_cycles),)

    def trip(self, src: int, dst: int) -> Tuple[Stage, ...]:
        return self._trip
