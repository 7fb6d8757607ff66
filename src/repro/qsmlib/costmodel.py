"""Analytic mirror of the sync engine: effective per-word costs.

Model predictions (the QSM/BSP lines in Figures 1–3) charge ``g`` per
remote word.  The *effective* ``g`` of a real system is the hardware
gap plus all the software the library wraps around each word; this
module derives those effective per-word costs from the same
:class:`~repro.machine.config.NetworkConfig` and
:class:`~repro.qsmlib.config.SoftwareConfig` the DES uses, so the
prediction and the measurement share one source of truth.  The paper's
Table 3 "Observed Performance (HW + SW)" row is exactly these numbers,
which the ``table3`` experiment cross-checks against DES measurements.

What the analytic model deliberately **ignores** — per-message overhead
``o``, wire latency ``l``, the plan exchange, and the barrier — is what
QSM ignores; the gap between prediction and measurement at small ``n``
in Figures 1–4 is exactly these omitted costs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.machine.config import FlatTopology, NetworkConfig, Topology
from repro.machine.cpu import CPUModel
from repro.msg.collectives import tree_barrier_cost_estimate
from repro.qsmlib.config import SoftwareConfig


@dataclass(frozen=True)
class CommCostModel:
    """Effective communication costs of one (network, software) pair."""

    network: NetworkConfig
    software: SoftwareConfig
    #: cycles/byte for marshalling copies (from the node's cache model).
    copy_cycles_per_byte: float
    #: Machine topology: the per-word properties below price the
    #: network (inter-node) tier; :meth:`intra_tier` and
    #: :meth:`effective` expose the cheap tier and the traffic-weighted
    #: mix under a cluster topology.
    topology: Topology = field(default_factory=FlatTopology)

    @classmethod
    def for_machine(
        cls,
        network: NetworkConfig,
        software: SoftwareConfig,
        cpu: CPUModel,
        topology: Optional[Topology] = None,
    ) -> "CommCostModel":
        return cls(
            network=network,
            software=software,
            copy_cycles_per_byte=cpu.cache.copy_cycles_per_byte(),
            topology=FlatTopology() if topology is None else topology,
        )

    # ------------------------------------------------------------------
    # Tier views (cluster topology)
    # ------------------------------------------------------------------
    def intra_tier(self) -> "CommCostModel":
        """This cost model re-priced at the intra-node tier: the same
        software layer over the cheap shared-memory ``g/o/l``.  Identity
        on a flat topology (there is only one tier)."""
        topo = self.topology
        if topo.is_flat:
            return self
        net = dataclasses.replace(
            self.network,
            gap_cycles_per_byte=topo.intra_gap_cycles_per_byte,
            overhead_cycles=topo.intra_overhead_cycles,
            latency_cycles=topo.intra_latency_cycles,
        )
        return dataclasses.replace(self, network=net, topology=FlatTopology())

    def effective(self, p: int):
        """The traffic-weighted tier mix for ``p`` processors.

        Under uniformly spread destinations a fraction
        ``f = (cores_per_node - 1) / (p - 1)`` of each processor's
        remote words stays on its node, so every effective per-word
        cost mixes as ``f·intra + (1-f)·inter`` (docs/MODEL.md).
        Returns ``self`` unchanged on a flat topology (``f = 0``), so
        topology-aware models degenerate to their flat twins there —
        the golden tests pin this.
        """
        f = self.topology.intra_peer_fraction(p)
        if f <= 0.0:
            return self
        return _MixedCostModel(self, self.intra_tier(), f)

    # ------------------------------------------------------------------
    # Per-word effective costs (the "g" of the prediction formulas)
    # ------------------------------------------------------------------
    @property
    def put_word_cycles(self) -> float:
        """End-to-end pipelined cost per remote put word.

        Marshal + wire serialisation of (record header + payload) +
        unmarshal + the two buffer copies.
        """
        sw, g = self.software, self.network.gap_cycles_per_byte
        wire = (sw.record_header_bytes + sw.word_bytes) * g
        copies = 2.0 * self.copy_cycles_per_byte * sw.word_bytes
        return sw.marshal_record_cycles + wire + sw.unmarshal_record_cycles + copies

    @property
    def get_word_cycles(self) -> float:
        """End-to-end pipelined cost per remote get word (request + reply)."""
        sw, g = self.software, self.network.gap_cycles_per_byte
        request = (
            sw.marshal_record_cycles
            + sw.record_header_bytes * g
            + sw.unmarshal_record_cycles
            + sw.get_service_cycles
        )
        reply = (
            sw.marshal_record_cycles
            + (sw.record_header_bytes + sw.word_bytes) * g
            + sw.unmarshal_record_cycles
            + 2.0 * self.copy_cycles_per_byte * sw.word_bytes
        )
        return request + reply

    # -- side-split costs (the s-QSM view: gap at processors AND memory) --
    @property
    def put_word_src_cycles(self) -> float:
        """Sender-side share of a put word: marshal + wire + copy."""
        sw, g = self.software, self.network.gap_cycles_per_byte
        return (
            sw.marshal_record_cycles
            + (sw.record_header_bytes + sw.word_bytes) * g
            + self.copy_cycles_per_byte * sw.word_bytes
        )

    @property
    def put_word_dst_cycles(self) -> float:
        """Receiver-side share of a put word: unmarshal + copy."""
        sw = self.software
        return sw.unmarshal_record_cycles + self.copy_cycles_per_byte * sw.word_bytes

    @property
    def get_word_requester_cycles(self) -> float:
        """Requester-side share of a get word: request marshal + request
        wire + reply unmarshal + reply copy."""
        sw, g = self.software, self.network.gap_cycles_per_byte
        return (
            sw.marshal_record_cycles
            + sw.record_header_bytes * g
            + sw.unmarshal_record_cycles
            + self.copy_cycles_per_byte * sw.word_bytes
        )

    @property
    def get_word_server_cycles(self) -> float:
        """Owner-side share of a get word: request unmarshal + service +
        reply marshal + reply copy + reply wire."""
        sw, g = self.software, self.network.gap_cycles_per_byte
        return (
            sw.unmarshal_record_cycles
            + sw.get_service_cycles
            + sw.marshal_record_cycles
            + self.copy_cycles_per_byte * sw.word_bytes
            + (sw.record_header_bytes + sw.word_bytes) * g
        )

    @property
    def local_word_cycles(self) -> float:
        """Library cost of a locally-served request word."""
        sw = self.software
        return sw.marshal_record_cycles + self.copy_cycles_per_byte * sw.word_bytes

    # -- per-byte views (Table 3's units) --------------------------------
    @property
    def put_cycles_per_byte(self) -> float:
        return self.put_word_cycles / self.software.word_bytes

    @property
    def get_cycles_per_byte(self) -> float:
        return self.get_word_cycles / self.software.word_bytes

    # ------------------------------------------------------------------
    # Phase-level overheads the predictions ignore (measured reality)
    # ------------------------------------------------------------------
    def barrier_cycles(self, p: int) -> float:
        """Estimated software barrier time (BSP's L; Table 3's last row).

        Two tree sweeps along the critical path, plus the second
        child's receive that each internal up-sweep level serialises at
        its parent (validated within ~3% of the DES-measured barrier in
        the test suite).
        """
        import math

        base = tree_barrier_cost_estimate(
            self.network, p, sw_hop_cycles=self.software.barrier_hop_cycles
        )
        depth = int(math.floor(math.log2(p))) if p > 1 else 0
        extra_levels = max(0, depth - 1) + (1 if p > 2 else 0)
        from repro.msg.collectives import CONTROL_BYTES

        second_child = self.network.message_recv_cycles(CONTROL_BYTES) + (
            self.software.barrier_hop_cycles
        )
        return base + extra_levels * second_child

    def plan_exchange_cycles(self, p: int) -> float:
        """Estimated plan-distribution time per sync (all-to-all small msgs)."""
        if p <= 1:
            return 0.0
        nbytes = self.software.message_header_bytes + self.software.plan_entry_bytes
        per_msg = self.network.message_send_cycles(nbytes)
        return (p - 1) * per_msg + self.network.latency_cycles + self.network.message_recv_cycles(nbytes)

    def sync_floor_cycles(self, p: int) -> float:
        """Approximate cost of an *empty* sync (plan + barrier + fixed).

        This is the per-phase constant that makes measured communication
        exceed QSM predictions at small problem sizes.
        """
        return (
            self.software.sync_fixed_cycles
            + self.plan_exchange_cycles(p)
            + self.barrier_cycles(p)
        )

    # -- fault-plan hooks (repro.faults) --------------------------------
    def fault_traffic_factor(self, plan) -> float:
        """Expected wire-traffic (and NIC-occupancy) multiplier under a
        :class:`~repro.faults.plan.FaultPlan`'s drop-with-retransmit:
        each crossing survives with probability ``1 - drop``, so every
        message is injected ``1/(1 - drop)`` times in expectation — and
        each retransmission re-pays the full ``o + g·bytes`` charge."""
        if plan is None or plan.drop_prob <= 0.0:
            return 1.0
        return 1.0 / (1.0 - plan.drop_prob)

    def fault_extra_latency_cycles(self, plan) -> float:
        """Expected extra per-delivery latency a fault plan injects:
        the mean jitter plus the expected retransmission wait (a
        geometric series over the exponential-backoff schedule)."""
        if plan is None:
            return 0.0
        extra = plan.delay_jitter_cycles
        d = plan.drop_prob
        if d > 0.0:
            t = plan.retransmit_timeout_cycles
            b = plan.retransmit_backoff_factor
            if d * b < 1.0:
                extra += d * t / (1.0 - d * b)
            else:
                # Diverging backoff: sum the (max_retransmits-)truncated
                # series explicitly.
                extra += sum(
                    d**k * t * b ** (k - 1) for k in range(1, plan.max_retransmits + 1)
                )
        return extra


#: Per-word cost names mixed tier-wise by :class:`_MixedCostModel`.
_WORD_COST_NAMES = (
    "put_word_cycles",
    "get_word_cycles",
    "put_word_src_cycles",
    "put_word_dst_cycles",
    "get_word_requester_cycles",
    "get_word_server_cycles",
    "local_word_cycles",
)


class _MixedCostModel:
    """Effective costs of a cluster topology: ``f·intra + (1-f)·inter``.

    Duck-types the slice of :class:`CommCostModel` the prediction models
    consume — the per-word costs are mixed eagerly; the phase-level
    overheads (barrier, plan exchange) delegate to the inter tier, since
    the barrier tree and plan all-to-all cross nodes; ``network`` is a
    mixed-``o/l`` view for LogP's per-message accounting.
    """

    def __init__(self, inter: CommCostModel, intra: CommCostModel, f: float) -> None:
        self._inter = inter
        self.software = inter.software
        self.copy_cycles_per_byte = inter.copy_cycles_per_byte
        self.topology = inter.topology
        self.intra_fraction = f
        for name in _WORD_COST_NAMES:
            setattr(
                self, name, f * getattr(intra, name) + (1.0 - f) * getattr(inter, name)
            )
        self.network = dataclasses.replace(
            inter.network,
            overhead_cycles=(
                f * intra.network.overhead_cycles
                + (1.0 - f) * inter.network.overhead_cycles
            ),
            latency_cycles=(
                f * intra.network.latency_cycles
                + (1.0 - f) * inter.network.latency_cycles
            ),
            gap_cycles_per_byte=(
                f * intra.network.gap_cycles_per_byte
                + (1.0 - f) * inter.network.gap_cycles_per_byte
            ),
        )

    @property
    def put_cycles_per_byte(self) -> float:
        return self.put_word_cycles / self.software.word_bytes

    @property
    def get_cycles_per_byte(self) -> float:
        return self.get_word_cycles / self.software.word_bytes

    def barrier_cycles(self, p: int) -> float:
        return self._inter.barrier_cycles(p)

    def plan_exchange_cycles(self, p: int) -> float:
        return self._inter.plan_exchange_cycles(p)

    def sync_floor_cycles(self, p: int) -> float:
        return self._inter.sync_floor_cycles(p)

    def fault_traffic_factor(self, plan) -> float:
        return self._inter.fault_traffic_factor(plan)

    def fault_extra_latency_cycles(self, plan) -> float:
        return self._inter.fault_extra_latency_cycles(plan)


# ----------------------------------------------------------------------
# Vectorized phase pricing (the epoch kernel's cost tables)
# ----------------------------------------------------------------------
#
# The epoch sync path (see repro.qsmlib.epoch) prices a whole phase at
# once: every per-pair, per-message and per-chunk charge the DES node
# processes would accumulate step by step is computed here as numpy
# array math over the realized traffic matrices.  Bit-identity with the
# DES demands care with float evaluation order: every expression below
# mirrors the exact left-to-right arithmetic of
# ``SyncEngine._node_proc`` (an ``int * float`` in Python and an
# ``int64 * float64`` broadcast perform the same IEEE-754 operation,
# and ``np.cumsum`` is a strictly sequential accumulate, unlike the
# pairwise ``np.sum``).


@dataclass
class BurstSchedule:
    """One sender's precomputed chunk stream for one exchange stage.

    Parallel lists, one element per wire chunk in injection order:
    destination pid, CPU gap charged before the chunk (marshalling; only
    the first chunk of each message carries it), send-NIC occupancy, and
    receive-NIC hold.  All plain Python lists of floats/ints: the kernel
    folds them with sequential scalar adds into heap tuples, and a
    ``.tolist()`` here is cheaper than per-element ``np.float64`` boxing
    there.
    """

    dsts: list
    gaps: list
    occupancy: list
    holds: list
    total_bytes: int
    count: int
    #: Per-chunk wire latencies and receive-queue indices (cluster
    #: topology only; ``None`` means the flat network's single latency
    #: and queue == destination pid).  A queue index >= p addresses the
    #: shared ingress wire of node ``queue - p``.
    lats: Optional[list] = None
    queues: Optional[list] = None


@dataclass
class EpochTables:
    """Everything the epoch kernel needs to replay one phase.

    Indexed by pid throughout.  ``None`` entries in the send lists mean
    that sender injects nothing in that stage.
    """

    p: int
    #: Entry bookkeeping charged after compute (sync_fixed + local words).
    entry_overhead: np.ndarray
    #: Plan stage: every node sends p-1 equal-size messages.
    plan_occupancy: float
    plan_hold: float
    plan_dsts: list
    plan_bytes: int
    #: Data stage (puts + get requests), then reply stage (get replies).
    data_sends: list
    reply_sends: list
    #: Chunks each receiver waits for per stage (column sums).
    expected_data: list
    expected_reply: list
    #: Post-receive unmarshal/service totals per receiver (sequential
    #: accumulation over ascending source, exactly as the DES adds them).
    unmarshal_data: list
    unmarshal_reply: list
    #: Barrier control messages.
    control_occupancy: float
    control_hold: float
    #: Cluster topology extras (all ``None``/unused on the flat path,
    #: which stays bit-pinned to the pre-topology tables).
    #: ``node_of[pid]`` maps a core to its node; receive queues are
    #: ``p`` core engines followed by ``n_nodes`` shared node wires.
    node_of: Optional[list] = None
    #: Per-pid plan-stage chunk streams (tier-priced; replaces the
    #: uniform plan_occupancy/plan_hold scalars).
    plan_sends: Optional[list] = None
    #: Barrier control (occupancy, hold, latency) per tier.
    control_intra: Optional[tuple] = None
    control_inter: Optional[tuple] = None


def _peer_matrix(p: int, schedule: str) -> np.ndarray:
    """Row *pid* is that sender's destination order (runtime._peer_order)."""
    if p == 1:
        return np.zeros((1, 0), dtype=np.int64)
    if schedule == "staggered":
        return (np.arange(p)[:, None] + np.arange(1, p)[None, :]) % p
    base = np.tile(np.arange(p), (p, 1))
    return base[base != np.arange(p)[:, None]].reshape(p, p - 1)


class _TierMatrices:
    """Per-pair (src, dst) charge matrices of a cluster topology.

    ``o/g`` price the sender's injection, ``ho/hg`` the receive-side
    hold (core engine intra, shared node wire inter), ``lat`` the wire
    latency, and ``queue`` the receive-queue index (dst core for intra,
    ``p + node`` for inter) — everything the epoch kernel needs to
    mirror the DES's tier routing chunk by chunk.
    """

    __slots__ = ("o", "g", "ho", "hg", "lat", "queue", "node_of", "n_nodes")

    def __init__(self, topology, network: NetworkConfig, p: int) -> None:
        c = topology.cores_per_node
        node_of = np.arange(p) // c
        same = node_of[:, None] == node_of[None, :]
        wire = topology.node_wire_gap_cycles_per_byte
        wire_gap = network.gap_cycles_per_byte if wire is None else wire
        self.o = np.where(same, topology.intra_overhead_cycles, network.overhead_cycles)
        self.g = np.where(
            same, topology.intra_gap_cycles_per_byte, network.gap_cycles_per_byte
        )
        self.ho = self.o
        self.hg = np.where(same, topology.intra_gap_cycles_per_byte, wire_gap)
        self.lat = np.where(
            same, topology.intra_latency_cycles, network.latency_cycles
        )
        self.queue = np.where(same, np.arange(p)[None, :], p + node_of[None, :])
        self.node_of = node_of
        self.n_nodes = int(node_of[-1]) + 1


def _burst_schedules(words, gap_m, wire_m, perm, sw, network, tier=None):
    """Flatten per-pair (words, gap, wire) matrices into per-sender
    chunk streams plus the per-receiver expected chunk counts.

    All senders' streams are built in one batch of whole-matrix passes
    (row-major order == each sender's injection order) and then sliced
    per pid, rather than re-running the small-array pipeline p times.
    With a :class:`_TierMatrices` *tier*, every per-chunk charge is
    looked up per (src, dst) pair instead of the flat scalars.
    """
    p = words.shape[0]
    hdr = sw.message_header_bytes
    maxb = sw.max_message_bytes
    o = network.overhead_cycles
    g = network.gap_cycles_per_byte
    full, rest_m = np.divmod(wire_m, maxb)
    cnt_m = full + (rest_m > 0)
    expected = cnt_m.sum(axis=0).tolist()
    rows = np.arange(p)[:, None]
    cnt_o = cnt_m[rows, perm]  # (p, p-1), row = sender's injection order
    pid_chunks = cnt_o.sum(axis=1)
    total = int(pid_chunks.sum())
    if total == 0:
        return [None] * p, expected
    # Messages without a wire chunk get no entry (their marshal gap has
    # no chunk to ride on), so select on chunk count rather than word
    # count.  Boolean row-major selection keeps every sender's message
    # order.
    mask = cnt_o > 0
    msg_cnt = cnt_o[mask]
    msg_dst = np.broadcast_to(perm, cnt_o.shape)[mask]
    msg_rest = rest_m[rows, perm][mask]
    msg_gap = gap_m[rows, perm][mask]
    nbytes = np.full(total, hdr + maxb, dtype=np.int64)
    ends = np.cumsum(msg_cnt)
    tail = msg_rest > 0
    nbytes[ends[tail] - 1] = hdr + msg_rest[tail]
    gaps = np.zeros(total)
    gaps[ends - msg_cnt] = msg_gap
    dst_rep = np.repeat(msg_dst, msg_cnt)
    if tier is None:
        # message_send_cycles / message_recv_cycles, elementwise.
        occ = o + nbytes * g
        hold_list = occ_list = occ.tolist()
        lat_list = queue_list = None
    else:
        src_rep = np.repeat(
            np.broadcast_to(np.arange(p)[:, None], cnt_o.shape)[mask], msg_cnt
        )
        o_c = tier.o[src_rep, dst_rep]
        g_c = tier.g[src_rep, dst_rep]
        # Same elementwise ``o + nbytes * g`` the DES computes per tier.
        occ_list = (o_c + nbytes * g_c).tolist()
        hold_list = (tier.ho[src_rep, dst_rep] + nbytes * tier.hg[src_rep, dst_rep]).tolist()
        lat_list = tier.lat[src_rep, dst_rep].tolist()
        queue_list = tier.queue[src_rep, dst_rep].tolist()
    dst_list = dst_rep.tolist()
    gap_list = gaps.tolist()
    # Per-sender totals: header bytes per chunk plus the row's wire
    # bytes (zero-chunk messages have zero wire bytes, so row sums over
    # the full matrix are exact).
    row_bytes = wire_m.sum(axis=1) + hdr * pid_chunks
    offsets = np.concatenate(([0], np.cumsum(pid_chunks))).tolist()
    sends = []
    for pid in range(p):
        lo, hi = offsets[pid], offsets[pid + 1]
        if lo == hi:
            sends.append(None)
            continue
        sends.append(
            BurstSchedule(
                dsts=dst_list[lo:hi],
                gaps=gap_list[lo:hi],
                occupancy=occ_list[lo:hi],
                holds=hold_list[lo:hi],
                total_bytes=int(row_bytes[pid]),
                count=hi - lo,
                lats=None if lat_list is None else lat_list[lo:hi],
                queues=None if queue_list is None else queue_list[lo:hi],
            )
        )
    return sends, expected


def build_epoch_tables(
    traffic, local_words, sw, network, cpu, topology=None
) -> EpochTables:
    """Price one phase's exchange for every node with array math.

    *traffic* is the realized :class:`~repro.qsmlib.plan.PhaseTraffic`;
    the result mirrors every charge of ``SyncEngine._node_proc``'s fast
    path bit-for-bit (the golden equivalence tests pin this).  A cluster
    *topology* swaps the flat scalar charges for per-pair tier lookups
    (see :class:`_TierMatrices`); ``None``/flat keeps the pre-topology
    tables byte for byte.
    """
    p = traffic.p
    tier = (
        None
        if topology is None or topology.is_flat
        else _TierMatrices(topology, network, p)
    )
    put_w = traffic.put_words
    get_w = traffic.get_words
    wb = sw.word_bytes
    rh = sw.record_header_bytes
    marshal = sw.marshal_record_cycles
    unmarshal = sw.unmarshal_record_cycles
    rate = cpu.cache.copy_cycles_per_byte()
    rate_res = cpu.cache.copy_cycles_per_byte(resident=True)

    entry_overhead = sw.sync_fixed_cycles + local_words * (
        marshal + wb * rate_res
    )

    perm = _peer_matrix(p, sw.exchange_schedule)

    # -- data stage: puts + get requests, sender pid -> dst ------------
    words_d = put_w + get_w
    gap_d = words_d * marshal + (put_w * wb) * rate
    wire_d = put_w * (rh + wb) + get_w * rh
    data_sends, expected_data = _burst_schedules(
        words_d, gap_d, wire_d, perm, sw, network, tier=tier
    )
    unm_d = words_d * unmarshal + (put_w * wb) * rate + get_w * sw.get_service_cycles
    unmarshal_data = np.cumsum(unm_d, axis=0)[-1].tolist()

    # -- reply stage: get replies flow owner -> requester --------------
    words_r = get_w.T
    gap_r = words_r * marshal + (words_r * wb) * rate
    wire_r = words_r * (rh + wb)
    reply_sends, expected_reply = _burst_schedules(
        words_r, gap_r, wire_r, perm, sw, network, tier=tier
    )
    unm_r = words_r * unmarshal + (words_r * wb) * rate
    unmarshal_reply = np.cumsum(unm_r, axis=0)[-1].tolist()

    plan_bytes = sw.message_header_bytes + sw.plan_entry_bytes
    from repro.msg.collectives import CONTROL_BYTES

    node_of = None
    plan_sends = None
    control_intra = None
    control_inter = None
    if tier is not None:
        node_of = tier.node_of.tolist()
        # Plan stage: p-1 equal-size gapless messages per sender, each
        # priced at its pair's tier (the DES's per-entry o + bytes·g).
        plan_sends = []
        for pid in range(p):
            row = perm[pid]
            plan_sends.append(
                BurstSchedule(
                    dsts=row.tolist(),
                    gaps=[0.0] * (p - 1),
                    occupancy=(tier.o[pid, row] + plan_bytes * tier.g[pid, row]).tolist(),
                    holds=(tier.ho[pid, row] + plan_bytes * tier.hg[pid, row]).tolist(),
                    total_bytes=(p - 1) * plan_bytes,
                    count=p - 1,
                    lats=tier.lat[pid, row].tolist(),
                    queues=tier.queue[pid, row].tolist(),
                )
            )
        topo = topology
        wire = topo.node_wire_gap_cycles_per_byte
        wire_gap = network.gap_cycles_per_byte if wire is None else wire
        control_intra = (
            topo.intra_overhead_cycles + CONTROL_BYTES * topo.intra_gap_cycles_per_byte,
            topo.intra_overhead_cycles + CONTROL_BYTES * topo.intra_gap_cycles_per_byte,
            topo.intra_latency_cycles,
        )
        control_inter = (
            network.overhead_cycles + CONTROL_BYTES * network.gap_cycles_per_byte,
            network.overhead_cycles + CONTROL_BYTES * wire_gap,
            network.latency_cycles,
        )

    return EpochTables(
        p=p,
        entry_overhead=entry_overhead,
        plan_occupancy=network.message_send_cycles(plan_bytes),
        plan_hold=network.message_recv_cycles(plan_bytes),
        plan_dsts=[row.tolist() for row in perm],
        plan_bytes=plan_bytes,
        data_sends=data_sends,
        reply_sends=reply_sends,
        expected_data=expected_data,
        expected_reply=expected_reply,
        unmarshal_data=unmarshal_data,
        unmarshal_reply=unmarshal_reply,
        control_occupancy=network.message_send_cycles(CONTROL_BYTES),
        control_hold=network.message_recv_cycles(CONTROL_BYTES),
        node_of=node_of,
        plan_sends=plan_sends,
        control_intra=control_intra,
        control_inter=control_inter,
    )
