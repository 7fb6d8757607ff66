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
from typing import Iterator, Optional, Sequence

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
# array math over the realized traffic matrices.  The tables split the
# way a run does.  What follows from the traffic, the software config
# and the node's copy rates alone (chunk counts, destinations, byte
# sizes, marshal gaps, offsets, expected counts, unmarshal and entry
# charges) is the run's :class:`ChunkLayout`, built once per program in
# the recorded half; a pricing adds only what its network and topology
# decide (occupancies, holds, latencies, queues, the plan and the
# control messages) in :func:`build_epoch_tables`.  Bit-identity with
# the DES demands care with float evaluation order: every expression
# below mirrors the exact left-to-right arithmetic of
# ``SyncEngine._node_proc`` (an ``int * float`` in Python and an
# ``int64 * float64`` broadcast perform the same IEEE-754 operation, and
# ``np.cumsum`` is a strictly sequential accumulate, unlike the pairwise
# ``np.sum``).


@dataclass
class StageChunks:
    """One exchange stage's chunk streams, every sender's in pid order.

    Parallel lists, one element per wire chunk: destination pid, CPU gap
    charged before the chunk (marshalling; only the first chunk of each
    message carries it), send-NIC occupancy and receive-NIC hold.  Sender
    *pid* injects chunks ``offsets[pid]:offsets[pid + 1]`` in that order.
    All plain Python lists: the kernel folds them with sequential scalar
    adds, and a ``.tolist()`` here is cheaper than per-element
    ``np.float64`` boxing there.
    """

    dsts: list
    gaps: list
    occupancy: list
    holds: list
    offsets: list
    #: Header plus payload bytes each sender injects.
    sender_bytes: list
    #: Per-chunk wire latencies and receive-queue indices (cluster
    #: topology only; ``None`` means the flat network's single latency
    #: and queue == destination pid).  A queue index >= p addresses the
    #: shared ingress wire of node ``queue - p``.
    lats: Optional[list] = None
    queues: Optional[list] = None


@dataclass
class EpochTables:
    """Everything the epoch kernel needs to replay one phase.

    Indexed by pid throughout.  A ``None`` stage means no sender injects
    anything in it.  The plan and the control charges are the same in
    every phase of a run, so its phases share them.
    """

    p: int
    #: Entry bookkeeping charged after compute (sync_fixed + local words).
    entry_overhead: list
    #: Plan stage: every node sends one equal-size message to each of
    #: the other p-1, in its peer order (priced per tier on a cluster).
    plan: StageChunks
    #: The send occupancy of one plan message, the cheaper tier's on a
    #: cluster: zero means a plan step takes no time.
    plan_occupancy: float
    #: Data stage (puts + get requests), then reply stage (get replies).
    data: Optional[StageChunks]
    reply: Optional[StageChunks]
    #: Chunks each receiver waits for per stage (column sums).
    expected_data: list
    expected_reply: list
    #: Post-receive unmarshal/service totals per receiver (sequential
    #: accumulation over ascending source, exactly as the DES adds them).
    unmarshal_data: list
    unmarshal_reply: list
    #: Barrier control messages: entry *pid* (the root's is ``None``)
    #: is the (occupancy, hold, latency, up queue, down queue) of the
    #: messages between *pid* and its parent, priced at their tier on a
    #: cluster, where a message between nodes drains through the
    #: receiving node's wire.
    control: list
    #: Cluster topology only (``None`` on the flat path, which stays
    #: bit-pinned to the pre-topology tables): ``node_of[pid]`` maps a
    #: core to its node; receive queues are ``p`` core engines followed
    #: by ``n_nodes`` shared node wires.
    node_of: Optional[list] = None


def _peer_matrix(p: int, schedule: str) -> np.ndarray:
    """Row *pid* is that sender's destination order (runtime._peer_order)."""
    if p == 1:
        return np.zeros((1, 0), dtype=np.int64)
    if schedule == "staggered":
        return (np.arange(p)[:, None] + np.arange(1, p)[None, :]) % p
    base = np.tile(np.arange(p), (p, 1))
    return base[base != np.arange(p)[:, None]].reshape(p, p - 1)


#: Per (p, exchange schedule): the peer matrix, then the plan stage's
#: destinations and sender offsets as lists.  Built on first use and
#: shared read-only by every phase.
_PEERS: dict = {}


def _peers(p: int, schedule: str) -> tuple:
    key = (p, schedule)
    found = _PEERS.get(key)
    if found is None:
        perm = _peer_matrix(p, schedule)
        perm.flags.writeable = False
        offsets = [(p - 1) * pid for pid in range(p + 1)]
        found = _PEERS[key] = (perm, perm.ravel().tolist(), offsets)
    return found


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


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _smallest(values: np.ndarray, top: int = 0) -> np.ndarray:
    """*values* (non-negative integers) in the smallest unsigned dtype
    that holds them and *top*."""
    most = int(values.max()) if values.size else 0
    return values.astype(np.min_scalar_type(max(most, top)))


class _StageLayout:
    """One exchange stage's messages in every phase of a run.

    Per message, in (phase, sender, injection) order: destination and
    sender pid, chunk count, the wire bytes of its last chunk (every
    other chunk is full), its records (``words``) and, of those, the
    ones that carry a payload word (``payload``; the same array on the
    reply stage, where every record does).  Per phase: message and
    chunk bounds; per (phase, sender): chunk offsets and
    header-plus-payload bytes; per (phase, receiver): the chunks it
    expects.  Messages, not chunks, so a run's layout grows with p² and
    not with n.  Each array is read-only and as narrow as its values
    allow: every pricing of the run shares them.
    """

    __slots__ = (
        "full", "messages", "bounds", "dst", "src", "cnt", "last", "words",
        "payload", "offsets", "sender_bytes", "expected",
    )

    def __init__(self, words_m, payload_m, wire_m, perm, sw) -> None:
        """Flatten one stage's stacked per-pair ``(phases, p, p)``
        record, payload and wire-byte counts into messages.  Every
        (phase, sender) pair is one row of a single batch of
        whole-matrix passes, with the peer order *perm* tiled over the
        phases, so row-major order is phase order, then each phase's
        senders in pid order, each in its injection order.  A
        *payload_m* that is *words_m* is kept once."""
        k, p, _ = wire_m.shape
        hdr = sw.message_header_bytes
        self.full = hdr + sw.max_message_bytes
        whole, rest_m = np.divmod(wire_m, sw.max_message_bytes)
        cnt_m = whole + (rest_m > 0)
        self.expected = _smallest(cnt_m.sum(axis=1))
        rows = np.arange(k * p)[:, None]
        cols = np.tile(perm, (k, 1))

        def in_order(m):
            # (phases * p, p-1), row = one (phase, sender)'s injection order.
            return m.reshape(k * p, p)[rows, cols]

        cnt_o = in_order(cnt_m)
        per_sender = cnt_o.sum(axis=1).reshape(k, p)
        offsets = np.zeros((k, p + 1), dtype=np.int64)
        np.cumsum(per_sender, axis=1, out=offsets[:, 1:])
        self.offsets = _smallest(offsets)
        self.bounds = [0] + np.cumsum(offsets[:, -1]).tolist()
        # Messages without a wire chunk get no entry (their marshal gap
        # has no chunk to ride on), so select on chunk count rather than
        # word count.  Boolean row-major selection keeps every sender's
        # message order.
        mask = cnt_o > 0
        self.messages = [0] + np.cumsum(mask.reshape(k, -1).sum(axis=1)).tolist()
        self.cnt = _smallest(cnt_o[mask])
        self.dst = _smallest(cols[mask], p - 1)
        senders = np.broadcast_to(np.tile(np.arange(p), k)[:, None], cnt_o.shape)
        self.src = _smallest(senders[mask], p - 1)
        rest = in_order(rest_m)[mask]
        self.last = _smallest(np.where(rest > 0, hdr + rest, self.full), self.full)
        self.words = _smallest(in_order(words_m)[mask])
        self.payload = (
            self.words if payload_m is words_m else _smallest(in_order(payload_m)[mask])
        )
        # Per-sender totals: header bytes per chunk plus the row's wire
        # bytes (zero-chunk messages have zero wire bytes, so row sums
        # over the full matrix are exact).
        self.sender_bytes = wire_m.sum(axis=2) + hdr * per_sender
        _read_only(*self._arrays())

    def _arrays(self) -> tuple:
        return (
            self.expected, self.offsets, self.cnt, self.dst, self.src, self.last,
            self.words, self.payload, self.sender_bytes,
        )

    def price(self, layout: "ChunkLayout", network: NetworkConfig, tier) -> "_PricedStage":
        """Every phase's chunk streams on *network* (and the cluster
        *tier*, if any): each message's marshal gap, its records priced
        as ``SyncEngine._node_proc`` prices them, and its chunks, each
        priced at its pair's ``o + nbytes * g``."""
        priced = _PricedStage(self)
        total = self.bounds[-1]
        if not total:
            return priced
        cnt = self.cnt
        ends = np.cumsum(cnt)
        nbytes = np.full(total, self.full, dtype=np.int64)
        nbytes[ends - 1] = self.last
        # (records * marshal) + (payload words * word bytes) * copy rate,
        # in int64: times an int config value, the narrow counts would
        # wrap.
        words = self.words.astype(np.int64)
        payload = words if self.payload is self.words else self.payload.astype(np.int64)
        gap = words * layout.marshal + (payload * layout.word_bytes) * layout.copy_rate
        gaps = np.zeros(total)
        gaps[ends - cnt] = gap
        dst = np.repeat(self.dst, cnt)
        priced.dsts = dst.tolist()
        priced.gaps = gaps.tolist()
        if tier is None:
            # message_send_cycles / message_recv_cycles, elementwise.
            occupancy = network.overhead_cycles + nbytes * network.gap_cycles_per_byte
            priced.occupancy = priced.holds = occupancy.tolist()
        else:
            src = np.repeat(self.src, cnt)
            # Same elementwise ``o + nbytes * g`` the DES computes per tier.
            priced.occupancy = (tier.o[src, dst] + nbytes * tier.g[src, dst]).tolist()
            priced.holds = (tier.ho[src, dst] + nbytes * tier.hg[src, dst]).tolist()
            priced.lats = tier.lat[src, dst].tolist()
            priced.queues = tier.queue[src, dst].tolist()
        return priced


class _PricedStage:
    """One stage's chunk lists for every phase of one pricing;
    :meth:`phase` cuts out one phase's."""

    __slots__ = ("layout", "dsts", "gaps", "occupancy", "holds", "lats", "queues")

    def __init__(self, layout: _StageLayout) -> None:
        self.layout = layout
        self.lats = self.queues = None

    def phase(self, i: int) -> tuple:
        """Phase *i*'s :class:`StageChunks` (``None`` when it has no
        chunks) and its per-receiver expected chunk counts."""
        layout = self.layout
        expected = layout.expected[i].tolist()
        lo, hi = layout.bounds[i], layout.bounds[i + 1]
        if lo == hi:
            return None, expected
        occ = self.occupancy[lo:hi]
        stage = StageChunks(
            dsts=self.dsts[lo:hi],
            gaps=self.gaps[lo:hi],
            occupancy=occ,
            holds=occ if self.holds is self.occupancy else self.holds[lo:hi],
            offsets=layout.offsets[i].tolist(),
            sender_bytes=layout.sender_bytes[i].tolist(),
            lats=None if self.lats is None else self.lats[lo:hi],
            queues=None if self.queues is None else self.queues[lo:hi],
        )
        return stage, expected


class ChunkLayout:
    """The recorded half of a run's traffic and epoch tables.

    Built once per program from the run's traffic (each phase's
    :class:`~repro.qsmlib.plan.PhaseTraffic`, in phase order), its
    software config and its node's copy rates: every stage's messages
    (:class:`_StageLayout`), each phase's locally served words, entry
    charges and data and reply unmarshal totals.  Nothing here reads the
    network, the topology or the fault plan, so every pricing of the run
    shares one layout (:func:`build_epoch_tables`); its arrays are
    read-only.  Its messages carry every remote word count (a put rides
    a data message, a get its reply), so the layout is also the run's
    traffic, compactly: :meth:`traffic` gives a phase's matrices back.
    """

    __slots__ = (
        "p", "phases", "schedule", "marshal", "word_bytes", "copy_rate", "data",
        "reply", "local", "entry_overhead", "unmarshal_data", "unmarshal_reply",
    )

    def __init__(self, traffic: Sequence, sw: SoftwareConfig, cpu: CPUModel) -> None:
        self.phases = k = len(traffic)
        self.p = p = traffic[0].p if k else 0
        self.schedule = sw.exchange_schedule
        self.marshal = marshal = sw.marshal_record_cycles
        self.word_bytes = wb = sw.word_bytes
        self.copy_rate = rate = cpu.cache.copy_cycles_per_byte()
        if not k:
            return
        put_w = np.stack([t.put_words for t in traffic])
        get_w = np.stack([t.get_words for t in traffic])
        self.local = np.stack([t.local_words for t in traffic])
        rh = sw.record_header_bytes
        unmarshal = sw.unmarshal_record_cycles
        rate_res = cpu.cache.copy_cycles_per_byte(resident=True)
        perm = _peers(p, sw.exchange_schedule)[0]

        self.entry_overhead = sw.sync_fixed_cycles + self.local * (marshal + wb * rate_res)

        # -- data stage: puts + get requests, sender pid -> dst ----------
        words_d = put_w + get_w
        wire_d = put_w * (rh + wb) + get_w * rh
        self.data = _StageLayout(words_d, put_w, wire_d, perm, sw)
        unm_d = words_d * unmarshal + (put_w * wb) * rate + get_w * sw.get_service_cycles
        self.unmarshal_data = np.cumsum(unm_d, axis=1)[:, -1].copy()

        # -- reply stage: get replies flow owner -> requester ------------
        words_r = get_w.transpose(0, 2, 1)
        wire_r = words_r * (rh + wb)
        self.reply = _StageLayout(words_r, words_r, wire_r, perm, sw)
        unm_r = words_r * unmarshal + (words_r * wb) * rate
        self.unmarshal_reply = np.cumsum(unm_r, axis=1)[:, -1].copy()
        _read_only(self.local, self.entry_overhead, self.unmarshal_data, self.unmarshal_reply)

    def arrays(self) -> tuple:
        """Every array the layout holds."""
        if not self.phases:
            return ()
        return (
            self.local, self.entry_overhead, self.unmarshal_data, self.unmarshal_reply,
            *self.data._arrays(), *self.reply._arrays(),
        )

    def traffic(self, i: int):
        """Phase *i*'s :class:`~repro.qsmlib.plan.PhaseTraffic`, rebuilt
        from its messages: fresh matrices, equal to the recorded ones.
        Every put rides a data message and every get a reply message
        (a get request may have no wire bytes of its own)."""
        from repro.qsmlib.plan import PhaseTraffic

        p = self.p
        put = np.zeros((p, p), dtype=np.int64)
        get = np.zeros((p, p), dtype=np.int64)
        data, reply = self.data, self.reply
        lo, hi = data.messages[i], data.messages[i + 1]
        put[data.src[lo:hi], data.dst[lo:hi]] = data.payload[lo:hi]
        lo, hi = reply.messages[i], reply.messages[i + 1]
        get[reply.dst[lo:hi], reply.src[lo:hi]] = reply.words[lo:hi]
        return PhaseTraffic(put, get, self.local[i].copy(), kappa=None)


def build_epoch_tables(
    layout: ChunkLayout, sw: SoftwareConfig, network: NetworkConfig, topology=None
) -> Iterator[EpochTables]:
    """Price a run's phases for every node with array math.

    *layout* is the run's :class:`ChunkLayout`; yields one
    :class:`EpochTables` per phase, in phase order.  Each stage's chunks
    are priced for all phases at once on *network* and, on a cluster
    *topology*, its per-pair tier lookups (see :class:`_TierMatrices`);
    ``None``/flat keeps the pre-topology tables byte for byte.  Each
    phase's lists are cut from the stacked lists when it is reached.
    Each phase's tables mirror every charge of
    ``SyncEngine._node_proc``'s fast path bit-for-bit (the golden
    equivalence tests pin this).
    """
    k = layout.phases
    if not k:
        return
    p = layout.p
    tier = (
        None
        if topology is None or topology.is_flat
        else _TierMatrices(topology, network, p)
    )
    data = layout.data.price(layout, network, tier)
    reply = layout.reply.price(layout, network, tier)
    perm, plan_dsts, plan_offsets = _peers(p, layout.schedule)

    plan_bytes = sw.message_header_bytes + sw.plan_entry_bytes
    plan_occupancy = network.message_send_cycles(plan_bytes)
    from repro.msg.collectives import CONTROL_BYTES, _parent

    sent = p * (p - 1)
    node_of = None
    parents = [_parent(pid) for pid in range(1, p)]
    if tier is None:
        plan = StageChunks(
            dsts=plan_dsts,
            gaps=[0.0] * sent,
            occupancy=[plan_occupancy] * sent,
            holds=[network.message_recv_cycles(plan_bytes)] * sent,
            offsets=plan_offsets,
            sender_bytes=[(p - 1) * plan_bytes] * p,
        )
        link = (
            network.message_send_cycles(CONTROL_BYTES),
            network.message_recv_cycles(CONTROL_BYTES),
            network.latency_cycles,
        )
        control = [None] + [link + (parent, pid) for pid, parent in enumerate(parents, 1)]
    else:
        node_of = tier.node_of.tolist()
        # Each plan message priced at its pair's tier (the DES's
        # per-entry o + bytes·g).
        rows = np.arange(p)[:, None]
        plan = StageChunks(
            dsts=plan_dsts,
            gaps=[0.0] * sent,
            occupancy=(tier.o[rows, perm] + plan_bytes * tier.g[rows, perm]).ravel().tolist(),
            holds=(tier.ho[rows, perm] + plan_bytes * tier.hg[rows, perm]).ravel().tolist(),
            offsets=plan_offsets,
            sender_bytes=[(p - 1) * plan_bytes] * p,
            lats=tier.lat[rows, perm].ravel().tolist(),
            queues=tier.queue[rows, perm].ravel().tolist(),
        )
        topo = topology
        plan_occupancy = min(
            plan_occupancy,
            topo.intra_overhead_cycles + plan_bytes * topo.intra_gap_cycles_per_byte,
        )
        wire = topo.node_wire_gap_cycles_per_byte
        wire_gap = network.gap_cycles_per_byte if wire is None else wire
        intra = (
            topo.intra_overhead_cycles + CONTROL_BYTES * topo.intra_gap_cycles_per_byte,
            topo.intra_overhead_cycles + CONTROL_BYTES * topo.intra_gap_cycles_per_byte,
            topo.intra_latency_cycles,
        )
        inter = (
            network.overhead_cycles + CONTROL_BYTES * network.gap_cycles_per_byte,
            network.overhead_cycles + CONTROL_BYTES * wire_gap,
            network.latency_cycles,
        )
        control = [None] + [
            intra + (parent, pid)
            if node_of[pid] == node_of[parent]
            else inter + (p + node_of[parent], p + node_of[pid])
            for pid, parent in enumerate(parents, 1)
        ]

    for i in range(k):
        data_i, expected_data = data.phase(i)
        reply_i, expected_reply = reply.phase(i)
        yield EpochTables(
            p=p,
            entry_overhead=layout.entry_overhead[i].tolist(),
            plan=plan,
            plan_occupancy=plan_occupancy,
            data=data_i,
            reply=reply_i,
            expected_data=expected_data,
            expected_reply=expected_reply,
            unmarshal_data=layout.unmarshal_data[i].tolist(),
            unmarshal_reply=layout.unmarshal_reply[i].tolist(),
            control=control,
            node_of=node_of,
        )
