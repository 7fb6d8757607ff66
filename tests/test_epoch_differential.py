"""The epoch kernel against the per-message oracle on generated programs.

Every case is a seeded SPMD program run under ``sync_path="epoch"`` and
``sync_path="slow"``.  The two runs must agree exactly on every phase's
timings, the run's total cycles and the programs' return values, and
with observability on, on every ``qsm.*`` span.  A third run keeps every
epoch phase on the full merge heap, and must agree with the default
kernel on its kernel event count too.  Cases cover:

* p from 2 to 12, flat and cluster topologies;
* zero and positive wire latency and NIC overhead, a fractional gap;
* both exchange schedules, with and without barrier hop cycles;
* whole messages and messages split into 40- or 100-byte chunks;
* uniform, skewed, hot-cell, one-sided and empty phases; phases where
  only nodes with barrier children talk, so idle leaves send their up
  messages while their parents still receive; and one long data stream
  that a reply can overtake;
* equal, zero, uneven and straggler compute, and compute stepped by one
  plan message's send time, which lines arrivals, deliveries and drains
  up on the same instants.

On flat and cluster topologies alike the kernel folds the whole phase
and falls back to the full heap when a phase's traffic would move a
node's data completion; a spy on the kernel checks that the examples
exercise both routes on each.
"""

from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.samplesort import run_sample_sort
from repro.faults.plan import FaultPlan
from repro.machine.config import ClusterTopology, MachineConfig, NetworkConfig
from repro.msg.collectives import _parent
from repro.qsmlib import QSMMachine, RunConfig
from repro.qsmlib import epoch
from repro.qsmlib.config import SoftwareConfig

SLOWISH = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Words one writer may put to one owner in a phase.
SLOT = 6

TRAFFIC = ("uniform", "skewed", "hot", "one-sided", "empty", "inner", "inner-put", "burst")
COMPUTE = ("equal", "zero", "uneven", "straggler", "stepped")


class Case(NamedTuple):
    p: int
    #: 0 for the flat topology.
    cores_per_node: int
    latency: float
    overhead: float
    gap: float
    schedule: str
    hop: float
    sync_fixed: float
    #: (traffic, compute, words) per phase.
    phases: tuple
    seed: int
    traced: bool
    #: Wire bytes per chunk: below 16384, one message spans several.
    max_message_bytes: int = 16384
    #: How much cheaper the intra-node tier's g and o are than the
    #: network's (``None``: the ``ClusterTopology`` defaults).
    intra_ratio: Optional[float] = None
    #: The node wire's drain rate (``None``: the network's gap).
    wire_gap: Optional[float] = None


@st.composite
def cases(draw):
    p = draw(st.integers(2, 12))
    divisors = [c for c in range(1, p + 1) if p % c == 0]
    phase = st.tuples(
        st.sampled_from(TRAFFIC), st.sampled_from(COMPUTE), st.integers(1, SLOT)
    )
    return Case(
        p=p,
        cores_per_node=draw(st.sampled_from([0, 0] + divisors)),
        latency=draw(st.sampled_from([0.0, 37.5, 1600.0])),
        overhead=draw(st.sampled_from([0.0, 13.0, 400.0])),
        gap=draw(st.sampled_from([3.0, 0.37, 1.25])),
        schedule=draw(st.sampled_from(["staggered", "fixed"])),
        hop=draw(st.sampled_from([0.0, 311.0])),
        sync_fixed=draw(st.sampled_from([0.0, 500.0])),
        phases=tuple(draw(st.lists(phase, min_size=1, max_size=3))),
        seed=draw(st.integers(0, 2**16)),
        traced=draw(st.booleans()),
        max_message_bytes=draw(st.sampled_from([16384, 40, 100])),
        intra_ratio=draw(st.sampled_from([None, 1.0, 8.0])),
        wire_gap=draw(st.sampled_from([None, 0.37, 6.0])),
    )


def _program(ctx, src, dst, phases, seed, step):
    """Seeded reads of *src* and disjoint writes to *dst*, per phase."""
    p, pid = ctx.p, ctx.pid
    rng = np.random.default_rng([seed, pid])
    total = 0
    for traffic, compute, words in phases:
        if compute == "equal":
            ctx.charge_cycles(700.0)
        elif compute == "uneven":
            ctx.charge_cycles(float(rng.integers(0, 4)) * 250.5)
        elif compute == "straggler":
            ctx.charge_cycles(9000.0 if pid == p // 2 else 300.0)
        elif compute == "stepped":
            ctx.charge_cycles(step * (pid % 3))
        if traffic == "uniform":
            owners = rng.integers(0, p, size=words)
            reads = rng.integers(0, len(src), size=words)
        elif traffic == "skewed":
            owners = np.where(rng.random(words) < 0.8, 0, rng.integers(0, p, size=words))
            reads = np.where(rng.random(words) < 0.8, 1, rng.integers(0, len(src), size=words))
        elif traffic == "hot":
            owners = np.zeros(0, dtype=np.int64)
            reads = np.full(words, len(src) - 1)
        elif traffic == "one-sided" and pid == 0:
            owners = np.arange(words) % p
            reads = np.arange(words) * 7 % len(src)
        elif traffic in ("inner", "inner-put") and 2 * pid + 1 < p:
            # Only nodes with barrier children talk, among themselves, so
            # the idle leaves send their up messages while their parents
            # still receive.
            inner = (p - 2) // 2 + 1
            owners = rng.integers(0, inner, size=words)
            reads = (
                rng.integers(0, len(src) * inner // p, size=words)
                if traffic == "inner"
                else np.zeros(0, dtype=np.int64)
            )
        elif traffic == "burst" and pid < 2 and p > 2:
            # Node 1 streams to every node but the last, which serves
            # node 0's reads and can reply before node 1's stream reaches
            # node 0.
            owners = np.repeat(np.arange(p - 1), words) if pid else np.zeros(0, dtype=np.int64)
            reads = np.zeros(0, dtype=np.int64) if pid else len(src) - 1 - np.arange(words)
        else:
            owners = reads = np.zeros(0, dtype=np.int64)
        if len(owners):
            cells = owners * (p * SLOT) + pid * SLOT + np.arange(len(owners)) % SLOT
            ctx.put(dst, cells, cells + pid)
        handle = ctx.get(src, reads) if len(reads) else None
        yield ctx.sync()
        if handle is not None:
            total += int(handle.data.sum())
    return total


def _topology(case: Case):
    if not case.cores_per_node:
        return MachineConfig().topology
    tiers = {"node_wire_gap_cycles_per_byte": case.wire_gap}
    if case.intra_ratio is not None:
        tiers["intra_gap_cycles_per_byte"] = case.gap / case.intra_ratio
        tiers["intra_overhead_cycles"] = case.overhead / case.intra_ratio
    return ClusterTopology(cores_per_node=case.cores_per_node, **tiers)


def _config(case: Case, path: str) -> RunConfig:
    topology = _topology(case)
    network = NetworkConfig(
        gap_cycles_per_byte=case.gap,
        overhead_cycles=case.overhead,
        latency_cycles=case.latency,
    )
    return RunConfig(
        machine=MachineConfig(p=case.p, network=network, topology=topology),
        software=SoftwareConfig(
            sync_path=path,
            exchange_schedule=case.schedule,
            barrier_hop_cycles=case.hop,
            sync_fixed_cycles=case.sync_fixed,
            max_message_bytes=case.max_message_bytes,
        ),
        seed=case.seed,
    )


def _observe(case: Case, path: str) -> dict:
    if case.traced:
        obs.enable()
    try:
        qm = QSMMachine(_config(case, path))
        src = qm.allocate("src", 8 * case.p)
        src.data[:] = np.arange(8 * case.p) * 3 + 1
        dst = qm.allocate("dst", case.p * case.p * SLOT)
        # One plan message's send time: 32 header plus 24 entry bytes.
        step = case.overhead + 56 * case.gap
        run = qm.run(
            _program, src=src, dst=dst, phases=case.phases, seed=case.seed, step=step
        )
        seen = {
            "phases": [
                (ph.start, ph.end, ph.comm_cycles, tuple(ph.compute_cycles)) for ph in run.phases
            ],
            "total": run.total_cycles,
            "returns": run.returns,
            "dst": dst.data.tolist(),
            "events": run.sim_events,
        }
        if case.traced:
            # The oracle closes spans as its processes run, epoch per
            # node after each phase: compare them in one order.
            spans = [
                (s.track, s.t0, s.depth, s.name, s.t1, s.attrs)
                for s in obs.runs()[-1].spans
                if s.name.startswith("qsm.")
            ]
            seen["spans"] = sorted(spans, key=lambda span: span[:5])
    finally:
        if case.traced:
            obs.disable()
    return seen


def _spied(routes: Counter):
    """Patch the kernel so each phase's route lands in *routes*, keyed
    (topology, route): "flat" or "cluster", then "folded", "fallback" or
    "full" (every phase the heap prices, fallbacks included)."""
    fold = epoch.EpochPhase._fold
    replay = epoch.EpochPhase._replay

    def topology(phase):
        return "flat" if phase._node_of is None else "cluster"

    def spy_fold(self):
        try:
            timing = fold(self)
        except epoch._Inseparable:
            routes[topology(self), "fallback"] += 1
            raise
        routes[topology(self), "folded"] += 1
        return timing

    def spy_replay(self):
        routes[topology(self), "full"] += 1
        return replay(self)

    return mock.patch.multiple(epoch.EpochPhase, _fold=spy_fold, _replay=spy_replay)


def _unfolded():
    """Patch the kernel to price every phase on the full merge heap."""
    return mock.patch.object(epoch.EpochPhase, "run", lambda self: self._replay())


#: FOLDS folds both its phases.  In FALLS_BACK, straggler node 5 starts
#: its plan last, so node 6, the first it messages, finishes its plan
#: and sends its hot-cell read to node 10 before node 5's plan message
#: reaches node 10: the two share a queue, so the phase is priced on the
#: full heap.
FOLDS = Case(8, 0, 1600.0, 400.0, 3.0, "staggered", 311.0, 500.0,
             (("uniform", "equal", 3), ("hot", "straggler", 2)), 5, True)
FALLS_BACK = Case(11, 0, 37.5, 400.0, 1.25, "staggered", 0.0, 500.0,
                  (("hot", "straggler", 6),), 19060, False)
#: A node's last plan delivery lands at the instant of its own drain.
#: The drain, pushed when its plan started, pops first, so the node
#: waits and is woken by the delivery: one more heap entry.
DRAIN_TIES_DELIVERY = Case(4, 0, 0.0, 0.0, 0.37, "fixed", 0.0, 500.0,
                           (("uniform", "zero", 5),), 41636, False)
#: Node 3 continues at its plan drain at the instant node 5's last plan
#: delivery wakes it: the drain, pushed when node 3's plan started, must
#: pop first.
DRAIN_BEFORE_WAKE = Case(7, 0, 0.0, 13.0, 0.37, "staggered", 311.0, 0.0,
                         (("empty", "uneven", 5),), 6867, False)
#: Node 4's plan drain and the plan deliveries that wake nodes 4 and 3
#: share an instant.  Node 4 starts waiting there, and must still resume
#: first: its delivery popped first.
WAITS_AT_DELIVERY = Case(7, 0, 0.0, 0.0, 3.0, "fixed", 311.0, 0.0,
                         (("one-sided", "uneven", 1),), 3765, False)
#: Node 5's last reply injection ends at the instant node 3 finishes
#: unmarshalling; both then send up the barrier through node 0's shared
#: wire, so the order they resume in decides whose up message it serves
#: first.  Epoch resumes node 5 at the drain pushed when its replies
#: started; the oracle used to resume it at its last send timeout, which
#: it schedules after node 3's unmarshal timeout.
SENDER_RESUMES = Case(6, 3, 0.0, 0.0, 3.0, "staggered", 311.0, 0.0,
                      (("hot", "equal", 1),), 0, False)

# The phase fold past the plan.  Each of these folds its phase unless
# named otherwise.
#: Leaves 1 and 2 run the same timeline, so their up messages reach node
#: 0's queue at one instant.  It serves them in key order: node 1's
#: pops come first, down to the bootstrap.
UPS_TIE = Case(3, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
               (("empty", "equal", 1),), 0, False)
#: Data chunks from different senders reach one queue at one instant
#: (equal compute lines the senders up).  The queue serves them in the
#: order of the pops that started the senders' data stages, not in pid
#: order.
CHUNKS_TIE = Case(12, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                  (("uniform", "equal", 1),), 11, False)
#: A data chunk arrives at the instant the chunk ahead of it is
#: delivered (40-byte chunks split each message in four).  The arrival
#: pops after that delivery, so it starts its own service.
SERVICE_TIE = Case(2, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                   (("uniform", "equal", 3),), 2, False, max_message_bytes=40)
#: A node's data drain lands at the instant of its last data delivery.
#: The delivery pops later, so the node waits for it: one more entry.
DRAIN_TIES_DATA = Case(11, 0, 0.0, 0.0, 0.37, "staggered", 0.0, 0.0,
                       (("uniform", "uneven", 1),), 0, False)
#: Idle leaf 3 sends its up message before node 0's put reaches leaf 3's
#: parent, node 1: the walk merges it ahead of that data chunk.
UP_AMONG_DATA = Case(4, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                     (("inner-put", "equal", 1),), 0, False)
#: Leaf 4's up message lands among node 1's reply chunks and is merged
#: there.
UP_AMONG_REPLIES = Case(9, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                        (("uniform", "equal", 1),), 0, False)
#: Rule 2: node 7 holds node 0's reads and nothing else, so its replies
#: reach node 0 before node 1's long data stream does.  Node 0's data
#: completion would move, so the phase is priced on the full heap.
REPLY_BEFORE_DATA = Case(8, 0, 0.0, 400.0, 3.0, "staggered", 0.0, 0.0,
                         (("burst", "equal", 1),), 0, False)
#: Rule 3: idle leaf 3's up message reaches node 1 before node 0's data
#: does, in a phase with replies: node 1's data completion would move,
#: so the phase is priced on the full heap.
UP_BEFORE_DATA = Case(4, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                      (("one-sided", "equal", 3),), 0, False)


# Tie rules whose flips move no timing, only the order of same-instant
# entries or the entry count, which test_fold_keys_sort_into_heap_pop_order
# reads.  Each of these folds its phase.
#: Node 1's up message reaches node 0 at the instant node 0's engine
#: delivers node 2's.  It pops after that delivery, so it starts its own
#: service: its delivery is keyed by its arrival, not by the delivery
#: ahead.
UP_STARTS_SERVICE = Case(6, 0, 0.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                         (("empty", "equal", 1),), 0, False)
#: Node 3 starts its plan one message before node 1 (stepped compute),
#: and their plan messages reach node 2 at one instant.  Node 2 serves
#: node 3's first: key order, not pid order.
PLAN_TIE = Case(4, 0, 0.0, 0.0, 3.0, "fixed", 0.0, 0.0,
                (("one-sided", "stepped", 4),), 0, False)
#: Node 0's plan message is delivered to node 1 at the instant node 1's
#: own plan injection ends.  Node 0 started its plan first, so the
#: delivery pops first and node 1 continues at once: no wake entry.
DELIVERY_BEFORE_DRAIN = Case(2, 0, 0.0, 400.0, 3.0, "staggered", 0.0, 0.0,
                             (("uniform", "stepped", 3),), 38766, False)
#: Node 1's up message is delivered at the instant node 0 finishes its
#: last stage.  Node 0's pop comes first, so it waits and resumes in the
#: wake that delivery pushes: one more entry.
UP_AFTER_NODE = Case(3, 0, 0.0, 0.0, 3.0, "fixed", 0.0, 0.0,
                     (("uniform", "zero", 4),), 16757, False, max_message_bytes=40)
#: Node 0 wakes at its child 1's up delivery and hops while child 2's up
#: message, queued behind it, is served; the hop lasts one control
#: message's hold (8 bytes at 3 cycles each), so that delivery ends with
#: the hop.  It was pushed by the delivery that woke node 0, so it pops
#: first and node 0 continues at once: no wake entry.
UP_DURING_HOP = Case(3, 0, 0.0, 0.0, 3.0, "staggered", 24.0, 0.0,
                     (("empty", "equal", 1),), 0, False)

# The phase fold on a cluster, where the cores of a node share its wire.
# Each of these folds its phase.
#: Nodes 3 and 4 are woken at one instant by their last plan deliveries,
#: and their first data chunks, bound for cores 0 and 2, reach node 0's
#: wire at one instant.  The pops that woke node 4 come first, so the
#: wire serves its chunk first: key order, neither sender nor receiver
#: pid order.
WIRE_CHUNKS_TIE = Case(6, 3, 16.0, 0.0, 3.0, "staggered", 0.0, 0.0,
                       (("uniform", "stepped", 1),), 1, True, intra_ratio=1.0, wire_gap=1.0)
#: Node 3's up message, for core 1, and node 2's reply chunk for core 0
#: reach node 0's wire at one instant.  The wire serves the chunk first:
#: node 2 started its replies before node 3 sent, as a chunk takes longer
#: to inject than a control message.
UP_TIES_WIRE_CHUNK = Case(4, 2, 0.0, 0.0, 0.5, "staggered", 0.0, 0.0,
                          (("uniform", "equal", 1),), 0, True, intra_ratio=1.0)
#: Node 1's down message for core 4 and node 2's for core 5 reach node
#: 2's wire at one instant.  They tie down to the pops that sent them,
#: and node 2's comes first, so core 4's message queues behind core 5's:
#: key order, not pid order.
DOWNS_QUEUE = Case(6, 2, 0.0, 0.0, 3.0, "fixed", 64.0, 0.0,
                   (("uniform", "straggler", 1),), 1, True, intra_ratio=1.0)
#: Rule 1 holds per queue.  Straggler node 2 starts its plan last, so its
#: plan messages are the last that nodes 0, 1 and 3 receive, while its
#: own queue delivers early.  A data chunk reaches node 2 before node 3's
#: last plan delivery but long after node 2's, so the phase folds.
PER_QUEUE_LIMIT = Case(4, 0, 37.5, 400.0, 3.0, "fixed", 0.0, 500.0,
                       (("uniform", "straggler", 1),), 0, False)

#: Every pinned case above.
PINNED = (
    FOLDS, FALLS_BACK, DRAIN_TIES_DELIVERY, DRAIN_BEFORE_WAKE, WAITS_AT_DELIVERY,
    SENDER_RESUMES, UPS_TIE, CHUNKS_TIE, SERVICE_TIE, DRAIN_TIES_DATA,
    UP_AMONG_DATA, UP_AMONG_REPLIES, REPLY_BEFORE_DATA, UP_BEFORE_DATA,
    UP_STARTS_SERVICE, PLAN_TIE, DELIVERY_BEFORE_DRAIN, UP_AFTER_NODE, UP_DURING_HOP,
    WIRE_CHUNKS_TIE, UP_TIES_WIRE_CHUNK, DOWNS_QUEUE, PER_QUEUE_LIMIT,
)

#: The pinned cases whose phase is priced on the full heap, for the
#: reasons their comments give; in SENDER_RESUMES node 0's data chunk for
#: core 5 reaches node 1's wire before that wire's last plan delivery.
#: Every other pinned case folds every phase.
INSEPARABLE = (FALLS_BACK, SENDER_RESUMES, REPLY_BEFORE_DATA, UP_BEFORE_DATA)


def _pinned(test):
    """*test* with every pinned case as a hypothesis example."""
    for case in reversed(PINNED):
        test = example(case=case)(test)
    return test


def test_epoch_matches_oracle_on_generated_programs():
    routes: Counter = Counter()

    @_pinned
    @given(case=cases())
    @SLOWISH
    def check(case):
        with _spied(routes):
            got = _observe(case, "epoch")
        want = _observe(case, "slow")
        events = got.pop("events")
        del want["events"]
        assert got == want
        with _unfolded():
            heap = _observe(case, "epoch")
        assert heap.pop("events") == events
        assert heap == got

    check()
    for topology in ("flat", "cluster"):
        assert routes[topology, "folded"] and routes[topology, "fallback"], routes


def test_pinned_cases_take_their_routes():
    for case in PINNED:
        routes: Counter = Counter()
        with _spied(routes):
            _observe(case, "epoch")
        topology = "cluster" if case.cores_per_node else "flat"
        if case in INSEPARABLE:
            want = {(topology, "fallback"): 1, (topology, "full"): 1}
        else:
            want = {(topology, "folded"): len(case.phases)}
        assert routes == want, case


# ----------------------------------------------------------------------
# The fold's keys against the heap's pop order
# ----------------------------------------------------------------------
class _Writes:
    """Stands in for the fold's ``done`` list in one ``_serve`` call:
    forwards every write and keeps the delivery keys in order."""

    def __init__(self, done) -> None:
        self.done = done
        self.keys = []

    def __setitem__(self, tag, key) -> None:
        self.done[tag] = key
        self.keys.append(key)


@contextmanager
def _key_orders(orders: list):
    """Patch the kernel so that every phase the fold prices is also
    priced on the full heap, and append to *orders* per folded phase the
    fold's deliveries sorted by their keys, the heap's delivery pops in
    pop order, both pop counts and the phase's topology.  A delivery reads
    (time, queue, stream, starter): the sender of the arrival that
    started its service, or ``None`` when the delivery ahead of it did.
    Of the down sweep, whose messages between cores of one node find the
    receiving engine idle, only the deliveries at node wires are
    compared."""
    inject = epoch.EpochPhase._inject
    release = epoch.EpochPhase._release
    serve = epoch._serve
    pop, push = epoch.heappop, epoch.heappush
    folding = []

    def spy_inject(self, stage, now, keys):
        owner = {id(key): s for s, key in enumerate(keys)}
        queues = inject(self, stage, now, keys)
        tb = self.tables
        stream = next(i for i, st_ in enumerate((tb.plan, tb.data, tb.reply)) if st_ is stage)
        for q, arrivals in enumerate(queues):
            for arr in arrivals:
                self.where[id(arr)] = (q, stream, owner[id(arr[1])], arr)
        return queues

    def spy_release(self, t, key):
        self.releasing = True
        return release(self, t, key)

    def spy_serve(arrivals, last, done):
        writes = _Writes(done)
        out = serve(arrivals, last, writes)
        phase = folding[-1]
        p = phase.p
        for arr, key in zip(arrivals, writes.keys):
            tag = arr[4]
            if phase.releasing:
                # A down message: its tag is its receiver.
                parent = _parent(tag)
                queue = phase.tables.control[tag][4]
                phase.where[id(arr)] = (queue, epoch._BARRIER + p + parent, parent, arr)
            elif tag >= p:
                # An up message: its tag is p + its sender, a child of
                # the receiving node.
                child = tag - p
                queue = phase.tables.control[child][3]
                phase.where[id(arr)] = (queue, epoch._BARRIER + child, child, arr)
            q, stream = phase.where[id(arr)][:2]
            phase.delivered.append((key, q, stream))
        return out

    def label(phase, key, q, stream):
        pusher = key[1]
        starter = phase.where[id(pusher)][2] if len(pusher) == 5 else None
        return (key[0], q, stream, starter)

    def heap_order(phase):
        """Price a copy of *phase* on the full heap; its delivery pops
        and pop count."""
        twin = object.__new__(epoch.EpochPhase)
        twin.__dict__.update(phase.__dict__)
        popped = []
        sender = {}
        starter = {}
        state = {"entry": None, "sending": None}

        def send_burst(pid, t0, stage, stream):
            state["sending"] = pid
            return epoch.EpochPhase._send_burst(twin, pid, t0, stage, stream)

        def send_control(pid, t0, dst, stream):
            state["sending"] = pid
            return epoch.EpochPhase._send_control(twin, pid, t0, dst, stream)

        def spy_pop(heap):
            entry = pop(heap)
            popped.append(entry)
            state["entry"] = entry
            return entry

        def spy_push(heap, entry):
            if entry[2] == epoch._ARRIVE:
                sender[id(entry)] = state["sending"]
            elif entry[2] == epoch._DELIVER:
                by = state["entry"]
                starter[id(entry)] = sender[id(by)] if by[2] == epoch._ARRIVE else None
            push(heap, entry)

        twin._send_burst = send_burst
        twin._send_control = send_control
        with mock.patch.multiple(epoch, heappop=spy_pop, heappush=spy_push):
            twin._replay()
        order = [
            (entry[0], entry[3], entry[5], starter[id(entry)])
            for entry in popped
            if entry[2] == epoch._DELIVER
            and (entry[5] < epoch._BARRIER + phase.p or entry[3] >= phase.p)
        ]
        return order, twin.pops

    def spy_run(self):
        if not (self.p > 1 and self.tables.plan_occupancy > 0):
            return self._replay()
        heap, heap_pops = heap_order(self)
        self.where = {}
        self.delivered = []
        self.releasing = False
        folding.append(self)
        try:
            timing = self._fold()
        except epoch._Inseparable:
            return self._replay()
        finally:
            folding.pop()
        fold = [label(self, *d) for d in sorted(self.delivered, key=lambda d: d[0])]
        topology = "flat" if self._node_of is None else "cluster"
        orders.append((fold, heap, (self.pops, heap_pops), topology))
        return timing

    with mock.patch.multiple(
        epoch.EpochPhase, run=spy_run, _inject=spy_inject, _release=spy_release
    ), mock.patch.object(epoch, "_serve", spy_serve):
        yield


def test_fold_keys_sort_into_heap_pop_order():
    """Where the heap would compare two same-instant entries the fold
    compares their keys, so every tie rule the fold spells — a tied
    arrival starting its own service, a node's pop against its last
    delivery or a child's up delivery, same-instant plan arrivals —
    shows in its delivery keys (which arrival starts each service, and
    the order deliveries pop in) or in its entry count, even when no
    timing moves.  On every phase the fold prices, both must be the
    heap's."""
    compared: Counter = Counter()

    @_pinned
    @given(case=cases())
    @SLOWISH
    def check(case):
        orders: list = []
        with _key_orders(orders):
            _observe(case, "epoch")
        for fold, heap, (fold_pops, heap_pops), topology in orders:
            assert fold == heap
            assert fold_pops == heap_pops
            compared[topology] += 1

    check()
    assert compared["flat"] and compared["cluster"], compared


# ----------------------------------------------------------------------
# Fault tallies and kernel event counts, pinned
# ----------------------------------------------------------------------
def test_straggler_tally_matches_oracle():
    """A phase re-priced on the full heap must not charge its stragglers
    twice: the tally and the timings equal the oracle's."""
    plan = FaultPlan(seed=4, straggler_count=2, straggler_slowdown=3.0)
    seen = {}
    routes: Counter = Counter()
    for path in ("epoch", "slow"):
        faults.reset_tally()
        config = RunConfig(
            MachineConfig(p=16).with_faults(plan),
            software=SoftwareConfig(sync_path=path),
            seed=1,
        )
        with _spied(routes):
            out = run_list_ranking(make_random_list(8192, seed=1), config=config)
        seen[path] = (
            [(ph.start, ph.end, ph.comm_cycles) for ph in out.run.phases],
            out.run.total_cycles,
            faults.drain_tally(),
        )
    assert routes["flat", "fallback"], routes
    assert seen["epoch"] == seen["slow"]
    assert seen["epoch"][2]["fault.straggler_extra_cycles"] == 95641.3602827454


#: ``run.sim_events`` per p: the kernel adds the entries the heap would
#: have popped in the stages it folds, so the counts never move.
SIM_EVENTS = {
    2: (706, 165),
    3: (2596, 320),
    5: (8902, 754),
    8: (19455, 1682),
    16: (71358, 5737),
}


def test_sim_events_pinned():
    for p, (listrank, samplesort) in SIM_EVENTS.items():
        config = RunConfig(MachineConfig(p=p), seed=p)
        ranked = run_list_ranking(make_random_list(3000, seed=p), config=config)
        keys = np.random.default_rng(p).integers(0, 2**30, 5000)
        sorted_ = run_sample_sort(keys, config=config)
        assert (ranked.run.sim_events, sorted_.run.sim_events) == (listrank, samplesort), p


#: The same runs on cluster machines, keyed (p, cores per node).
CLUSTER_SIM_EVENTS = {
    (8, 2): (19447, 1678),
    (8, 4): (19460, 1682),
    (16, 4): (71419, 5738),
}


def test_cluster_sim_events_pinned():
    for (p, cores), (listrank, samplesort) in CLUSTER_SIM_EVENTS.items():
        machine = MachineConfig(p=p, topology=ClusterTopology(cores_per_node=cores))
        config = RunConfig(machine, seed=p)
        ranked = run_list_ranking(make_random_list(3000, seed=p), config=config)
        keys = np.random.default_rng(p).integers(0, 2**30, 5000)
        sorted_ = run_sample_sort(keys, config=config)
        assert (ranked.run.sim_events, sorted_.run.sim_events) == (listrank, samplesort), (p, cores)
