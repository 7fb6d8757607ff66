"""The epoch sync path: one phase, priced as arrays plus a flat merge.

The per-message oracle (``sync_path="slow"``) advances ``p`` generator
processes through the full simulation kernel — events, processes,
resources, endpoints — even though, once the request queues are
realized, a bulk-synchronous phase's cost is fully determined.  This
module prices the whole phase at once:

* every per-message charge (marshal gaps, wire chunking, NIC send
  occupancy, receive holds, unmarshal/service totals) is computed
  vectorized over the traffic matrices by
  :func:`repro.qsmlib.costmodel.build_epoch_tables`;
* injection timelines are sequential float folds of the precomputed gap
  and occupancy arrays (``t = t + step`` per chunk, so the results match
  the oracle's chained timeouts bit-for-bit);
* what *cannot* be precomputed — the FCFS contention at each receive
  resource, where chunk streams from different senders interleave —
  runs in one flat ``(time, seq, kind, ...)`` tuple heap with three
  handler kinds, instead of the full event/process machinery.

The discrete-event simulator is touched only at the phase boundary: the
kernel's pop count folds into ``sim.event_count`` and the clock advances
via ``sim.run(until=end)``.  The kernel records each node's stage end
times; when observability is on it emits from them the same ``qsm.*``
spans the oracle's node processes open and close.

Bit-identity discipline
-----------------------
Timings are bit-identical to the oracle's because both engines break
same-instant ties by the same three rules:

* **Arrival order.**  A message's place among same-instant arrivals at
  one receive resource is fixed when its sender *starts that stage's
  sends*: here every arrival entry of a stage is pushed at that moment,
  and the oracle reserves the same places from the DES heap counter
  (:meth:`~repro.sim.engine.Simulator.reserve`) and schedules each
  arrival with its reserved number as soon as the message's injection
  starts.  This decides which chunk a contended receive engine or
  shared node wire serves first.
* **Service start.**  A receive resource starts serving a message in
  the event that frees it — the arrival itself when it is idle, else
  the delivery of the message ahead — before that delivery wakes its
  receiver (the oracle's ``Network._deliver``).
* **Receives.**  A receive whose messages were already delivered
  continues at once; one that must wait resumes in a fresh entry at the
  delivering instant (the oracle's ``Endpoint.recv``).

Everything else is a timed step pushed when it starts, in both engines.
The oracle's remaining events — process bootstraps, grant events,
endpoint pump hops — have no counterparts here, which is also why this
path processes strictly fewer events.

Eligibility is gated in
:meth:`~repro.qsmlib.runtime.SyncEngine.execute_phase`: send pacing,
finite receive buffers, network-perturbing fault plans and kernel step
hooks fall back to the oracle.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import List, Tuple

from repro.msg.collectives import CONTROL_BYTES, _children, _parent
from repro.qsmlib.costmodel import build_epoch_tables

# Heap-entry kinds, ordered by pop frequency.  Entries are plain tuples:
#   (time, seq, _DELIVER, queue, dst, stream)
#   (time, seq, _ARRIVE, queue, dst, hold, stream)
#   (time, seq, _NODE, pid)
# `queue` indexes the FCFS receive resource the chunk drains through:
# the dst core's engine (queue == dst; always, on a flat topology) or a
# node's shared ingress wire (queue == p + node, cluster inter-node).
# Heap ordering compares only (time, seq), so the extra element never
# perturbs tie-breaking.
_DELIVER, _ARRIVE, _NODE = 0, 1, 2

# Stream keys: one per logically distinct message flow within a phase
# (the counting replacement for the DES endpoint's (src, tag) matching).
# Plan/data/reply receives are tag-only wildcards; barrier receives are
# source-specific, so up/down hops key on the sending pid — encoded as
# small ints (up(src) = 3 + src, down(src) = 3 + p + src) so stream
# lookups hash an int rather than building a tuple per message.
_PLAN, _DATA, _REPLY = 0, 1, 2
_BARRIER = 3


class EpochPhase:
    """One phase's flat replay: precomputed tables + a tuple heap."""

    def __init__(self, machine, sw, traffic, compute_cycles, local_words) -> None:
        p = machine.p
        self.p = p
        self.sw = sw
        self.start = machine.sim.now
        self.latency = machine.config.network.latency_cycles
        self.tables = build_epoch_tables(
            traffic, local_words, sw, machine.config.network, machine.cpus[0],
            topology=machine.config.topology,
        )
        # Straggler penalties accumulate in ascending pid order, exactly
        # as the DES charges them during its pid-ordered bootstraps.
        comp = [float(compute_cycles[pid]) for pid in range(p)]
        faults = machine.faults
        if faults is not None:
            for pid in range(p):
                comp[pid] = comp[pid] + faults.compute_penalty(pid, comp[pid])
        self.compute = comp
        self.now = self.start
        self.pops = 0
        self.bytes_sent = 0
        self.messages_sent = 0
        self._heap: list = []
        self._seq = count()
        # Receive-engine state (mirrors the NIC FCFS Resources): one
        # queue per core engine, plus one per shared node wire under a
        # cluster topology.
        node_of = self.tables.node_of
        nqueues = p if node_of is None else p + node_of[-1] + 1
        self._node_of = node_of
        self._busy = [False] * nqueues
        self._fifo: List[deque] = [deque() for _ in range(nqueues)]
        # Per-node message accounting (the counting endpoint).  Stream
        # keys are small ints, so the counters are flat lists indexed by
        # stream — the hot loop never hashes anything.  The wait state
        # is two parallel lists (stream or -1, target count) instead of
        # an allocated tuple per wait.
        nstreams = _BARRIER + 2 * p
        self._delivered: List[List[int]] = [[0] * nstreams for _ in range(p)]
        self._consumed: List[List[int]] = [[0] * nstreams for _ in range(p)]
        self._wait_stream = [-1] * p
        self._wait_target = [0] * p
        self._finished = [False] * p
        #: Per node, the end time of each stage: compute (the node's
        #: ready time), entry, plan, data, reply, barrier — only the
        #: first two when p == 1.
        self.stamps: List[List[float]] = [[] for _ in range(p)]
        self._gens = [self._node(pid) for pid in range(p)]

    # ------------------------------------------------------------------
    def run(self) -> Tuple[float, float, float]:
        """Replay the phase; returns (start, ready, end) timestamps."""
        # Bootstrap every node generator in pid order at t = start, like
        # the DES's pid-ordered process bootstraps (nothing a bootstrap
        # pushes can tie with a later bootstrap: all pushes land at
        # strictly later times).
        for pid in range(self.p):
            try:
                next(self._gens[pid])
            except StopIteration:
                self._finished[pid] = True

        heap = self._heap
        seq = self._seq
        busy = self._busy
        fifo = self._fifo
        delivered = self._delivered
        consumed = self._consumed
        wait_stream = self._wait_stream
        wait_target = self._wait_target
        gens = self._gens
        finished = self._finished
        now = self.start
        while heap:
            entry = heappop(heap)
            now = entry[0]
            kind = entry[2]
            if kind == _DELIVER:
                queue = entry[3]
                dst = entry[4]
                stream = entry[5]
                # Free the engine first: the next queued chunk starts
                # service before this delivery wakes any waiter (the
                # order the oracle's release-then-deposit enforces).
                q = fifo[queue]
                if q:
                    hold2, dst2, stream2 = q.popleft()
                    heappush(heap, (now + hold2, next(seq), _DELIVER, queue, dst2, stream2))
                else:
                    busy[queue] = False
                d = delivered[dst]
                got = d[stream] + 1
                d[stream] = got
                if wait_stream[dst] == stream and got >= wait_target[dst]:
                    wait_stream[dst] = -1
                    consumed[dst][stream] = wait_target[dst]
                    heappush(heap, (now, next(seq), _NODE, dst))
            elif kind == _ARRIVE:
                queue = entry[3]
                if busy[queue]:
                    fifo[queue].append((entry[5], entry[4], entry[6]))
                else:
                    busy[queue] = True
                    heappush(heap, (now + entry[5], next(seq), _DELIVER, queue, entry[4], entry[6]))
            else:  # _NODE: resume the node generator at `now`
                pid = entry[3]
                try:
                    gens[pid].send(now)
                except StopIteration:
                    finished[pid] = True
        self.now = now
        # The heap drained, so pops == pushes == the seq counter's value.
        self.pops = next(seq)
        if not all(finished):
            raise RuntimeError("sync deadlocked: a node never completed the phase")
        return self.start, max(stamps[0] for stamps in self.stamps), now

    # ------------------------------------------------------------------
    # Node timeline (mirrors SyncEngine._node_proc, with every
    # `yield sim.timeout(...)` / event wait as one heap entry).
    # ------------------------------------------------------------------
    def _node(self, pid: int):
        heap = self._heap
        seq = self._seq
        p = self.p
        tb = self.tables
        stamps = self.stamps[pid]

        t = self.start
        compute = self.compute[pid]
        if compute > 0:
            t = t + compute
            heappush(heap, (t, next(seq), _NODE, pid))
            t = yield
        stamps.append(t)
        overhead = float(tb.entry_overhead[pid])
        if overhead > 0:
            t = t + overhead
            heappush(heap, (t, next(seq), _NODE, pid))
            t = yield
        stamps.append(t)

        if p == 1:
            return

        # -- 1. plan exchange ------------------------------------------
        if tb.plan_sends is not None:
            t = self._send_burst(pid, t, tb.plan_sends[pid], _PLAN)
        else:
            t = self._send_uniform(
                pid, t, tb.plan_dsts[pid], tb.plan_occupancy, tb.plan_hold,
                tb.plan_bytes, _PLAN,
            )
        t = yield
        if not self._try_recv(pid, _PLAN, p - 1):
            t = yield
        stamps.append(t)

        # -- 2. data messages: puts + get requests ----------------------
        sched = tb.data_sends[pid]
        if sched is not None:
            t = self._send_burst(pid, t, sched, _DATA)
            t = yield
        expected = tb.expected_data[pid]
        if expected and not self._try_recv(pid, _DATA, expected):
            t = yield
        unmarshal = tb.unmarshal_data[pid]
        if unmarshal:
            t = t + unmarshal
            heappush(heap, (t, next(seq), _NODE, pid))
            t = yield
        stamps.append(t)

        # -- 3. get replies ---------------------------------------------
        sched = tb.reply_sends[pid]
        if sched is not None:
            t = self._send_burst(pid, t, sched, _REPLY)
            t = yield
        expected = tb.expected_reply[pid]
        if expected and not self._try_recv(pid, _REPLY, expected):
            t = yield
        unmarshal = tb.unmarshal_reply[pid]
        if unmarshal:
            t = t + unmarshal
            heappush(heap, (t, next(seq), _NODE, pid))
            t = yield
        stamps.append(t)

        # -- 4. closing barrier -----------------------------------------
        hop = self.sw.barrier_hop_cycles
        up = _BARRIER
        down = _BARRIER + p
        for child in _children(pid, p):
            if not self._try_recv(pid, up + child, 1):
                t = yield
            if hop:
                t = t + hop
                heappush(heap, (t, next(seq), _NODE, pid))
                t = yield
        if pid != 0:
            if hop:
                t = t + hop
                heappush(heap, (t, next(seq), _NODE, pid))
                t = yield
            t = self._send_control(pid, t, _parent(pid), up + pid)
            t = yield
            if not self._try_recv(pid, down + _parent(pid), 1):
                t = yield
            if hop:
                t = t + hop
                heappush(heap, (t, next(seq), _NODE, pid))
                t = yield
        for child in _children(pid, p):
            if hop:
                t = t + hop
                heappush(heap, (t, next(seq), _NODE, pid))
                t = yield
            t = self._send_control(pid, t, child, down + pid)
            t = yield
        stamps.append(t)

    # ------------------------------------------------------------------
    # Send/receive building blocks
    # ------------------------------------------------------------------
    def _send_burst(self, pid: int, t0: float, sched, stream) -> float:
        """Inject one precomputed chunk stream starting at *t0*.

        The injection timeline is a sequential float64 fold —
        ``t += gap; t += occupancy`` per chunk — matching the oracle's
        chained marshal and send timeouts exactly (adding a 0.0 gap is a
        bitwise no-op).  Arrivals push in entry order, then the sender's
        drain resume: the arrival places the oracle reserves when the
        stage starts.
        The per-chunk heappush dominates this loop either way, so the
        fold stays in plain Python rather than paying a numpy
        allocate/cumsum/tolist round trip per call.
        """
        heap = self._heap
        seq = self._seq
        dsts = sched.dsts
        gaps = sched.gaps
        occs = sched.occupancy
        holds = sched.holds
        lats = sched.lats
        t = t0
        if lats is None:
            latency = self.latency
            for k in range(sched.count):
                t = t + gaps[k]
                t = t + occs[k]
                heappush(
                    heap, (t + latency, next(seq), _ARRIVE, dsts[k], dsts[k], holds[k], stream)
                )
        else:
            queues = sched.queues
            for k in range(sched.count):
                t = t + gaps[k]
                t = t + occs[k]
                heappush(
                    heap, (t + lats[k], next(seq), _ARRIVE, queues[k], dsts[k], holds[k], stream)
                )
        heappush(heap, (t, next(seq), _NODE, pid))
        self.bytes_sent += sched.total_bytes
        self.messages_sent += sched.count
        return t

    def _send_uniform(
        self, pid: int, t0: float, dsts, occ: float, hold: float, nbytes: int, stream
    ) -> float:
        """Burst of equal-size, gapless messages (the plan stage)."""
        heap = self._heap
        seq = self._seq
        latency = self.latency
        t = t0
        for dst in dsts:
            t = t + occ
            heappush(heap, (t + latency, next(seq), _ARRIVE, dst, dst, hold, stream))
        heappush(heap, (t, next(seq), _NODE, pid))
        self.bytes_sent += len(dsts) * nbytes
        self.messages_sent += len(dsts)
        return t

    def _send_control(self, pid: int, t0: float, dst: int, stream) -> float:
        """Single barrier control message."""
        tb = self.tables
        node_of = self._node_of
        if node_of is None:
            occ, hold, latency, queue = (
                tb.control_occupancy, tb.control_hold, self.latency, dst,
            )
        elif node_of[pid] == node_of[dst]:
            occ, hold, latency = tb.control_intra
            queue = dst
        else:
            occ, hold, latency = tb.control_inter
            queue = self.p + node_of[dst]
        t = t0 + occ
        heap = self._heap
        seq = self._seq
        heappush(heap, (t + latency, next(seq), _ARRIVE, queue, dst, hold, stream))
        heappush(heap, (t, next(seq), _NODE, pid))
        self.bytes_sent += CONTROL_BYTES
        self.messages_sent += 1
        return t

    def _try_recv(self, pid: int, stream: int, needed: int) -> bool:
        """Counting receive: True if already satisfied (continue inline,
        like the DES's pending-scan early return), else register the
        wait — the satisfying delivery will push the node resume."""
        consumed = self._consumed[pid]
        target = consumed[stream] + needed
        if self._delivered[pid][stream] >= target:
            consumed[stream] = target
            return True
        self._wait_stream[pid] = stream
        self._wait_target[pid] = target
        return False


_SEGMENTS = ("qsm.compute", "qsm.entry", "qsm.plan", "qsm.data", "qsm.reply", "qsm.barrier")


def _emit_spans(obs, phase: EpochPhase, seq: int, traffic, local_words) -> None:
    """The ``qsm.*`` spans of one phase, as the oracle's node processes
    record them: per node a ``qsm.phase`` span from the phase start to
    the node's last stage end, partitioned by its stage segments."""
    start = phase.start
    for pid, stamps in enumerate(phase.stamps):
        attrs = (
            {},
            {"local_words": int(local_words[pid])},
            {},
            {
                "put_words": int(traffic.put_words[pid].sum()),
                "get_req_words": int(traffic.get_words[pid].sum()),
            },
            {"reply_words": int(traffic.get_words[:, pid].sum())},
            {},
        )
        parent = obs.complete("qsm.phase", pid, start, stamps[-1], phase=seq)
        t0 = start
        for name, t1, kw in zip(_SEGMENTS, stamps, attrs):
            obs.complete(name, pid, t0, t1, parent=parent, **kw)
            t0 = t1


def execute_epoch_phase(
    machine, sw, traffic, compute_cycles, local_words, seq: int
) -> Tuple[float, float, float]:
    """Run phase number *seq* on the epoch path; returns (start, ready, end).

    Folds the kernel's work back into the simulator: the pop count joins
    ``sim.event_count``, the clock advances to *end*, and the network's
    lifetime byte/message counters include this phase's injections.
    With observability on, the phase's ``qsm.*`` spans are recorded too.
    """
    phase = EpochPhase(machine, sw, traffic, compute_cycles, local_words)
    start, ready, end = phase.run()
    sim = machine.sim
    sim._event_count += phase.pops
    sim.run(until=end)
    network = machine.network
    network.bytes_sent += phase.bytes_sent
    network.messages_sent += phase.messages_sent
    if sim.obs is not None:
        _emit_spans(sim.obs, phase, seq, traffic, local_words)
    return start, ready, end
