"""The epoch sync path: one phase, priced in closed form or on a flat heap.

The per-message oracle (``sync_path="slow"``) advances ``p`` generator
processes through the full simulation kernel — events, processes,
resources, endpoints — even though, once the request queues are
realized, a bulk-synchronous phase's cost is fully determined.  This
module prices the whole phase at once:

* every per-message charge (marshal gaps, wire chunking, NIC send
  occupancy, receive holds, unmarshal/service totals) is computed
  vectorized over the traffic matrices by
  :func:`repro.qsmlib.costmodel.build_epoch_tables`, for all of a run's
  phases in one stacked pass before the first is priced
  (:meth:`~repro.qsmlib.runtime.SyncEngine.epoch_tables`); a phase
  receives its tables;
* injection timelines are sequential float folds of the precomputed gap
  and occupancy arrays (``t = t + step`` per chunk, so the results match
  the oracle's chained timeouts bit-for-bit);
* the FCFS contention at each receive resource, where chunk streams
  from different senders interleave, is either folded per queue in
  closed form (:meth:`EpochPhase._fold`) or run in one flat
  ``(time, seq, kind, ...)`` tuple heap with three handler kinds
  (:meth:`EpochPhase._replay`), instead of the full event/process
  machinery.

The discrete-event simulator is touched only at the phase boundary: the
kernel's entry count folds into ``sim.event_count`` and the clock
advances via ``sim.run(until=end)``.  The kernel records each node's
stage end times; when observability is on it emits from them the same
``qsm.*`` spans the oracle's node processes open and close.

Bit-identity discipline
-----------------------
Timings are bit-identical to the oracle's because both engines break
same-instant ties by the same three rules:

* **Arrival order.**  A message's place among same-instant arrivals at
  one receive resource is fixed when its sender *starts that stage's
  sends*, and so is the sender's own place at the instant its last
  injection ends: here every arrival entry of a stage and then the
  sender's drain are pushed at that moment, and the oracle reserves the
  same places from the DES heap counter
  (:meth:`~repro.sim.engine.Simulator.reserve`), scheduling each arrival
  with its reserved number as soon as the message's injection starts
  and the stage's last send timeout with the sender's.  This decides
  which chunk a contended receive engine or shared node wire serves
  first, and which of two nodes freed at one instant sends first.
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

Two routes (see docs/PERFORMANCE.md §1 for the full argument):

* **The phase fold**, on flat and cluster topologies alike.
  :meth:`EpochPhase._fold` prices plan, data, reply, the barrier's
  up-sweep and its release without the heap.  Every stage chunk and
  control message joins the FCFS queue it drains through: the
  destination core's engine, or on a cluster the destination node's
  shared wire for traffic between nodes.  Each queue serves its
  arrivals in heap-key order with ``finish = max(arrival, finish) +
  hold`` (:func:`_serve`), and a core's receive completes at the later
  of its last delivery from its engine and from its node's wire.  The
  up-sweep is walked bottom-up, in descending pid, so a child's up
  message merges into its parent's queue before that queue is served: a
  core's engine when the walk reaches the core, a node's wire when it
  reaches the node's highest core (nodes are contiguous pid blocks, so
  every up message into a node's wire comes from a higher pid).  The
  release is walked in ascending pid, and a node's wire serves its down
  messages when the walk reaches the node's lowest core.  Where the heap
  would compare two same-instant entries, the fold compares their heap
  keys, built as the heap would order them (see the comment above
  ``_IDLE``).  A phase whose traffic would move a node's data completion
  — a data, reply or up arrival at or before the last plan delivery at
  its own queue, or, at one queue, a reply chunk (or, when the phase has
  replies, an up message) before the last data arrival — raises
  :class:`_Inseparable` and is priced on the heap.
* **The full heap**: p = 1, plans whose steps take no time, and
  inseparable phases.

Both count the entries the heap pops, so ``sim.event_count`` is the same
on either route.

Eligibility is gated in
:meth:`~repro.qsmlib.runtime.SyncEngine.execute_phase`: send pacing,
finite receive buffers, network-perturbing fault plans and kernel step
hooks fall back to the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from typing import List, Tuple

from repro.msg.collectives import CONTROL_BYTES, _children, _parent

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

# The fold's heap keys.  The heap pops entries in (time, seq) order, and
# seq follows push order: the order of the pops that pushed them, then
# the push index within one pop.  So an entry sorts as the nested tuple
# (time, key of the pop that pushed it, push index), down to the
# pid-ordered bootstraps that push each node's first entries; node
# pid's bootstrap is keyed (-1, pid), below every simulated time.
# Building a key is one tuple, and comparing two recurses only while
# their times tie.  Arrival records are keys with a payload appended,
# (time, pusher key, push index, hold, tag); no two entries share a key,
# so the payload never takes part in a comparison.
#: The key of an idle queue's last delivery: below every arrival.
_IDLE = (float("-inf"),)


def _precedes(a, b) -> bool:
    """Whether the entry keyed *a* pops before the one keyed *b*.

    The nested tuple comparison, walked level by level, in time linear
    in the depth where the keys part.  Python's own tuple comparison
    rescans the equal prefix at every level, which costs the square of
    the depth when two keys tie deep, as the keys of nodes whose
    timelines match do down to their bootstraps.
    """
    while a[0] == b[0]:
        x = a[1]
        y = b[1]
        if x.__class__ is int:
            # Two bootstraps: pid order.
            return x < y
        if x is y:
            return a[2] < b[2]
        a = x
        b = y
    return a[0] < b[0]


def _merge(arrivals, arr) -> None:
    """Insert arrival record *arr* into the key-ordered *arrivals*."""
    a = arr[0]
    # The first arrival at or after a; (a,) sorts below every record at a.
    i = bisect_left(arrivals, (a,))
    n = len(arrivals)
    while i < n and arrivals[i][0] == a and _precedes(arrivals[i], arr):
        i += 1
    arrivals.insert(i, arr)


@lru_cache(maxsize=None)
def _tree(p: int) -> tuple:
    """Each pid's children in the barrier tree over *p* nodes."""
    return tuple(tuple(_children(pid, p)) for pid in range(p))


class _Inseparable(Exception):
    """An arrival would move a node's data completion (or lands at or
    before the last plan delivery at its queue), so the phase fold does
    not hold."""


def _serve(arrivals, last, done) -> tuple:
    """Serve key-ordered *arrivals* FCFS after the delivery keyed *last*.

    A delivery's key is (finish, pusher, 0): an arrival that finds the
    queue idle pushes its own delivery, else the delivery ahead of it
    does.  Stores each delivery's key in *done* under its arrival's tag
    and returns the last one.
    """
    f = last[0]
    for arr in arrivals:
        a = arr[0]
        # An arrival that ties the delivery ahead starts its own service
        # only if it pops after that delivery.  Their pushers mostly part
        # at their own times; if not, the keys are walked level by level.
        if a > f or (
            a == f
            and (
                arr[1][0] > last[1][0]
                if arr[1][0] != last[1][0]
                else _precedes(last, arr)
            )
        ):
            f = a + arr[3]
            last = (f, arr, 0)
        else:
            f = f + arr[3]
            last = (f, last, 0)
        done[arr[4]] = last
    return last


class EpochPhase:
    """One phase's flat replay: precomputed tables, then a fold or a heap."""

    def __init__(self, machine, sw, tables, compute_cycles) -> None:
        p = machine.p
        self.p = p
        self.sw = sw
        self.start = machine.sim.now
        self.latency = machine.config.network.latency_cycles
        self.tables = tables
        # Straggler penalties accumulate in ascending pid order, exactly
        # as the DES charges them during its pid-ordered bootstraps.  A
        # re-priced phase reuses them rather than charging them again.
        comp = [float(compute_cycles[pid]) for pid in range(p)]
        faults = machine.faults
        if faults is not None:
            for pid in range(p):
                comp[pid] = comp[pid] + faults.compute_penalty(pid, comp[pid])
        self.compute = comp
        node_of = self.tables.node_of
        self._node_of = node_of
        # Receive queues (mirroring the NIC FCFS Resources): one per core
        # engine, plus one per shared node wire under a cluster topology.
        self._nqueues = p if node_of is None else p + node_of[-1] + 1
        self.pops = 0

    # ------------------------------------------------------------------
    def run(self) -> Tuple[float, float, float]:
        """Price the phase; returns (start, ready, end) timestamps.

        The whole phase is folded (see :meth:`_fold`), on a flat or a
        cluster topology, unless p = 1 or a zero-time plan step (a
        zero-byte plan on a zero-overhead tier) leaves it to the heap; a
        phase the fold turns out not to hold for is priced on the heap.
        """
        if self.p > 1 and self.tables.plan_occupancy > 0:
            try:
                return self._fold()
            except _Inseparable:
                pass
        return self._replay()

    def _timing(self) -> Tuple[float, float, float]:
        stamps = self.stamps
        return self.start, max(s[0] for s in stamps), max(s[-1] for s in stamps)

    # ------------------------------------------------------------------
    # The phase fold
    # ------------------------------------------------------------------
    def _fold(self) -> Tuple[float, float, float]:
        """Price every stage of the phase in closed form.

        Stage by stage: compute and entry (:meth:`_fold_entry`); the
        plan, whose last delivery at each queue sets the limit every
        later arrival there must clear; every sender's data chunks; in a
        phase with replies, each queue's data service, each node's data
        completion and every sender's reply chunks.  Then the last stage
        and the up-sweep are walked bottom-up, in descending pid, so each
        queue serves its children's up messages among its stage chunks in
        key order: a core's engine when the walk reaches that core, a
        node's wire when it reaches the node's highest core.  The root
        then prices the release (:meth:`_release`).
        """
        p = self.p
        tb = self.tables
        nq = self._nqueues
        self.stamps = stamps = [[] for _ in range(p)]
        self.pops = 0
        now, keys = self._fold_entry()
        # done[tag]: the key of the latest delivery of each arrival tag: a
        # stage chunk's destination core, or p + child for the up message
        # of child.
        done = [_IDLE] * (2 * p)
        self._limits = [float("-inf")] * nq
        self._limit = float("-inf")
        plan = self._inject(tb.plan, now, keys)
        served = [_IDLE] * nq
        self._settle(plan, served, done, now, keys, [p - 1] * p, [0.0] * p)
        # Every later arrival at a queue must land after its last plan
        # delivery: from then on that queue is idle.
        self._limits = limits = [last[0] for last in served]
        self._limit = max(limits)
        walk = self._inject(tb.data, now, keys)
        replies = tb.reply is not None
        served = [_IDLE] * nq
        if replies:
            self._settle(walk, served, done, now, keys, tb.expected_data, tb.unmarshal_data)
            last_data = [arrivals[-1] if arrivals else None for arrivals in walk]
            walk = self._inject(tb.reply, now, keys)
            expected, unmarshal = tb.expected_reply, tb.unmarshal_reply
        else:
            expected, unmarshal = tb.expected_data, tb.unmarshal_data
        # Each queue served its data before any reply, so a reply chunk
        # that lands ahead of a data chunk would move that queue's data
        # completion.
        for q in range(nq):
            arrivals = walk[q]
            if arrivals:
                arrivals.sort()
                if replies and last_data[q] is not None and arrivals[0] < last_data[q]:
                    raise _Inseparable

        hop = self.sw.barrier_hop_cycles
        node_of = self._node_of
        control = tb.control
        pops = 0
        kids = _tree(p)
        done[:p] = [_IDLE] * p
        for q in range(p - 1, -1, -1):
            if node_of is not None and (q == p - 1 or node_of[q + 1] != node_of[q]):
                # q is its node's highest core.  Every up message into the
                # node's wire comes from a higher pid, so the wire's
                # arrivals are all known.
                w = p + node_of[q]
                if walk[w]:
                    _serve(walk[w], served[w], done)
            arrivals = walk[q]
            wire = done[q]
            if arrivals:
                _serve(arrivals, served[q], done)
            last = done[q]
            if wire > last:
                last = wire
            self._finish(q, now, keys, expected[q], unmarshal[q], last)
            t = now[q]
            key = keys[q]
            if not replies:
                stamps[q].append(t)
            for child in kids[q]:
                last = done[p + child]
                if not last < key:
                    t = last[0]
                    key = (t, last, 0)
                    pops += 1
                if hop:
                    t = t + hop
                    key = (t, key, 0)
                    pops += 1
            if q:
                if hop:
                    t = t + hop
                    key = (t, key, 0)
                    pops += 1
                occ, hold, latency, queue, _ = control[q]
                t = t + occ
                arr = (t + latency, key, 0, hold, p + q)
                # With replies, the queue's data was served before the
                # walk, so the up message must queue behind all of it.
                if arr[0] <= limits[queue] or (
                    replies and last_data[queue] is not None and arr < last_data[queue]
                ):
                    raise _Inseparable
                _merge(walk[queue], arr)
                # Arrival, delivery and the sender's drain.
                pops += 3
        # The walk ends at the root, free at t.
        self._release(t, key)
        self.pops += pops
        sent = 2 * (p - 1)
        self.bytes_sent = sent * CONTROL_BYTES
        self.messages_sent = sent
        for stage in (tb.plan, tb.data, tb.reply):
            if stage is not None:
                self.bytes_sent += sum(stage.sender_bytes)
                self.messages_sent += stage.offsets[-1]
        return self._timing()

    def _fold_entry(self) -> Tuple[list, list]:
        """Each node's compute and entry timeouts from its bootstrap.

        Returns each node's time and the key of the pop it starts its
        plan in.
        """
        start = self.start
        stamps = self.stamps
        overheads = self.tables.entry_overhead
        now = []
        keys = []
        pre = 0
        for pid, (work, overhead) in enumerate(zip(self.compute, overheads)):
            t = start
            key = (-1.0, pid)
            if work > 0:
                t = t + work
                key = (t, key, 0)
                pre += 1
            ready = t
            if overhead > 0:
                t = t + overhead
                key = (t, key, 0)
                pre += 1
            stamps[pid] += (ready, t)
            now.append(t)
            keys.append(key)
        self.pops += pre
        return now, keys

    def _inject(self, stage, now, keys) -> List[list]:
        """Every sender's chunks of *stage*, from its current pop on.

        Returns each queue's arrival records (unordered) and moves each
        sender to its drain.  A chunk that lands at or before the limit
        of its queue (the last plan delivery there, once the plan is
        served) makes the phase inseparable.
        """
        queues: List[list] = [[] for _ in range(self._nqueues)]
        if stage is None:
            return queues
        gaps = stage.gaps
        occs = stage.occupancy
        offsets = stage.offsets
        limit = self._limit
        limits = self._limits
        senders = 0
        if stage.lats is None:
            dsts = stage.dsts
            chunks = zip(dsts, gaps, occs, stage.holds)
            latency = self.latency
            for s in range(self.p):
                lo = offsets[s]
                n = offsets[s + 1] - lo
                if not n:
                    continue
                t = now[s]
                key = keys[s]
                # The first arrival is the stream's earliest: if it clears
                # the last plan delivery at every queue, so do the rest.
                # Else check chunk by chunk, up to the first that does.
                if t + gaps[lo] + occs[lo] + latency <= limit:
                    u = t
                    for k in range(lo, lo + n):
                        u = u + gaps[k]
                        u = u + occs[k]
                        if u + latency > limit:
                            break
                        if u + latency <= limits[dsts[k]]:
                            raise _Inseparable
                for idx, (dst, gap, occ, hold) in zip(range(n), chunks):
                    t = t + gap
                    t = t + occ
                    queues[dst].append((t + latency, key, idx, hold, dst))
                now[s] = t
                keys[s] = (t, key, n)
                senders += 1
        else:
            # Latencies differ by tier, so a sender's first chunk is not
            # always its earliest arrival: check every chunk.
            chunks = zip(stage.dsts, gaps, occs, stage.holds, stage.lats, stage.queues)
            for s in range(self.p):
                lo = offsets[s]
                n = offsets[s + 1] - lo
                if not n:
                    continue
                t = now[s]
                key = keys[s]
                for idx, (dst, gap, occ, hold, lat, q) in zip(range(n), chunks):
                    t = t + gap
                    t = t + occ
                    a = t + lat
                    if a <= limits[q]:
                        raise _Inseparable
                    queues[q].append((a, key, idx, hold, dst))
                now[s] = t
                keys[s] = (t, key, n)
                senders += 1
        # Per sender its drain; per chunk its arrival and delivery.
        self.pops += senders + 2 * offsets[-1]
        return queues

    def _settle(self, stage, served, done, now, keys, expected, unmarshal) -> None:
        """Serve every queue's arrivals of one stage after its delivery
        keyed in *served*, and complete each node's receive of the stage.

        A core receives through its engine and, on a cluster, its node's
        wire, so its receive completes at the later of its last delivery
        from each.  Updates *served* to each queue's last delivery.
        """
        p = self.p
        done[:p] = [_IDLE] * p
        for w in range(p, self._nqueues):
            arrivals = stage[w]
            if arrivals:
                arrivals.sort()
                served[w] = _serve(arrivals, served[w], done)
        for q in range(p):
            arrivals = stage[q]
            wire = done[q]
            if arrivals:
                arrivals.sort()
                served[q] = _serve(arrivals, served[q], done)
            last = done[q]
            if wire > last:
                last = wire
            self._finish(q, now, keys, expected[q], unmarshal[q], last)

    def _finish(self, q, now, keys, expected, unmarshal, last) -> None:
        """Node *q*'s receive of one stage, whose last delivery is keyed
        *last*, and its unmarshal step; stamps the stage's end."""
        t = now[q]
        key = keys[q]
        if expected and not last < key:
            # The delivery pops after the node's own pop: it waits and
            # resumes in the wake that delivery pushes.  (A delivery
            # pushes at most one other entry, the next delivery, which
            # lands a hold later, so the wake's push index never decides
            # a comparison.)
            t = last[0]
            key = (t, last, 0)
            self.pops += 1
        if unmarshal:
            t = t + unmarshal
            key = (t, key, 0)
            self.pops += 1
        self.stamps[q].append(t)
        now[q] = t
        keys[q] = key

    def _release(self, t: float, key: tuple) -> None:
        """Price the barrier's down sweep from the root, free at *t* in
        the pop keyed *key*.

        By the time the root has every up message, every other node has
        finished its receives and waits for its down message, and every
        queue is idle.  The sweep is walked in ascending pid, so each
        node's parent has sent before the node is reached: a down message
        between cores of one node (or on a flat topology) finds its
        engine idle, while those into one node's wire, all sent by lower
        pids, are served in key order when the walk reaches the node's
        lowest core.
        """
        p = self.p
        hop = self.sw.barrier_hop_cycles
        node_of = self._node_of
        control = self.tables.control
        stamps = self.stamps
        kids = _tree(p)
        # down[pid]: the key of the delivery of pid's down message;
        # wires[node]: the down messages into the node's wire.
        down = [None] * p
        wires: List[list] = [[] for _ in range(self._nqueues - p)]
        for pid in range(p):
            if pid:
                if node_of is not None and node_of[pid] != node_of[pid - 1]:
                    arrivals = wires[node_of[pid]]
                    if arrivals:
                        arrivals.sort()
                        _serve(arrivals, _IDLE, down)
                last = down[pid]
                t = last[0]
                key = (t, last, 0)
                if hop:
                    t = t + hop
                    key = (t, key, 0)
            for child in kids[pid]:
                if hop:
                    t = t + hop
                    key = (t, key, 0)
                occ, hold, latency, _, queue = control[child]
                t = t + occ
                arr = (t + latency, key, 0, hold, child)
                if queue < p:
                    down[child] = (arr[0] + hold, arr, 0)
                else:
                    wires[queue - p].append(arr)
                # The sender's drain, pushed after the arrival.
                key = (t, key, 1)
            stamps[pid].append(t)
        # Per down message: arrive, deliver, wake and the sender's drain,
        # plus the sender's and the receiver's hop.
        self.pops += (p - 1) * (6 if hop else 4)

    # ------------------------------------------------------------------
    # The full heap
    # ------------------------------------------------------------------
    def _replay(self) -> Tuple[float, float, float]:
        p = self.p
        self._heap: list = []
        self._seq = count()
        self.bytes_sent = 0
        self.messages_sent = 0
        self._busy = [False] * self._nqueues
        self._fifo: List[deque] = [deque() for _ in range(self._nqueues)]
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
        #: Per node, the end time of each stage: compute (the node's
        #: ready time), entry, plan, data, reply, barrier — only the
        #: first two when p == 1.
        self.stamps: List[List[float]] = [[] for _ in range(p)]
        gens = [self._node(pid) for pid in range(p)]
        finished = [False] * p
        # Bootstrap every node generator in pid order at t = start, like
        # the DES's pid-ordered process bootstraps (nothing a bootstrap
        # pushes can tie with a later bootstrap: all pushes land at
        # strictly later times).
        for pid in range(p):
            try:
                next(gens[pid])
            except StopIteration:
                finished[pid] = True

        heap = self._heap
        seq = self._seq
        busy = self._busy
        fifo = self._fifo
        delivered = self._delivered
        consumed = self._consumed
        wait_stream = self._wait_stream
        wait_target = self._wait_target
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
        # The heap drained, so its pops == pushes == the seq counter's value.
        self.pops = next(seq)
        if not all(finished):
            raise RuntimeError("sync deadlocked: a node never completed the phase")
        return self._timing()

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
        overhead = tb.entry_overhead[pid]
        if overhead > 0:
            t = t + overhead
            heappush(heap, (t, next(seq), _NODE, pid))
            t = yield
        stamps.append(t)

        if p == 1:
            return

        # -- 1. plan exchange ------------------------------------------
        t = self._send_burst(pid, t, tb.plan, _PLAN)
        t = yield
        if not self._try_recv(pid, _PLAN, p - 1):
            t = yield
        stamps.append(t)

        # -- 2. data messages: puts + get requests, then 3. get replies --
        for stage, stream, expected, unmarshal in (
            (tb.data, _DATA, tb.expected_data[pid], tb.unmarshal_data[pid]),
            (tb.reply, _REPLY, tb.expected_reply[pid], tb.unmarshal_reply[pid]),
        ):
            if stage is not None and stage.offsets[pid] < stage.offsets[pid + 1]:
                t = self._send_burst(pid, t, stage, stream)
                t = yield
            if expected and not self._try_recv(pid, stream, expected):
                t = yield
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
    def _send_burst(self, pid: int, t0: float, stage, stream) -> float:
        """Inject sender *pid*'s chunks of *stage* starting at *t0*.

        The injection timeline is a sequential float64 fold —
        ``t += gap; t += occupancy`` per chunk — matching the oracle's
        chained marshal and send timeouts exactly (adding a 0.0 gap is a
        bitwise no-op).  Arrivals push in entry order, then the sender's
        drain resume: the arrival places the oracle reserves when the
        stage starts.
        """
        heap = self._heap
        seq = self._seq
        lo = stage.offsets[pid]
        hi = stage.offsets[pid + 1]
        dsts = stage.dsts
        gaps = stage.gaps
        occs = stage.occupancy
        holds = stage.holds
        lats = stage.lats
        t = t0
        if lats is None:
            latency = self.latency
            for k in range(lo, hi):
                t = t + gaps[k]
                t = t + occs[k]
                heappush(
                    heap, (t + latency, next(seq), _ARRIVE, dsts[k], dsts[k], holds[k], stream)
                )
        else:
            queues = stage.queues
            for k in range(lo, hi):
                t = t + gaps[k]
                t = t + occs[k]
                heappush(
                    heap, (t + lats[k], next(seq), _ARRIVE, queues[k], dsts[k], holds[k], stream)
                )
        heappush(heap, (t, next(seq), _NODE, pid))
        self.bytes_sent += stage.sender_bytes[pid]
        self.messages_sent += hi - lo
        return t

    def _send_control(self, pid: int, t0: float, dst: int, stream) -> float:
        """Single barrier control message, up to the parent or down to a
        child (every child's pid is above its parent's)."""
        if dst < pid:
            occ, hold, latency, queue, _ = self.tables.control[pid]
        else:
            occ, hold, latency, _, queue = self.tables.control[dst]
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
    machine, sw, traffic, tables, compute_cycles, local_words, seq: int
) -> Tuple[float, float, float]:
    """Run phase number *seq*, whose epoch *tables* are built, on the
    epoch path; returns (start, ready, end).

    Folds the kernel's work back into the simulator: the entry count
    joins ``sim.event_count``, the clock advances to *end*, and the
    network's lifetime byte/message counters include this phase's
    injections.  With observability on, the phase's ``qsm.*`` spans are
    recorded too.
    """
    phase = EpochPhase(machine, sw, tables, compute_cycles)
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
