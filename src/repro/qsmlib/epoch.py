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

On a flat topology two stages skip the heap altogether (see
docs/PERFORMANCE.md §1 for the full argument):

* **The plan prefix.**  :meth:`EpochPhase._fold_plan` prices every
  node's compute, entry and plan stages in closed form: plan starts in
  the heap's pop order, arrivals by the same float additions, and one
  FCFS fold ``finish = max(arrival, finish) + hold`` per receive queue.
  Where the heap would compare two same-instant entries, the fold
  compares their heap keys spelled as flat tuples (see ``_ROOT``).  The
  heap then starts at each node's plan completion.  The fold holds only
  while no data, reply or barrier arrival reaches a queue at or before
  the last plan delivery; the first send that breaks this raises
  :class:`_Inseparable` and the phase is re-priced with its plan stage
  on the heap.
* **The barrier release.**  Once the root has every up message, all
  other nodes wait for their down message and every queue is idle, so
  :meth:`EpochPhase._release` prices the down sweep as a tree
  recursion (hop, occupancy, latency, hold).

Both add the entries the heap would have popped to the phase's pop
count, so ``sim.event_count`` is the same on every route.

Eligibility is gated in
:meth:`~repro.qsmlib.runtime.SyncEngine.execute_phase`: send pacing,
finite receive buffers, network-perturbing fault plans and kernel step
hooks fall back to the oracle.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Dict, List, Tuple

import numpy as np

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

# The plan fold's heap keys.  The heap pops entries in (time, seq)
# order, and seq follows push order: the order of the pops that pushed
# them, then the push index within one pop.  So an entry sorts as the
# nested (time, key of the pop that pushed it, push index), down to the
# bootstrap that pushes every node's first entry in pid order.  The fold
# spells that flat: (time, pusher's time, ..., -1, ..., pusher's push
# index, push index).  -1 (the bootstrap, _ROOT) is below every
# simulated time, so keys of different depths already differ at the
# shorter one's -1, and equal time chains have equally long index tails.
_ROOT = (-1.0,)

# The fold seeds the heap with each node's plan completion.  A node that
# continues at its own drain keeps its plan-start rank (< p) as seq; the
# counter starts at p.  A node woken by its last plan delivery resumes
# after every entry already queued for that instant, so its seq sits
# above anything the counter reaches.  Every occupancy, hold and timed
# step is positive, so no later push lands on the instant it is made
# except such wakes (and those of data and reply deliveries come after
# the last plan delivery, which separability requires).
_WAKE_SEQ = 1 << 62

#: Per (p, exchange schedule): ``pos[s, q]`` is 1 + q's place in sender
#: s's plan peer list, and 0 on the diagonal.  Built on first use.
_PLAN_POSITIONS: Dict[tuple, tuple] = {}


class _Inseparable(Exception):
    """A data, reply or barrier arrival reaches a queue at or before the
    last plan delivery, so the folded plan does not hold for the phase."""


def _plan_positions(p: int, schedule: str, plan_dsts) -> tuple:
    key = (p, schedule)
    found = _PLAN_POSITIONS.get(key)
    if found is None:
        pos = np.zeros((p, p), dtype=np.intp)
        for src, dsts in enumerate(plan_dsts):
            pos[src, dsts] = np.arange(1, p)
        found = _PLAN_POSITIONS[key] = (pos, pos.tolist(), np.arange(p))
    return found


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
        """Replay the phase; returns (start, ready, end) timestamps.

        On a flat topology the plan prefix is folded (see
        :meth:`_fold_plan`) unless a zero-byte plan on a zero-overhead
        NIC makes its steps instantaneous; a phase the fold turns out
        not to hold for is re-priced with its plan stage on the heap.
        """
        if self._node_of is None and self.p > 1 and self.tables.plan_occupancy > 0:
            try:
                return self._replay(fold=True)
            except _Inseparable:
                pass
        return self._replay(fold=False)

    def _reset(self, fold: bool) -> None:
        p = self.p
        self._heap: list = []
        self._seq = count(p if fold else 0)
        #: Entries the heap would have popped in the folded stages.
        self._virtual = 0
        #: Every data, reply and barrier arrival must land after this
        #: (the last plan delivery, when the plan is folded).
        self._limit = float("-inf")
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
        self._finished = [False] * p
        #: Per node, the end time of each stage: compute (the node's
        #: ready time), entry, plan, data, reply, barrier — only the
        #: first two when p == 1.
        self.stamps: List[List[float]] = [[] for _ in range(p)]
        self._gens = [self._node(pid, fold) for pid in range(p)]

    def _replay(self, fold: bool) -> Tuple[float, float, float]:
        self._reset(fold)
        gens = self._gens
        finished = self._finished
        if fold:
            self._fold_plan()
            for gen in gens:
                next(gen)
        else:
            # Bootstrap every node generator in pid order at t = start,
            # like the DES's pid-ordered process bootstraps (nothing a
            # bootstrap pushes can tie with a later bootstrap: all pushes
            # land at strictly later times).
            for pid in range(self.p):
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
        # The heap drained, so its pops == pushes == the seq counter's
        # value (the fold's p seeded entries included).
        self.pops = next(seq) + self._virtual
        if not all(finished):
            raise RuntimeError("sync deadlocked: a node never completed the phase")
        stamps = self.stamps
        return self.start, max(s[0] for s in stamps), max(s[-1] for s in stamps)

    # ------------------------------------------------------------------
    # The folded prefix and the release sweep (flat topology)
    # ------------------------------------------------------------------
    def _fold_plan(self) -> None:
        """Price every node's compute, entry and plan stages in closed form.

        Plan starts follow the heap's pop order of each node's last
        pre-plan entry.  Arrivals are the heap's float additions, done
        in bulk.  Each receive queue serves its arrivals in key order
        with ``finish = max(arrival, finish) + hold``.  Keys are
        compared only where two entries share an instant: an arrival
        that ties the previous finish is started by whichever of the two
        pops later, and a node whose drain ties its last delivery
        continues at the drain only if the delivery popped first.  Seeds
        the heap with each node's plan completion and sets the limit
        every later arrival must clear.
        """
        p = self.p
        tb = self.tables
        hold = tb.plan_hold
        start = self.start
        compute = self.compute
        stamps = self.stamps

        # -- compute and entry: plan starts and the pops that make them
        begin = [start] * p
        keys = [_ROOT] * p  # key of the pop that starts each node's plan
        base = [0] * p  # push index of its first plan arrival in that pop
        pre = 0
        for pid, (work, overhead) in enumerate(zip(compute, tb.entry_overhead.tolist())):
            t = start
            key = _ROOT
            idx = pid * p  # the bootstrap's push index for this node
            if work > 0:
                t = t + work
                key = (t,) + key + (idx,)
                idx = 0
                pre += 1
            ready = t
            if overhead > 0:
                t = t + overhead
                key = (t,) + key + (idx,)
                idx = 0
                pre += 1
            stamps[pid] += (ready, t)
            begin[pid] = t
            keys[pid] = key
            base[pid] = idx
        order = sorted(range(p), key=lambda pid: keys[pid] + (pid,))
        rank = [0] * p
        for r, pid in enumerate(order):
            rank[pid] = r

        # -- arrivals: row s of `inj` is s's injection fold, so column
        #    k >= 1 ends its (k-1)-th message; column 0 becomes the
        #    never-served diagonal.
        pos, pos_rows, cols = _plan_positions(p, self.sw.exchange_schedule, tb.plan_dsts)
        inj = np.empty((p, p))
        inj[:, 0] = begin
        inj[:, 1:] = tb.plan_occupancy
        np.add.accumulate(inj, axis=1, out=inj)
        drain = inj[:, -1].tolist()
        arr = inj + self.latency
        arr[:, 0] = np.inf
        # Row r holds the arrivals of the rank-r sender at every queue;
        # a stable sort per column serves ties in plan-start order.
        by_rank = np.array(order)
        at = arr[by_rank[:, None], pos[by_rank]]
        served = at.argsort(axis=0, kind="stable")
        times = at[served, cols].T.tolist()
        senders = by_rank[served].T.tolist()

        def arrive_key(q: int, i: int) -> tuple:
            src = senders[q][i]
            return (times[q][i],) + keys[src] + (base[src] + pos_rows[src][q] - 1,)

        def deliver_key(q: int, i: int, first: int) -> tuple:
            # Deliveries first..i form one busy period: the first was
            # pushed by its arrival, each later one by the one before.
            return tuple(finishes[q][first:i + 1][::-1]) + arrive_key(q, first) + (0,) * (
                i - first + 1
            )

        # -- one FCFS fold per receive queue.  A key comparison is due
        #    only where two entries share an instant, and the pushing
        #    pops' times (each key's second element) nearly always
        #    settle it.
        last = [0.0] * p  # each queue's last plan delivery
        began = [0.0] * p  # when it started, i.e. when its pusher popped
        opened = [0] * p  # service position that opened its busy period
        finishes = []
        for q in range(p):
            col = times[q]
            fin = []
            finishes.append(fin)
            f = -1.0
            s = -1.0
            first = 0
            for i in range(p - 1):
                a = col[i]
                if a < f:
                    s = f
                else:
                    if a > f:
                        first = i
                    else:
                        # The arrival ties the delivery ahead of it: the
                        # later of the two pops starts this service.
                        pushed = keys[senders[q][i]][0]
                        if pushed > s or (
                            pushed == s and arrive_key(q, i) > deliver_key(q, i - 1, first)
                        ):
                            first = i
                    s = a
                f = s + hold
                fin.append(f)
            last[q] = f
            began[q] = s
            opened[q] = first

        # -- plan completions seed the heap
        heap = self._heap
        waits = []
        tail = p - 2
        for q in range(p):
            done, end = last[q], drain[q]
            if done == end:
                # The drain was pushed when the plan started: it pops
                # first unless the last delivery's pusher popped earlier.
                pushed = keys[q][0]
                resumes = pushed > began[q] or (
                    pushed == began[q]
                    and deliver_key(q, tail, opened[q]) < (end,) + keys[q] + (base[q] + p - 1,)
                )
            else:
                resumes = done < end
            if resumes:
                heap.append((end, rank[q], _NODE, q))
                stamps[q].append(end)
            else:
                waits.append(q)
                stamps[q].append(done)
        # Waiting nodes resume in their last deliveries' key order.  Ties
        # in the first two elements are common (every queue drains the
        # same latecomer's messages); the later a busy period opened, the
        # earlier its last delivery usually sorts, so the full-key sort
        # mostly finds a single run.
        waits.sort(key=lambda q: (last[q], began[q], -opened[q]))
        if any(
            last[a] == last[b] and began[a] == began[b] for a, b in zip(waits, waits[1:])
        ):
            waits.sort(key=lambda q: deliver_key(q, tail, opened[q]))
        for n, q in enumerate(waits):
            heap.append((last[q], _WAKE_SEQ + n, _NODE, q))
        heapify(heap)

        self._limit = max(last)
        self._virtual += pre + 2 * p * (p - 1) + len(waits)
        sent = p * (p - 1)
        self.bytes_sent += sent * tb.plan_bytes
        self.messages_sent += sent

    def _release(self, t: float) -> None:
        """Price the barrier's down sweep from the root, free at *t*.

        By the time the root has every up message, every other node has
        finished its receives and waits for its down message, so the
        heap is empty and each down message finds its receive engine
        idle: the sweep is the tree recursion of the heap's float
        operations (hop, send occupancy, latency, hold, hop).
        """
        assert not self._heap
        p = self.p
        hop = self.sw.barrier_hop_cycles
        occ = self.tables.control_occupancy
        hold = self.tables.control_hold
        latency = self.latency
        stamps = self.stamps
        todo = [(0, t)]
        while todo:
            pid, t = todo.pop()
            for child in _children(pid, p):
                if hop:
                    t = t + hop
                t = t + occ
                woken = t + latency + hold
                todo.append((child, woken + hop if hop else woken))
            stamps[pid].append(t)
            self._finished[pid] = True
        # The other nodes' generators wait for down messages that the
        # heap will never deliver; closing them frees their frames now
        # rather than leaving each phase in a reference cycle.
        for gen in self._gens[1:]:
            gen.close()
        # Per down message: arrive, deliver, wake and the sender's drain,
        # plus the sender's and the receiver's hop.
        self._virtual += (p - 1) * (6 if hop else 4)
        self.bytes_sent += (p - 1) * CONTROL_BYTES
        self.messages_sent += p - 1

    # ------------------------------------------------------------------
    # Node timeline (mirrors SyncEngine._node_proc, with every
    # `yield sim.timeout(...)` / event wait as one heap entry).
    # ------------------------------------------------------------------
    def _node(self, pid: int, fold: bool):
        heap = self._heap
        seq = self._seq
        p = self.p
        tb = self.tables
        stamps = self.stamps[pid]

        if fold:
            # Compute, entry and plan are priced: resume at plan completion.
            t = yield
        else:
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

            # -- 1. plan exchange --------------------------------------
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
        elif self._node_of is None:
            # Flat topology: the root prices the whole release at once.
            self._release(t)
            return
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
            # The first arrival is the stream's earliest.
            if t + gaps[0] + occs[0] + latency <= self._limit:
                raise _Inseparable
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
        if t + latency <= self._limit:
            raise _Inseparable
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
