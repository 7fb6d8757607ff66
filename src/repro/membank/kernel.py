"""The flat event kernel behind the §4 microbenchmark.

Every processor issues its accesses back to back, and each access is a
tuple of *stages* (the interconnect supplies the trips, see
:mod:`repro.membank.interconnect`):

* ``(DELAY, cycles)`` — wait a fixed time;
* ``(STALL, cycles)`` — the same, for an injected bank stall (marked in
  the trace);
* ``(r, cycles)`` with ``r >= 0`` — acquire FCFS resource ``r``, hold it
  for ``cycles``, release it.

:func:`replay` runs every processor on one event calendar: a FIFO
``deque`` of pids per distinct due time, and a heap of those due times.
Its timings are bit-identical to running each processor as a generator
process on :class:`~repro.sim.Simulator` — a timeout per delay, a
request, timeout and release of a :class:`~repro.sim.Resource` per
hold; the test suite keeps that model as its oracle — because the
calendar gets one entry for each event that simulator schedules, pushed
at the same point in processing order:

* a delay, or a hold once granted, pushes a timeout at ``now + cycles``;
* a grant is an entry at ``now``, whether the resource was free or a
  release hands it to its first FIFO waiter — and a release hands it
  over before the releasing processor moves on;
* processors start in pid order at t = 0, before any other entry.

The simulator processes its entries in ``(time, seq)`` order, ``seq``
being push order, so every tie breaks as it does there.  The calendar
keeps that order without storing ``seq``: entries due at one time wait
in their deque in push order, and the heap hands out the due times in
increasing order.  The deque of the instant being drained stays in the
calendar under ``now``, so an entry pushed at ``now`` — a grant, a
handover, a zero-length stage, or a positive duration that rounds away
(``now + cycles == now``) — queues behind every entry already due then,
where its ``seq`` would place it.  Only a new due time costs a heap
push, and most pushes are ties: in fig7 ``--fast``, 35% land at ``now``
and 33% on a due time already queued.  This needs every stage's cycles
finite and ``>= 0``, so that no entry falls due before ``now``.

The simulator also processes one finish event per processor, which
changes no timing; :attr:`Replay.events` counts it, so a caller that
folds the total into ``sim.event_count`` reports the simulator's event
count unchanged.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from repro.sim.monitor import TallyStat

#: Stage kind: a fixed delay.
DELAY = -1
#: Stage kind: a fixed delay that is an injected bank stall.
STALL = -2

#: ``(kind_or_resource, cycles)``; see the module docstring.
Stage = Tuple[int, float]

# A started processor "finishes" this delay and moves on to its first
# access, exactly as after any other delay.
_START: Stage = (DELAY, 0)


class Replay:
    """The outcome of one :func:`replay`."""

    __slots__ = ("now", "events", "busy", "capacities", "stats")

    def __init__(self, now, events, busy, capacities, stats) -> None:
        #: Time of the last event (the run's end).
        self.now = now
        #: Events the generator-process model processes for this run.
        self.events: int = events
        #: Per resource, the summed durations of its holds, added in
        #: release order.
        self.busy: List[float] = busy
        self.capacities: Sequence[int] = capacities
        #: Per processor, the latencies of its accesses from *warmup* on.
        self.stats: List[TallyStat] = stats

    def utilization(self, resource: int) -> float:
        """Time-averaged busy fraction of *resource*'s slots."""
        if self.now <= 0:
            return 0.0
        return self.busy[resource] / (self.capacities[resource] * self.now)


def replay(
    capacities: Sequence[int],
    programs: Sequence[Sequence[Tuple[Stage, ...]]],
    warmup: int = 0,
    sim=None,
    banks: Optional[Sequence[Sequence[int]]] = None,
) -> Replay:
    """Run ``programs[pid]`` (one stage tuple per access) on every
    processor; resource ``r`` has ``capacities[r]`` slots.

    Every stage's cycles must be finite and ``>= 0``; the machine
    configs and interconnects of :mod:`repro.membank` check theirs when
    built, and no stage is checked here.

    With a *sim*, the run's events fold into ``sim.event_count`` and the
    clock ends at the last event.  If ``sim.obs`` is on, each access is a
    ``membank.access`` span on its processor's track (attributes
    ``bank`` from *banks* and ``warm``) and each stall stage a
    ``fault.bank_stall`` instant, recorded with the clock set to the
    simulated instant.
    """
    p = len(programs)
    free = list(capacities)
    waiters = [deque() for _ in capacities]
    busy = [0.0] * len(capacities)
    stats = [TallyStat() for _ in range(p)]
    obs = None if sim is None else sim.obs
    spans: list = [None] * p
    path: list = [()] * p  # stages of each processor's current access
    pos = [-1] * p  # index of its current stage
    stage = [_START] * p
    held: list = [None] * p  # start of the hold in progress
    access = [-1] * p  # index of its current access
    begun = [0] * p  # start time of its current access
    current = deque(range(p))  # pids due at `now`, in push order
    # Due time -> its pids in push order; `now` keeps `current`, so a
    # push that lands at `now` joins the instant being drained.
    due = {0: current}
    times: list = []  # heap of the due times after `now`
    seq = p  # events pushed, the starts included
    now = 0
    while True:
        if current:
            pid = current.popleft()
        elif times:
            del due[now]
            now = heappop(times)
            current = due[now]
            pid = current.popleft()
        else:
            break
        r, cycles = stage[pid]
        if r >= 0:
            start = held[pid]
            if start is None:  # granted: hold the resource
                held[pid] = now
                seq += 1
                t = now + cycles
                q = due.get(t)
                if q is None:
                    due[t] = deque((pid,))
                    heappush(times, t)
                else:
                    q.append(pid)
                continue
            held[pid] = None
            busy[r] += now - start
            queue = waiters[r]
            if queue:  # hand the slot over before this processor moves on
                current.append(queue.popleft())
                seq += 1
            else:
                free[r] += 1
        stages = path[pid]
        i = pos[pid] + 1
        while i == len(stages):  # the access is complete
            k = access[pid]
            if k >= warmup:  # never true for the start (k == -1)
                stats[pid].record(now - begun[pid])
            program = programs[pid]
            k += 1
            if obs is not None:
                sim._now = now
                obs.end(spans[pid])  # no-op at the start (None)
                if k < len(program):
                    spans[pid] = obs.begin(
                        "membank.access", pid, bank=banks[pid][k], warm=k >= warmup
                    )
            if k == len(program):
                break
            access[pid] = k
            begun[pid] = now
            stages = path[pid] = program[k]
            i = 0
        else:  # enter stage i
            pos[pid] = i
            s = stage[pid] = stages[i]
            r = s[0]
            if r < 0:
                if r == STALL and obs is not None:
                    sim._now = now
                    bank = banks[pid][access[pid]]
                    obs.instant("fault.bank_stall", pid, bank=bank, cycles=s[1])
                seq += 1
                t = now + s[1]
                q = due.get(t)
                if q is None:
                    due[t] = deque((pid,))
                    heappush(times, t)
                else:
                    q.append(pid)
            elif free[r]:
                free[r] -= 1
                current.append(pid)
                seq += 1
            else:
                waiters[r].append(pid)
    # Every due time drained, so every pushed entry (starts included) ran.
    run = Replay(now, seq + p, busy, capacities, stats)
    if sim is not None:
        sim._event_count += run.events
        sim._now = now
    return run
