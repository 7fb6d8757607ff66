"""The event loop at the heart of the discrete-event kernel.

The :class:`Simulator` owns a priority queue of ``(time, seq, event)``
triples.  ``seq`` is a monotonically increasing tie-breaker so that two
events scheduled for the same instant always fire in scheduling order —
this is what makes every simulation in this project bit-for-bit
reproducible.

Hot-path notes
--------------
This loop processes hundreds of thousands of events per simulated
second of a sample-sort run, so the kernel trades a little generality
for speed:

* :class:`Simulator` uses ``__slots__`` and :meth:`Simulator.run`
  inlines the per-event pop (``step`` remains for single-stepping and
  tests);
* :meth:`Simulator.defer` schedules a bare callable wrapped in a
  :class:`_Deferred` — two machine words instead of a full
  :class:`~repro.sim.events.Event` with a callback list.  Deferred
  callbacks still count toward :attr:`Simulator.event_count`;
* tracing hooks in via :attr:`Simulator._step_hook` (multiplexed by
  :class:`~repro.obs.sink.KernelEventSink`, which the
  :class:`~repro.sim.trace.TraceRecorder` subscribes to) instead of
  monkey-patching ``step``, which ``__slots__`` forbids;
* richer observability (spans, metrics) attaches as
  :attr:`Simulator.obs` — see :mod:`repro.obs`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, re-triggered events...)."""


class _Deferred:
    """A bare callable on the event queue (no value, no waiters).

    The kernel only ever calls ``event._fire()``, so storing the
    callable *as* ``_fire`` makes firing a plain function call with no
    dispatch overhead.  Used for process bootstraps and network
    arrivals, where nothing ever waits on the queue entry itself.
    """

    __slots__ = ("_fire",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self._fire = fn


# Event/process classes, cached lazily to break the import cycle
# (events.py imports this module) without paying a per-call import.
_event_cls = None
_timeout_cls = None
_process_cls = None
_allof_cls = None
_anyof_cls = None


def _bind_event_classes() -> None:
    global _event_cls, _timeout_cls, _process_cls, _allof_cls, _anyof_cls
    from repro.sim.events import AllOf, AnyOf, Event, Timeout
    from repro.sim.process import Process

    _event_cls = Event
    _timeout_cls = Timeout
    _process_cls = Process
    _allof_cls = AllOf
    _anyof_cls = AnyOf


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a nonnegative number of *cycles*.  The simulator never
    advances past the next scheduled event, and processing an event may
    schedule further events at the current instant (they run before time
    advances again).

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim):
    ...     yield sim.timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [5]
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_running",
        "_event_count",
        "_step_hook",
        "obs",
        "_event_sink",
    )

    def __init__(self) -> None:
        self._now: float = 0
        self._queue: list = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        #: Optional ``fn(when, event)`` observer called for every
        #: processed event.  Consumers should not install themselves
        #: here directly — subscribe to the multiplexing
        #: :class:`~repro.obs.sink.KernelEventSink` instead, so several
        #: observers can attach and detach independently.
        self._step_hook: Optional[Callable[[float, Any], None]] = None
        #: The installed :class:`~repro.obs.sink.KernelEventSink`, if any.
        self._event_sink: Optional[Any] = None
        #: The attached :class:`~repro.obs.spans.Observer`, or ``None``
        #: when observability is off (the default).  Model code guards
        #: every instrumentation site with ``sim.obs is not None`` so
        #: the disabled path costs one load and one branch per site.
        self.obs: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._event_count

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0) -> "Event":
        """Schedule *event* to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), event))
        return event

    def schedule_at(self, event: Any, when: float, seq: Optional[int] = None) -> Any:
        """Schedule *event* to fire at absolute time *when* (>= now).

        With *seq*, a number taken earlier from :meth:`reserve`, the event
        fires among same-instant events as if scheduled at the reservation.
        """
        if when < self._now:
            raise SimulationError(f"schedule_at into the past: {when!r} < {self._now!r}")
        heapq.heappush(self._queue, (when, next(self._seq) if seq is None else seq, event))
        return event

    def reserve(self, n: int) -> List[int]:
        """Take the next *n* tie-break numbers, in order, for later
        :meth:`schedule_at` calls."""
        seq = self._seq
        return [next(seq) for _ in range(n)]

    def defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Run the bare callable *fn* ``delay`` cycles from now.

        Cheaper than an :class:`Event` when nothing will ever wait on
        the occurrence (no value, no callbacks list).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), _Deferred(fn)))

    # Convenience constructors -----------------------------------------
    def event(self) -> "Event":
        """Create a fresh, untriggered :class:`Event` bound to this simulator."""
        if _event_cls is None:
            _bind_event_classes()
        return _event_cls(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that fires ``delay`` cycles from now."""
        if _timeout_cls is None:
            _bind_event_classes()
        return _timeout_cls(self, delay, value)

    def process(self, generator) -> "Process":
        """Spawn *generator* as a simulation process (starts at the current time)."""
        if _process_cls is None:
            _bind_event_classes()
        return _process_cls(self, generator)

    def all_of(self, events) -> "Event":
        if _allof_cls is None:
            _bind_event_classes()
        return _allof_cls(self, list(events))

    def any_of(self, events) -> "Event":
        if _anyof_cls is None:
            _bind_event_classes()
        return _anyof_cls(self, list(events))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = when
        self._event_count += 1
        if self._step_hook is not None:
            self._step_hook(when, event)
        event._fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulation time reaches *until*.

        ``until`` is exclusive: an event scheduled exactly at ``until``
        is *not* processed, and ``now`` is clamped to ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            # The queue never contains past events (schedule/schedule_at
            # validate), so the backwards-time check lives only in step().
            if until is None:
                while queue:
                    when, _seq, event = pop(queue)
                    self._now = when
                    processed += 1
                    if self._step_hook is not None:
                        self._step_hook(when, event)
                    event._fire()
            else:
                while queue:
                    if queue[0][0] >= until:
                        self._now = until
                        return
                    when, _seq, event = pop(queue)
                    self._now = when
                    processed += 1
                    if self._step_hook is not None:
                        self._step_hook(when, event)
                    event._fire()
                if until > self._now:
                    self._now = until
        finally:
            self._event_count += processed
            self._running = False

    def run_process(self, generator) -> Any:
        """Spawn *generator*, run to completion, and return its value.

        Raises :class:`SimulationError` if the queue drains while the
        process is still waiting (deadlock).
        """
        proc = self.process(generator)
        self.run()
        if not proc.triggered:
            raise SimulationError("deadlock: event queue drained with process pending")
        return proc.value
