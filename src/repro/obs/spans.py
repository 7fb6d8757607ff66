"""Spans: named, nested time ranges on per-processor tracks.

A :class:`Span` records both clocks of a simulated activity — the
*simulated* interval ``[t0, t1]`` in cycles (what the paper's phase
decomposition is about) and the *wall-clock* interval ``[w0, w1]`` in
seconds (what the simulator itself spends producing it).  Spans live on
a *track* (by convention the simulated processor id), and tracks keep
an explicit nesting stack so exporters can render a flame-graph per
processor.

The API is designed for use inside simulation generators, where a
``with`` block is awkward across ``yield`` points in hot code:

* :meth:`Observer.begin` / :meth:`Observer.end` — explicit bracketing
  (``end`` enforces LIFO discipline per track);
* :meth:`Observer.span` — context manager for straight-line code;
* :meth:`Observer.complete` — record an already-known interval in one
  call (used by the epoch kernel, which prices a phase before it can
  report the phase's stage times);
* :meth:`Observer.instant` — a zero-duration marker event.

Every call is made through an observer the caller fetched with a
``sim.obs``-is-not-``None`` guard, so a disabled run pays one attribute
load and one branch per *site*, not per event — see the overhead
contract in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class Span:
    """One named interval on a track (times filled in by the observer)."""

    __slots__ = ("name", "track", "t0", "t1", "w0", "w1", "depth", "attrs")

    def __init__(
        self,
        name: str,
        track: int,
        t0: float,
        w0: float,
        depth: int,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.track = track
        self.t0 = t0
        self.t1 = t0
        self.w0 = w0
        self.w1 = w0
        self.depth = depth
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Simulated duration in cycles."""
        return self.t1 - self.t0

    @property
    def wall_seconds(self) -> float:
        return self.w1 - self.w0

    def serialize(self) -> tuple:
        return (self.name, self.track, self.t0, self.t1, self.w0, self.w1, self.depth, self.attrs)

    @classmethod
    def deserialize(cls, rec: tuple) -> "Span":
        name, track, t0, t1, w0, w1, depth, attrs = rec
        span = cls(name, track, t0, w0, depth, attrs)
        span.t1 = t1
        span.w1 = w1
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name} track={self.track} [{self.t0:g},{self.t1:g}]>"


class RunCapture:
    """Everything one simulator recorded: spans, instants, drop count."""

    def __init__(self, index: int, label: Optional[str] = None, limit: int = 1_000_000) -> None:
        self.index = index
        self.label = label
        self.limit = limit
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self.dropped = 0

    @property
    def empty(self) -> bool:
        return not self.spans and not self.instants

    def _add(self, store: List[Span], span: Span) -> None:
        if len(self.spans) + len(self.instants) >= self.limit:
            self.dropped += 1
            return
        store.append(span)

    def serialize(self) -> dict:
        return {
            "label": self.label,
            "dropped": self.dropped,
            "spans": [s.serialize() for s in self.spans],
            "instants": [s.serialize() for s in self.instants],
        }

    @classmethod
    def deserialize(cls, index: int, rec: dict, limit: int = 1_000_000) -> "RunCapture":
        run = cls(index, rec.get("label"), limit=limit)
        run.dropped = rec.get("dropped", 0)
        run.spans = [Span.deserialize(r) for r in rec.get("spans", [])]
        run.instants = [Span.deserialize(r) for r in rec.get("instants", [])]
        return run


class Observer:
    """Per-simulator recording frontend.

    Attached to a simulator as ``sim.obs`` (see :func:`repro.obs.attach`);
    instrumentation sites fetch it once and guard with ``is not None``.
    """

    __slots__ = (
        "sim",
        "run",
        "metrics",
        "record_spans",
        "_stacks",
        "_gauges",
        "_finalizers",
        "_finalized",
    )

    def __init__(
        self,
        sim,
        run: RunCapture,
        metrics: MetricsRegistry,
        record_spans: bool = True,
    ) -> None:
        self.sim = sim
        self.run = run
        self.metrics = metrics
        self.record_spans = record_spans
        self._stacks: Dict[int, List[Span]] = {}
        self._gauges: Dict[str, Any] = {}
        self._finalizers: List[Any] = []
        self._finalized = False

    def set_label(self, label: str) -> None:
        self.run.label = label

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str, track: int = 0, **attrs: Any) -> Optional[Span]:
        """Open a span at the current simulated instant; returns a handle
        to pass to :meth:`end` (or ``None`` when span recording is off)."""
        if not self.record_spans:
            return None
        stack = self._stacks.setdefault(track, [])
        span = Span(
            name, track, self.sim.now, time.perf_counter(), len(stack), attrs or None
        )
        stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> Optional[Span]:
        """Close *span* at the current simulated instant (LIFO per track)."""
        if span is None:
            return None
        stack = self._stacks.get(span.track)
        if not stack or stack[-1] is not span:
            raise ValueError(
                f"unbalanced span nesting on track {span.track}: "
                f"closing {span.name!r} but "
                f"{stack[-1].name + ' is open' if stack else 'the stack is empty'}"
            )
        stack.pop()
        span.t1 = self.sim.now
        span.w1 = time.perf_counter()
        self.run._add(self.run.spans, span)
        return span

    @contextmanager
    def span(self, name: str, track: int = 0, **attrs: Any):
        """``with obs.span("sync", proc=i):`` for straight-line code."""
        span = self.begin(name, track, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def complete(
        self,
        name: str,
        track: int,
        t0: float,
        t1: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Record a span whose interval is already known (bypasses the
        nesting stack; used by the epoch kernel, which knows a phase's
        stage times only once the phase has been priced).  The span
        nests one level below *parent*, or else below the spans open on
        its track."""
        if not self.record_spans:
            return None
        wall = time.perf_counter()
        depth = len(self._stacks.get(track, ())) if parent is None else parent.depth + 1
        span = Span(name, track, t0, wall, depth, attrs or None)
        span.t1 = t1
        span.w1 = wall
        self.run._add(self.run.spans, span)
        return span

    def instant(self, name: str, track: int = 0, **attrs: Any) -> None:
        """Zero-duration marker at the current simulated instant."""
        if not self.record_spans:
            return
        wall = time.perf_counter()
        span = Span(name, track, self.sim.now, wall, len(self._stacks.get(track, ())), attrs or None)
        self.run._add(self.run.instants, span)

    # ------------------------------------------------------------------
    # Gauges bound to this simulator's clock
    # ------------------------------------------------------------------
    def gauge(self, name: str):
        """A :class:`~repro.sim.monitor.TimeWeightedStat` on this sim,
        folded into the registry gauge *name* at finalize time."""
        from repro.sim.monitor import TimeWeightedStat

        stat = self._gauges.get(name)
        if stat is None:
            stat = self._gauges[name] = TimeWeightedStat(self.sim)
        return stat

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def add_finalizer(self, fn) -> None:
        """Register ``fn(observer)`` to run once at :meth:`finalize`
        (models use this to harvest their internal statistics)."""
        self._finalizers.append(fn)

    def finalize(self) -> None:
        """Close open spans, run harvesters, fold kernel/gauge totals.

        Idempotent; called by model drivers when a run completes (and by
        the exporters as a safety net).
        """
        if self._finalized:
            return
        self._finalized = True
        for stack in self._stacks.values():
            while stack:
                span = stack[-1]
                self.end(span)
        for fn in self._finalizers:
            fn(self)
        self._finalizers = []
        for name, stat in sorted(self._gauges.items()):
            span = self.sim.now - stat._start
            area = stat._area + stat._last_value * (self.sim.now - stat._last_time)
            self.metrics.gauge(name).fold(area, span, stat.maximum, stat._last_value)
        self._gauges = {}
        self.metrics.counter("sim.events_processed").inc(self.sim.event_count)
        self.metrics.counter("obs.spans_recorded").inc(len(self.run.spans))
        if self.run.dropped:
            self.metrics.counter("obs.spans_dropped").inc(self.run.dropped)
