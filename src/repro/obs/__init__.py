"""``repro.obs`` — structured observability for the simulation stack.

The paper's methodology is *decomposing measured time*: it argues by
comparing where a sync actually spends its cycles against where the QSM
and BSP cost models say it should.  This package gives the reproduction
that same lens programmatically:

* **spans** (:mod:`repro.obs.spans`) — nested, per-processor time
  ranges with both simulated-cycle and wall clocks, emitted by the
  qsmlib sync engine (plan/data/reply/barrier), the network, the
  message-passing collectives, and the membank microbenchmark;
* **metrics** (:mod:`repro.obs.metrics`) — a registry of named
  counters/gauges/histograms that merges exactly across ``--jobs N``
  worker processes;
* **exporters** (:mod:`repro.obs.export`) — Chrome ``trace_event``
  JSON (Perfetto-loadable, one track per simulated processor) and
  JSONL, wired into the CLI as ``--trace``/``--metrics``;
* **kernel event sink** (:mod:`repro.obs.sink`) — the single
  ``Simulator._step_hook`` consumer that the trace recorder and any
  other kernel-event observers subscribe to.

Overhead contract
-----------------
Observability is **off by default** and must stay near free when off:
model code fetches ``sim.obs`` once per scope and guards with
``is not None``, so a disabled run pays one load+branch per
instrumentation *site* (never per simulated event).  The budget is
enforced by ``benchmarks/bench_obs.py`` (< 3% vs the committed
baseline); ``make bench`` continues to enforce the overall 20% gate.

Usage
-----
::

    from repro import obs

    obs.enable()                       # or QSM_OBS=1 in the environment
    out = run_sample_sort(...)         # models auto-attach observers
    with open("trace.json", "w") as fh:
        obs.write_trace(fh)
    obs.disable()

State is process-global (like the ``QSM_SYNC_PATH`` switch) so a whole
experiment pipeline — including ``--jobs N`` workers, which inherit the
``QSM_OBS`` environment variable and ship their captures back through
:func:`drain_payload`/:func:`merge_payload` — flips on with one switch.
"""

from __future__ import annotations

import os
from typing import IO, List, Optional, Union

from repro.obs.export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sink import KernelEventSink, unlink_hook
from repro.obs.spans import Observer, RunCapture, Span

__all__ = [
    "Observer",
    "RunCapture",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelEventSink",
    "unlink_hook",
    "FAULT_TRACK",
    "enabled",
    "enable",
    "disable",
    "reset",
    "attach",
    "state",
    "metrics",
    "runs",
    "drain_payload",
    "merge_payload",
    "write_trace",
    "write_metrics",
    "write_events",
    "chrome_trace_events",
    "validate_chrome_trace",
]

#: Env var that switches collection on for a whole process tree.
ENV_VAR = "QSM_OBS"
#: Reserved track id for fault-injection events (`repro.faults`): the
#: trace export names it "faults" so injected drops/retransmits get
#: their own lane instead of landing on a processor's track.
FAULT_TRACK = -1
#: Default cap on recorded spans+instants per run (drop-newest beyond).
DEFAULT_SPAN_LIMIT = 1_000_000


class ObsState:
    """Process-global collection state: captured runs + merged metrics."""

    def __init__(self, spans: bool = True, span_limit: int = DEFAULT_SPAN_LIMIT) -> None:
        self.record_spans = spans
        self.span_limit = span_limit
        self.runs: List[RunCapture] = []
        self.metrics = MetricsRegistry()
        self.observers: List[Observer] = []

    def new_run(self, label: Optional[str]) -> RunCapture:
        run = RunCapture(len(self.runs), label, limit=self.span_limit)
        self.runs.append(run)
        return run

    def finalize_all(self) -> None:
        for observer in self.observers:
            observer.finalize()


_STATE: Optional[ObsState] = None


def enabled() -> bool:
    """Whether observability collection is currently on."""
    return _STATE is not None


def state() -> Optional[ObsState]:
    return _STATE


def enable(spans: bool = True, span_limit: int = DEFAULT_SPAN_LIMIT) -> ObsState:
    """Switch collection on (fresh state); idempotent flag-wise.

    ``spans=False`` collects metrics only — cheaper, used by
    ``--metrics`` without ``--trace``.
    """
    global _STATE
    _STATE = ObsState(spans=spans, span_limit=span_limit)
    os.environ[ENV_VAR] = "1" if spans else "metrics"
    return _STATE


def disable() -> None:
    """Switch collection off and drop any captured state."""
    global _STATE
    _STATE = None
    os.environ[ENV_VAR] = "0"


def reset() -> None:
    """Clear captured runs/metrics but keep collection on (no-op when
    off).  Worker processes call this so state forked from the parent
    is not re-reported."""
    global _STATE
    if _STATE is not None:
        _STATE = ObsState(spans=_STATE.record_spans, span_limit=_STATE.span_limit)


def attach(sim, label: Optional[str] = None) -> Optional[Observer]:
    """Attach an :class:`Observer` to *sim* if collection is on.

    Model constructors call this right after creating their simulator;
    the observer lands in ``sim.obs`` where instrumentation sites find
    it.  Returns ``None`` (and leaves ``sim.obs`` alone) when off.
    """
    if _STATE is None:
        return None
    observer = Observer(
        sim, _STATE.new_run(label), _STATE.metrics, record_spans=_STATE.record_spans
    )
    _STATE.observers.append(observer)
    sim.obs = observer
    return observer


def metrics() -> MetricsRegistry:
    """The live registry; raises when collection is off (the disabled
    state stays genuinely free — no implicit enabling)."""
    if _STATE is None:
        raise RuntimeError("observability is disabled; call repro.obs.enable() first")
    return _STATE.metrics


def runs() -> List[RunCapture]:
    if _STATE is None:
        return []
    return _STATE.runs


# ----------------------------------------------------------------------
# Cross-process aggregation (the --jobs N path; see experiments.executor)
# ----------------------------------------------------------------------
def drain_payload() -> Optional[dict]:
    """Serialize and clear everything captured so far in this process.

    Called in worker processes after each task so the parent can merge
    captures in deterministic task order.
    """
    if _STATE is None:
        return None
    _STATE.finalize_all()
    payload = {
        "runs": [run.serialize() for run in _STATE.runs],
        "metrics": _STATE.metrics.snapshot(),
    }
    reset()
    return payload


def merge_payload(payload: Optional[dict]) -> None:
    """Fold a worker's :func:`drain_payload` into this process's state.

    Runs are renumbered in merge order, so results are independent of
    which worker executed which task (the executor merges in task
    order).
    """
    if payload is None or _STATE is None:
        return
    for rec in payload["runs"]:
        run = RunCapture.deserialize(len(_STATE.runs), rec, limit=_STATE.span_limit)
        _STATE.runs.append(run)
    _STATE.metrics.merge_snapshot(payload["metrics"])


# ----------------------------------------------------------------------
# Export conveniences over the global state
# ----------------------------------------------------------------------
def _open_maybe(path_or_fh: Union[str, IO[str]], mode: str = "w"):
    if isinstance(path_or_fh, str):
        return open(path_or_fh, mode), True
    return path_or_fh, False


def write_trace(path_or_fh: Union[str, IO[str]]) -> int:
    """Export captured runs as Chrome trace JSON; returns event count."""
    if _STATE is None:
        raise RuntimeError("observability is disabled; nothing to export")
    _STATE.finalize_all()
    fh, close = _open_maybe(path_or_fh)
    try:
        return write_chrome_trace(_STATE.runs, fh)
    finally:
        if close:
            fh.close()


def write_metrics(path_or_fh: Union[str, IO[str]]) -> int:
    """Export the merged metrics registry as JSONL; returns line count."""
    if _STATE is None:
        raise RuntimeError("observability is disabled; nothing to export")
    _STATE.finalize_all()
    fh, close = _open_maybe(path_or_fh)
    try:
        return write_metrics_jsonl(_STATE.metrics, fh, runs=len(_STATE.runs))
    finally:
        if close:
            fh.close()


def write_events(path_or_fh: Union[str, IO[str]]) -> int:
    """Export raw span/instant records as JSONL; returns line count."""
    if _STATE is None:
        raise RuntimeError("observability is disabled; nothing to export")
    _STATE.finalize_all()
    fh, close = _open_maybe(path_or_fh)
    try:
        return write_events_jsonl(_STATE.runs, fh)
    finally:
        if close:
            fh.close()


# Honour QSM_OBS=1 at import so spawned worker processes (which re-import
# rather than fork) come up collecting, mirroring the QSM_SYNC_PATH idiom.
_env = os.environ.get(ENV_VAR, "").strip().lower()
if _env in ("1", "true", "on"):
    enable(spans=True)
elif _env == "metrics":
    enable(spans=False)
