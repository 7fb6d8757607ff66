"""Host wall-time spans for the layered benchmark, recorded from outside.

The benchmark attributes each unit's wall time to this repository's
modules ("layers") without touching the program: :func:`install` wraps
public functions and methods of the ``repro`` package and records one
span per call.  A span is ``[name, start_ns, end_ns, parent, pid,
arg]``; the name is ``"<layer>.<what>"`` and ``arg`` carries a count
where one exists (tasks mapped, DES events processed).

Timestamps come from ``time.perf_counter_ns``, which is CLOCK_MONOTONIC
on Linux, so spans recorded in forked pool workers line up with the
parent's.  Worker spans travel back with each task's result
(:class:`TracedTask`) and are re-parented under the ``executor.map``
span that dispatched them.

Spans stay in memory; :func:`chrome_trace` turns them into a Chrome
trace at exit.  Nothing here enables ``repro.obs``: observability moves
phases off the epoch sync path, which would change the code measured.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Recorder",
    "TracedTask",
    "attribute",
    "layer_of",
    "unit_profile",
    "chrome_trace",
    "install",
]

_perf_ns = time.perf_counter_ns

# Span record fields.
NAME, START, END, PARENT, PID, ARG = range(6)


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span buffer for one process tree.

    Spans nest through a stack, so the recorder assumes one thread per
    process, which holds for every batch workload.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _perf_ns(), 0, parent, self.pid, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, arg: int = 0) -> None:
        span = self.spans[idx]
        span[END] = _perf_ns()
        span[ARG] = arg
        self._stack.pop()

    def detach(self, mark: int) -> List[list]:
        """Remove and return the spans recorded since index *mark*, with
        parents made relative to the batch (-1 = outside it)."""
        batch = self.spans[mark:]
        del self.spans[mark:]
        for span in batch:
            span[PARENT] = span[PARENT] - mark if span[PARENT] >= mark else -1
        return batch

    def adopt(self, batch: Sequence[list], parent: int) -> None:
        """Append a detached batch; its top-level spans hang off *parent*."""
        base = len(self.spans)
        for span in batch:
            rel = span[PARENT]
            self.spans.append(span[:PARENT] + [base + rel if rel >= 0 else parent] + span[PID:])


#: The recorder :func:`install` wired into the wrappers.  Pool workers
#: reach it through this name because a pickled :class:`TracedTask`
#: cannot carry the recorder along.
_ACTIVE: Optional[Recorder] = None


class _Traced(NamedTuple):
    """A task result plus the spans its task recorded."""

    result: Any
    spans: List[list]


class TracedTask:
    """Picklable wrapper for the task callable handed to ``parallel_map``.

    Whether the task runs in-process or in a forked pool worker, it
    returns its result together with the spans recorded while it ran;
    the ``executor.map`` wrapper unwraps both before the experiment sees
    the result.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> _Traced:
        rec = _ACTIVE
        if rec is None:
            raise RuntimeError("TracedTask ran with no recorder installed")
        mark = len(rec.spans)
        idx = rec.begin("experiments.task")
        try:
            result = self.fn(task)
        finally:
            rec.end(idx)
        return _Traced(result, rec.detach(mark))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def attribute(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Wall seconds charged to each span's own code.

    Every instant is charged to the innermost spans running then: those
    with no running child.  For properly nested spans this is a span's
    duration minus the union of its children's intervals.  Where k
    children overlap (pool workers in different processes), each instant
    counts 1/k to each of them, so the charges of one unit always sum to
    the wall time its spans cover.
    """
    n = len(spans)
    events: List[Tuple[int, int, int]] = []
    for i, span in enumerate(spans):
        events.append((span[START], 1, i))
        # At equal times ends sort before starts, and inner (later) spans
        # end before their parents.
        events.append((span[END], 0, -i))
    events.sort()
    charged = [0.0] * n
    active = [False] * n
    children = [0] * n
    leaves: set = set()
    prev: Optional[int] = None
    for t, is_start, key in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / 1e9 / len(leaves)
            for j in leaves:
                charged[j] += share
        prev = t
        i = key if is_start else -key
        parent = spans[i][PARENT]
        if is_start:
            active[i] = True
            if parent >= 0 and active[parent]:
                children[parent] += 1
                leaves.discard(parent)
            if children[i] == 0:
                leaves.add(i)
        else:
            active[i] = False
            leaves.discard(i)
            if parent >= 0 and active[parent]:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    return charged


def unit_profile(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """One unit's spans folded into ``self_s``/``calls``/``arg`` per span
    name, and ``self_s`` per layer (key ``"layer:<name>"``)."""
    charged = attribute(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "arg": 0})
    for span, self_s in zip(spans, charged):
        row = out[span[NAME]]
        row["self_s"] += self_s
        row["calls"] += 1
        row["arg"] += span[ARG]
        out["layer:" + layer_of(span[NAME])]["self_s"] += self_s
    return dict(out)


def chrome_trace(spans: Sequence[Sequence[Any]], unit_of: Sequence[int]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds) for
    *spans*; ``unit_of[i]`` is the unit index span *i* belongs to."""
    t0 = min((s[START] for s in spans), default=0)
    events = [
        {
            "name": s[NAME],
            "cat": layer_of(s[NAME]),
            "ph": "X",
            "ts": (s[START] - t0) / 1e3,
            "dur": (s[END] - s[START]) / 1e3,
            "pid": s[PID],
            "tid": s[PID],
            "args": {"unit": unit, "arg": s[ARG]},
        }
        for s, unit in zip(spans, unit_of)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Wrapping the program from outside
# ----------------------------------------------------------------------
class _TimedGenerator:
    """Stands in for an SPMD program generator; each ``send`` is one
    ``algorithms.step`` span (the host-side program body up to its next
    ``yield ctx.sync()``)."""

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen, rec: Recorder) -> None:
        self._gen = gen
        self._rec = rec

    def send(self, value):
        rec = self._rec
        idx = rec.begin("algorithms.step")
        try:
            return self._gen.send(value)
        finally:
            rec.end(idx)


def _timed(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)

    return wrapper


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every ``repro.*`` module attribute holding *original* at
    *replacement*; modules that imported it by name hold their own
    reference (``runtime.py`` imports ``execute_epoch_phase``, the
    experiments import ``parallel_map`` and ``predict_point``)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap the layer entry points so calls record spans into *rec*.

    Returns a function that restores every rebinding.  Import the
    experiment registry before calling, so every module that holds a
    target by name already exists.
    """
    global _ACTIVE
    from repro.experiments import executor
    from repro.experiments import registry
    from repro.membank import microbench
    from repro.predict import engine
    from repro.qsmlib import epoch, plan
    from repro.qsmlib.program import QSMMachine
    from repro.qsmlib.runtime import SyncEngine
    from repro.sim.engine import Simulator

    undo: list = []
    for fn, name in (
        (registry.run_experiment, "experiments.run"),
        (engine.predict_point, "predict.point"),
        (plan.build_traffic, "plan.build_traffic"),
        (plan.apply_phase_semantics, "plan.apply"),
        (epoch.execute_epoch_phase, "epoch.phase"),
        (microbench.run_microbenchmark, "membank.run"),
    ):
        _rebind(fn, _timed(rec, name, fn), undo)

    orig_map = executor.parallel_map

    @functools.wraps(orig_map)
    def parallel_map(fn, tasks, jobs=1):
        tasks = list(tasks)
        idx = rec.begin("executor.map")
        try:
            outs = orig_map(TracedTask(fn), tasks, jobs)
        finally:
            rec.end(idx, len(tasks))
        results = []
        for out in outs:
            if isinstance(out, _Traced):
                rec.adopt(out.spans, idx)
                out = out.result
            results.append(out)
        return results

    _rebind(orig_map, parallel_map, undo)

    orig_machine_run = QSMMachine.run

    @functools.wraps(orig_machine_run)
    def machine_run(self, program, **kwargs):
        def timed_program(ctx, **kw):
            return _TimedGenerator(program(ctx, **kw), rec)

        idx = rec.begin("qsmlib.run")
        try:
            return orig_machine_run(self, timed_program, **kwargs)
        finally:
            rec.end(idx)

    orig_sim_run = Simulator.run

    @functools.wraps(orig_sim_run)
    def sim_run(self, until=None):
        before = self.event_count
        idx = rec.begin("sim.run")
        try:
            return orig_sim_run(self, until)
        finally:
            rec.end(idx, self.event_count - before)

    orig_execute_phase = SyncEngine.execute_phase
    for cls, attr, replacement in (
        (QSMMachine, "run", machine_run),
        (Simulator, "run", sim_run),
        (SyncEngine, "execute_phase", _timed(rec, "qsmlib.sync", orig_execute_phase)),
    ):
        undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    _ACTIVE = rec

    def uninstall() -> None:
        global _ACTIVE
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        _ACTIVE = None

    return uninstall
