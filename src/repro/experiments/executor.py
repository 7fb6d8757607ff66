"""Parallel sweep execution over simulation points.

The experiment sweeps are embarrassingly parallel: every grid point is
an independent simulated run with its own deterministically-derived
seed.  :func:`parallel_map` fans those points out over a
``multiprocessing`` pool while guaranteeing the *same results in the
same order* as a sequential run — workers receive explicit
``(config, seed)`` task tuples, never shared mutable state, so the
job count can only change wall-clock time, never output.

Ground rules for callers:

* the worker function must be a **module-level** function (picklable);
* each task tuple must carry everything the run needs, including its
  derived seed — workers must not consult global RNG state;
* results are returned in task order (``Pool.map`` semantics).

``jobs=1`` (the default everywhere) bypasses multiprocessing entirely
and runs in-process, which keeps single-job behaviour byte-identical
to the pre-parallel code and keeps tests debuggable.

Every other run takes one capture path: each point's result travels
with the obs payload, sanitizer diagnostics and fault tally recorded
while it ran, and the parent merges those captures in task order.  So
side state reaches the parent whatever armed it (a CLI flag, the
environment, or a fault plan pinned on one machine config), and
traces, diagnostics and fault counts are independent of the job count.
Merged metrics match a sequential run to the last bit or two only:
histogram moments and float tallies are summed per point, then across
points, which rounds differently from one running sum (fig4 ``--fast
--metrics`` reads a ``qsm.phase.comm_cycles`` mean of
2958133.879362528 at ``--jobs 1`` and 2958133.8793625287 at ``--jobs
2`` or under ``--cache``).

Resilient execution
-------------------
When an :class:`ExecutionPolicy` is installed (:func:`set_policy`,
driven by the CLI's ``--retries``/``--task-timeout``/``--checkpoint``
flags), points run on a process-per-task engine with

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  unhandled exception) poisons only its own point;
* **per-task timeout** — a hung point is terminated after
  ``task_timeout_seconds``;
* **bounded retries with exponential backoff** — each failed attempt
  waits ``backoff_seconds * backoff_factor**(attempt-1)``, then a
  fresh worker process is spawned;
* **failure records** — a point that exhausts its retries yields a
  :class:`FailedPoint` in the result list and a :class:`FailureRecord`
  (exception + full retry history) retrievable via
  :func:`drain_failures`, so one poisoned point no longer kills a
  sweep.

Point cache in two tiers
------------------------
:func:`parallel_map` replays a point it has already computed from one
:mod:`repro.store` tier:

* the **disk tier** when a store is installed
  (:func:`repro.store.set_store`: the CLI's ``--cache DIR`` or
  ``--checkpoint DIR``, ``serve``, or ``QSM_CACHE=DIR``).  A second
  identical sweep executes zero simulator points, byte-identically and
  independent of the job count (see docs/SERVICE.md), and re-running an
  interrupted command resumes from it (see docs/ROBUSTNESS.md);
* else, while observability is off, the process-wide **memory tier**
  (:func:`repro.store.memory_store`), shared by every call (the
  ``all``/``report`` loop, library callers): fig5 repeats fig4's
  latency points and table4 repeats fig4's and fig6's.  Obs-on runs
  keep the plain loop, because merged metric captures are not bit-exact
  (see above).

One key function and one set of rules serve both tiers:

* a point's key is :func:`repro.store.point_key` over the worker's
  name and the task, with the armed fault plan and the obs and
  sanitizer modes as env.  The memory tier's env adds the resolved
  sync path, :func:`effective_jobs` and whether a policy is installed:
  paths and job counts are bit-identical by contract, but keying them
  keeps in-process epoch≡oracle and jobs-1≡N checks executing both
  sides;
* only module-level functions are cached: a closure, lambda, partial
  or callable instance can carry state no key sees, so it runs every
  time, as does a task whose key is not fully structural
  (``canonical(..., strict=True)`` raises, e.g. for an object printed
  with its address, which a later object can reuse);
* identical keys in one batch are computed once; keys in flight
  elsewhere (another thread of a sweep service, or another process on
  the same disk store) are waited on and read back
  (:mod:`repro.store.flight`);
* only successful points are kept, as pickled captures (result, obs
  payload, sanitizer diagnostics, fault tally): a failed point, or a
  result that does not pickle, runs again next time (and on resume).
  If a point raises, side state is left as the plain loop leaves it;
* hits, misses and coalesced points count in
  :func:`repro.store.counters` and reach the store's listener.  A
  replayed point's sanitizer warnings count in the summary but are not
  printed again.

The memory tier is a 1 MiB LRU that keeps no entry above 64 KiB
(:mod:`repro.store.memory`).  The tier learns a capture's size only
by pickling it, so once one capture of a batch is refused for its size,
the rest of that batch is not offered to it (fig3's nine ~88 KB run
records are all one size).  A later capture of that batch that would
have fit is then not kept either: a lost hit next time, never a wrong
result.  The memory tier also holds **recorded runs**
(:func:`recorded_run`): a sample-sort program already run for another
machine is priced, not run again (:func:`repro.qsmlib.price_run`),
because fig4–6, fig8 and table4 vary only ``l``, ``o`` or the topology
over the programs fig2 runs.  So ``all --fast`` runs 35 qsmlib programs,
not 116.  A recorded run is held as live objects (the run record with
read-only arrays and its :class:`~repro.qsmlib.Recording`: traffic and
chunk layout), charged its in-memory size, so neither keeping nor
recalling it pickles anything.  It is keyed by ``n`` and the run config
with network, topology and fault plan blanked
(:meth:`~repro.qsmlib.RunConfig.recorded`): the inputs of the program's
half of the run.  It is looked up inside the worker, so it serves any
caller, but only while the memory tier is active and no sanitizer is
armed, since the sanitizer checks the half that pricing skips.
:func:`clear_memo` empties the memory tier.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import time
import types
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import check, faults, obs
from repro import store as result_store
from repro.qsmlib.config import SoftwareConfig

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ExecutionPolicy",
    "FailureRecord",
    "FailedPoint",
    "effective_jobs",
    "parallel_map",
    "set_policy",
    "clear_policy",
    "policy",
    "failures",
    "drain_failures",
    "is_failed",
    "clear_memo",
    "recorded_run",
]


def effective_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` and ``1`` mean sequential; ``0`` or negative means "one
    per CPU" (the conventional ``-j0`` idiom).
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Resilience policy and failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """How :func:`parallel_map` should behave under adversity."""

    #: Kill a task's worker after this many wall seconds (None = never).
    task_timeout_seconds: Optional[float] = None
    #: Retries after the first failed attempt before the point is
    #: recorded as failed.
    max_retries: int = 2
    #: Base wait before the first retry.
    backoff_seconds: float = 0.25
    #: Multiplier applied to the wait after each failed attempt.
    backoff_factor: float = 2.0
    #: Absolute ``time.monotonic()`` stamp after which no further point
    #: may start and running points are cancelled (None = no deadline).
    #: Unlike the per-point ``task_timeout_seconds``, this bounds the
    #: *whole request*: the sweep service arms it so a per-request
    #: deadline cancels the underlying ``parallel_map`` cleanly —
    #: already-finished points keep their results (and stay cached),
    #: the rest come back as failed points with a ``deadline`` error.
    deadline_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_timeout_seconds is not None and not self.task_timeout_seconds > 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got {self.task_timeout_seconds!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff_for(self, attempt: int) -> float:
        """Wait before retrying after failed attempt *attempt* (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


@dataclass
class FailureRecord:
    """One sweep point that exhausted its retry budget."""

    fn: str
    index: int
    task_repr: str
    error: str
    #: Per-attempt history: ``{"attempt": k, "error": ..., "backoff_seconds": ...}``.
    attempts: List[Dict[str, Any]] = field(default_factory=list)

    def to_row(self) -> List[Any]:
        return [self.fn, self.index, self.task_repr, len(self.attempts), self.error]


class FailedPoint:
    """Sentinel standing in for a failed task's result."""

    __slots__ = ("failure",)

    def __init__(self, failure: FailureRecord) -> None:
        self.failure = failure

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FailedPoint {self.failure.fn}[{self.failure.index}]: {self.failure.error}>"


def is_failed(value: Any) -> bool:
    """Whether a :func:`parallel_map` result slot is a failed point."""
    return isinstance(value, FailedPoint)


_POLICY: Optional[ExecutionPolicy] = None
_FAILURES: List[FailureRecord] = []


def set_policy(policy: Optional[ExecutionPolicy]) -> None:
    """Install the process-global execution policy (None = plain mode)."""
    global _POLICY
    _POLICY = policy


def clear_policy() -> None:
    set_policy(None)


def policy() -> Optional[ExecutionPolicy]:
    return _POLICY


def failures() -> List[FailureRecord]:
    """Failure records accumulated since the last :func:`drain_failures`."""
    return list(_FAILURES)


def drain_failures() -> List[FailureRecord]:
    """Return and clear the accumulated failure records."""
    out = list(_FAILURES)
    _FAILURES.clear()
    return out


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def parallel_map(fn: Callable[[T], R], tasks: Sequence[T], jobs: Optional[int] = 1) -> List[R]:
    """Map *fn* over *tasks*, optionally across processes.

    Results come back in task order regardless of completion order, so
    output is independent of the job count.  With ``jobs`` resolving to
    1 — or fewer than two tasks — and no policy installed, this is a
    plain in-process loop.

    Every other run merges per-point captures: each task's obs
    span/metric payload, sanitizer diagnostics and fault tally are
    drained after it runs and the parent merges them **in task order**,
    so exported traces, aggregated metrics and diagnostic summaries are
    also independent of the job count.

    With an :class:`ExecutionPolicy` installed (see :func:`set_policy`)
    the points run on the resilient process-per-task engine: per-task
    timeouts, retries with backoff and crash isolation.  A point that
    exhausts its retries comes back as a :class:`FailedPoint` (test
    with :func:`is_failed`); everything else is unchanged.

    With a result store installed (:func:`repro.store.set_store`), or
    else with observability off, every task is first looked up by its
    key in that tier of :mod:`repro.store`; cached points replay their
    capture and only novel points execute (see the module docstring).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    tier = _tier()
    keys = _point_keys(fn, tasks, jobs, tier)
    if any(keys):
        return _merge_captures(_cached_map(fn, tasks, keys, jobs, tier))
    if _POLICY is None and min(effective_jobs(jobs), len(tasks)) <= 1:
        return [fn(t) for t in tasks]
    return _merge_captures(_captured_map(fn, tasks, jobs))


def _worker_init() -> None:
    """Pool initializer: drop obs/sanitizer/fault state inherited via fork.

    Re-arming keeps the worker's mode (``QSM_SANITIZE`` is inherited)
    while clearing any diagnostics the parent had already recorded, so
    they are not shipped back — and double-counted — per worker.
    """
    obs.reset()
    if check.armed():
        check.arm(check.mode())
    faults.reset_tally()


def _capture_task(fn: Callable[[T], R], task: T) -> tuple:
    """Run one task and bundle its result with captured side state:
    ``(result, obs payload, sanitizer diagnostics, fault tally)``.

    Module-level (picklable).  Under the ``spawn`` start method the
    worker re-imports :mod:`repro.obs`, :mod:`repro.check` and
    :mod:`repro.faults`, which re-enable collection from the inherited
    ``QSM_OBS`` / ``QSM_SANITIZE`` / ``QSM_FAULTS`` environment
    variables.
    """
    return (fn(task),) + _drain_side_state()


# ----------------------------------------------------------------------
# Capture-based engines
# ----------------------------------------------------------------------
#: One per-point outcome: ("ok", (result, obs payload, diagnostics,
#: fault tally)) or ("failed", FailureRecord).
_Entry = Tuple[str, Any]


def _merge_captures(entries: Sequence[_Entry]) -> List[Any]:
    """Fold per-point captures into the process state, in task order,
    and assemble the result list (the single merge point for every
    engine but the plain in-process loop)."""
    results: List[Any] = []
    for status, value in entries:
        if status == "ok":
            _merge_side_state(value[1:])
            results.append(value[0])
        else:
            _FAILURES.append(value)
            results.append(FailedPoint(value))
    return results


def _drain_side_state() -> tuple:
    """Drain the obs payload, sanitizer diagnostics and fault tally this
    process holds.

    The in-process capture loop drains global state after every task;
    the cache drains what it holds before the map, to be re-merged
    *before* task captures, or state recorded before the map (a
    previous figure's metrics, say) would be swept into the first
    task's cache entry and replayed forever after.
    """
    return obs.drain_payload(), check.drain_diagnostics(), faults.drain_tally()


def _merge_side_state(side: tuple) -> None:
    payload, diags, tally = side
    obs.merge_payload(payload)
    check.merge_diagnostics(diags)
    faults.merge_tally(tally)


def _captured_map(
    fn: Callable[[T], R],
    tasks: List[T],
    jobs: Optional[int],
    progress: Optional[Callable[[int, _Entry], None]] = None,
) -> List[_Entry]:
    """Run *tasks* and return per-point capture entries in task order
    (no merging).

    Resilient engine when a policy is installed, otherwise an
    in-process loop for one job or the ordered pool for more; each
    point's captured side state stays separate so the caller can
    interleave it with cached captures.  *progress* is called exactly
    once per point as it settles (cache streaming).
    """
    if _POLICY is not None:
        return _resilient_captures(
            fn, tasks, effective_jobs(jobs), _POLICY, progress=progress
        )
    n_jobs = min(effective_jobs(jobs), len(tasks))
    task_fn = partial(_capture_task, fn)
    pool = None
    if n_jobs <= 1:
        captures = map(task_fn, tasks)
    else:
        import multiprocessing

        # chunksize > 1 amortises IPC for fine-grained sweeps while
        # imap keeps results in task order.
        chunksize = max(1, len(tasks) // (4 * n_jobs))
        pool = multiprocessing.Pool(processes=n_jobs, initializer=_worker_init)
        captures = pool.imap(task_fn, tasks, chunksize=chunksize)
    entries: List[_Entry] = []
    try:
        for i, capture in enumerate(captures):
            entry: _Entry = ("ok", capture)
            entries.append(entry)
            if progress is not None:
                progress(i, entry)
    finally:
        # terminate+join so Ctrl-C mid-map never leaves orphaned
        # workers behind (Pool.__exit__ only terminates).
        if pool is not None:
            pool.terminate()
            pool.join()
    return entries


# ----------------------------------------------------------------------
# Point cache (repro.store, either tier)
# ----------------------------------------------------------------------
def _tier() -> Any:
    """The tier :func:`parallel_map` caches in: the installed store,
    else the memory tier while observability is off, else none."""
    installed = result_store.active_store()
    if installed is not None or obs.enabled():
        return installed
    return result_store.memory_store()


def _cache_env() -> Optional[dict]:
    """Ambient state folded into point keys: the armed global fault
    plan (a machine-pinned plan already travels in the task tuple), and
    the obs and sanitizer modes, because a capture recorded with either
    off carries no obs payload or diagnostics to replay.  ``None`` when
    all are off, so plain keys (and stores written before the modes
    were keyed) still hit.  The sync path is excluded on purpose — all
    paths are bit-identical by contract, so caching across them is
    sound."""
    env: Dict[str, Any] = {}
    plan = faults.active_plan()
    if plan is not None:
        env["faults"] = plan.to_spec() or "noop"
    collecting = obs.state()
    if collecting is not None:
        env["obs"] = [
            "spans" if collecting.record_spans else "metrics",
            collecting.span_limit,
        ]
    if check.armed():
        env["sanitize"] = check.mode()
    return env or None


def _fn_name(fn: Callable) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def _module_level(fn: Callable) -> bool:
    """Whether *fn* is a plain function bound under its own name at the
    top level of its module, so that its name identifies what it
    computes."""
    if not isinstance(fn, types.FunctionType):
        return False
    module = sys.modules.get(fn.__module__)
    return getattr(module, fn.__qualname__, None) is fn


def _point_keys(
    fn: Callable, tasks: List[Any], jobs: Optional[int], tier: Any
) -> List[Optional[str]]:
    """Each task's key in *tier* (``None`` for a task with no fully
    structural form); no keys without a tier or for a *fn* that is not
    a module-level function."""
    if tier is None or not _module_level(fn):
        return []
    env = _cache_env()
    if isinstance(tier, result_store.MemoryStore):
        env = {
            "store": env,
            "sync": SoftwareConfig().sync_path.value,
            "jobs": effective_jobs(jobs),
            "policy": _POLICY is not None,
        }
    return result_store.point_keys(_fn_name(fn), tasks, env=env, strict=True)


def _cached_map(
    fn: Callable[[T], R],
    tasks: List[T],
    keys: List[Optional[str]],
    jobs: Optional[int],
    tier: Any,
) -> List[_Entry]:
    """Replay the points *tier* holds, execute the rest and keep each
    success; returns entries in task order.

    Identical keys inside one batch are computed once; keys already in
    flight elsewhere (another thread of a sweep service) are waited on
    and read back from the tier (single-flight dedupe).  A task without
    a key runs every time.
    """
    fn_name = _fn_name(fn)
    slots = [i if key is None else key for i, key in enumerate(keys)]
    done: Dict[Any, _Entry] = {}
    leaders: List[int] = []
    followers: List[int] = []
    held = _drain_side_state()
    # Buffer the store counters' obs mirror: mirrored increments between
    # two in-process tasks would be drained into the next task's kept
    # capture and double-counted on every replay.
    result_store.defer_obs_mirror()

    # The memory tier refuses only captures over its entry cap; after
    # one such refusal the rest of the batch is not pickled to find out.
    offering = True

    def settle(i: int, entry: _Entry, led: bool = True) -> None:
        """Keep and count one computed point; release its flight if led."""
        nonlocal offering
        done[slots[i]] = entry
        key = keys[i]
        if key is None:
            return
        status, value = entry
        if status == "ok" and offering:
            try:
                kept = tier.put_capture(key, value)
            except (pickle.PicklingError, TypeError, AttributeError):
                pass  # an unpicklable result is returned, not kept
            else:
                offering = kept or not isinstance(tier, result_store.MemoryStore)
        if led:
            result_store.flight_finish(key)
        result_store.record(
            "misses", key=key, fn=fn_name,
            status="computed" if status == "ok" else "failed",
        )

    try:
        seen: set = set()
        for i, key in enumerate(keys):
            if key in seen:
                result_store.record(
                    "coalesced", key=key, fn=fn_name, index=i, status="coalesced"
                )
                continue
            if key is not None:
                seen.add(key)
                capture = tier.get_capture(key)
                if capture is not None:
                    done[key] = ("ok", capture)
                    result_store.record("hits", key=key, fn=fn_name, index=i, status="hit")
                    continue
                # Single-flight: lead the keys nobody else is computing;
                # wait on the rest after our own batch finishes.
                if not result_store.flight_begin(key):
                    followers.append(i)
                    continue
            leaders.append(i)

        try:
            _captured_map(
                fn,
                [tasks[i] for i in leaders],
                jobs,
                progress=lambda j, entry: settle(leaders[j], entry),
            )
        finally:
            for i in leaders:  # crash safety: never strand followers
                if keys[i] is not None:
                    result_store.flight_finish(keys[i])

        for i in followers:
            result_store.flight_wait(keys[i])
            capture = tier.get_capture(keys[i])
            if capture is not None:
                done[keys[i]] = ("ok", capture)
                result_store.record("coalesced", key=keys[i], fn=fn_name, status="hit")
            else:  # the other flight failed or never stored: compute inline
                settle(i, _captured_map(fn, [tasks[i]], 1)[0], led=False)

        # Re-merge pre-map state first, so merge order matches a plain
        # run: everything recorded before the map, then task captures.
        _merge_side_state(held)
    except BaseException:
        # Leave side state as the plain loop would: what came before the
        # map, the points before the one that raised, then its partial
        # state.
        partial_state = _drain_side_state()
        _merge_side_state(held)
        ran = itertools.takewhile(lambda e: e is not None, (done.get(s) for s in slots))
        _merge_captures(list(ran))
        _merge_side_state(partial_state)
        raise
    finally:
        result_store.flush_obs_mirror()
    return [done[s] for s in slots]


def clear_memo() -> None:
    """Forget every point and recorded run the memory tier holds."""
    result_store.memory_store().clear()


def recorded_run(
    name: str, parts: Any, record: Callable[[], Tuple[T, int]]
) -> Tuple[T, bool]:
    """The recorded run of program *name* on *parts*, and whether
    *record* was called to make it.

    A run this process already recorded is recalled from the memory
    tier; otherwise ``record()`` runs the program and returns its result
    and the bytes to charge for keeping it (see
    :func:`~repro.store.live_size`).  It is kept as the object itself
    (:meth:`~repro.store.MemoryStore.put_object`), and a recall returns
    that same object: ``record()`` must return one that nobody mutates
    afterwards, and callers must not mutate what they get.  Nothing is
    recalled or kept unless the memory tier is the active tier, no
    sanitizer is armed and *parts* has a fully structural form.
    """
    tier = _tier()
    if not isinstance(tier, result_store.MemoryStore) or check.armed():
        return record()[0], True
    try:
        key = result_store.point_key(f"recorded:{name}", parts, strict=True)
    except result_store.NotStructural:
        return record()[0], True
    recorded = tier.get_object(key)
    if recorded is not None:
        return recorded, False
    recorded, size = record()
    tier.put_object(key, recorded, size)
    return recorded, True


# ----------------------------------------------------------------------
# Resilient engine: process-per-task, timeout, retry
# ----------------------------------------------------------------------
def _resilient_worker(fn: Callable, task: Any, send_conn) -> None:
    """Process-per-task worker body (forked; fresh for every attempt)."""
    try:
        _worker_init()
        blob = pickle.dumps(
            ("ok", _capture_task(fn, task)), protocol=pickle.HIGHEST_PROTOCOL
        )
    except BaseException as exc:  # noqa: BLE001 - the whole point is isolation
        blob = pickle.dumps(("error", f"{type(exc).__name__}: {exc}"))
    try:
        send_conn.send_bytes(blob)
    finally:
        send_conn.close()


def _resilient_captures(
    fn: Callable[[T], R],
    tasks: List[T],
    n_jobs: int,
    pol: ExecutionPolicy,
    progress: Optional[Callable[[int, _Entry], None]] = None,
) -> List[_Entry]:
    """The process-per-task engine behind :func:`parallel_map` when an
    :class:`ExecutionPolicy` is installed.  See the module docstring
    for the behaviour contract.

    Returns per-point capture entries in task order (merging is the
    caller's job, so the cache engine can interleave these with stored
    captures).  *progress* fires exactly once per point, when it
    succeeds or finally fails.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    fn_name = _fn_name(fn)

    # capture per index: ("ok", capture-tuple) or ("failed", FailureRecord)
    done: Dict[int, Tuple[str, Any]] = {}
    pending: List[int] = list(range(len(tasks)))
    # index -> (process, parent_conn, start_monotonic)
    running: Dict[int, Tuple[Any, Any, float]] = {}
    # (ready_monotonic, index) of points waiting out a retry backoff
    delayed: List[Tuple[float, int]] = []
    attempts_log: Dict[int, List[Dict[str, Any]]] = {}

    def spawn(index: int) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_resilient_worker, args=(fn, tasks[index], send_conn), daemon=True
        )
        proc.start()
        send_conn.close()  # parent's copy; child holds the write end
        running[index] = (proc, recv_conn, time.monotonic())

    def settle(index: int, status: str, value: Any) -> None:
        proc, conn, _ = running.pop(index)
        conn.close()
        proc.join()
        if status == "ok":
            done[index] = ("ok", value)
            if progress is not None:
                progress(index, done[index])
        else:
            handle_failure(index, str(value))

    def handle_failure(index: int, error: str, final: bool = False) -> None:
        attempt = attempts_log.setdefault(index, [])
        attempt_no = len(attempt) + 1
        retrying = not final and attempt_no <= pol.max_retries
        backoff = pol.backoff_for(attempt_no) if retrying else 0.0
        attempt.append(
            {"attempt": attempt_no, "error": error, "backoff_seconds": backoff}
        )
        if retrying:
            delayed.append((time.monotonic() + backoff, index))
            return
        failure = FailureRecord(
            fn=fn_name,
            index=index,
            task_repr=repr(tasks[index])[:200],
            error=error,
            attempts=attempt,
        )
        done[index] = ("failed", failure)
        if progress is not None:
            progress(index, done[index])

    try:
        from multiprocessing.connection import wait as _conn_wait

        while pending or running or delayed:
            now = time.monotonic()
            # Whole-request deadline: stop starting points, cancel the
            # running ones, and fail everything outstanding — no retries
            # (they could not beat the deadline either).
            if pol.deadline_at is not None and now >= pol.deadline_at:
                for proc, conn, _ in running.values():
                    proc.terminate()
                for proc, conn, _ in running.values():
                    proc.join()
                    conn.close()
                outstanding = sorted(
                    set(pending) | set(running) | {idx for _, idx in delayed}
                )
                running.clear()
                pending.clear()
                delayed.clear()
                for idx in outstanding:
                    handle_failure(idx, "request deadline exceeded", final=True)
                break
            # Promote retry waits whose backoff has elapsed (front of
            # the queue: retries should not starve behind fresh points).
            ready = [d for d in delayed if d[0] <= now]
            if ready:
                delayed[:] = [d for d in delayed if d[0] > now]
                pending[:0] = [idx for _, idx in ready]
            while pending and len(running) < n_jobs:
                spawn(pending.pop(0))
            if not running:
                if delayed:
                    time.sleep(max(0.0, min(d[0] for d in delayed) - time.monotonic()))
                continue

            # Wait for results, bounded by the nearest deadline/backoff.
            wait_s = 0.25
            if pol.task_timeout_seconds is not None:
                nearest = min(
                    start + pol.task_timeout_seconds for _, _, start in running.values()
                )
                wait_s = min(wait_s, max(0.0, nearest - time.monotonic()))
            if delayed:
                wait_s = min(
                    wait_s, max(0.0, min(d[0] for d in delayed) - time.monotonic())
                )
            if pol.deadline_at is not None:
                wait_s = min(wait_s, max(0.0, pol.deadline_at - time.monotonic()))
            conn_map = {conn: idx for idx, (_, conn, _) in running.items()}
            for conn in _conn_wait(list(conn_map), timeout=wait_s):
                idx = conn_map[conn]
                try:
                    status, value = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    proc = running[idx][0]
                    proc.join()
                    settle(idx, "error", f"worker crashed (exit code {proc.exitcode})")
                    continue
                settle(idx, status, value)

            # Enforce per-task deadlines on whatever is still running.
            if pol.task_timeout_seconds is not None:
                now = time.monotonic()
                for idx in [
                    i
                    for i, (_, _, start) in running.items()
                    if now - start > pol.task_timeout_seconds
                ]:
                    proc = running[idx][0]
                    proc.terminate()
                    proc.join()
                    settle(
                        idx,
                        "error",
                        f"task timed out after {pol.task_timeout_seconds:g}s",
                    )
    finally:
        # Ctrl-C / crash teardown: no orphaned workers.
        for proc, conn, _ in running.values():
            proc.terminate()
        for proc, conn, _ in running.values():
            proc.join()
            conn.close()
        running.clear()

    # Entries in task order; the caller merges captured side state.
    return [done[i] for i in range(len(tasks))]
