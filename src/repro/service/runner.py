"""Per-request sweep runner: one forked process, one request.

Everything a sweep mutates in this codebase is process-global by
design — obs capture, sanitizer diagnostics, fault plans and tallies,
the store hit/miss counters, the execution policy.  The v1 service
therefore serialised sweeps behind a lock.  The hardened service gets
concurrency *and* exact isolation the same way the ``--jobs`` executor
does: each admitted request runs in its own forked process, where the
globals are private, so two concurrent requests with different fault
plans report exactly the counters, tallies and diagnostics their
serial CLI runs would.

:func:`runner_main` is the child entry point.  It talks to the server
over a :mod:`multiprocessing` pipe with small tagged tuples:

* ``("point", event)`` — one store listener event per sweep point;
* ``("result", {...})`` — the experiment payload plus this request's
  cache counter delta, fault tally, sanitizer diagnostics and failed
  points;
* ``("cancelled", message)`` — the request's deadline expired;
* ``("error", message)`` — the experiment blew up.

Isolation is exact because the child *resets* every inherited global
before running: it installs its own store handle on the shared cache
directory (cross-process single-flight still coalesces identical
points between runners), arms the request's own fault plan, and
installs a deadline policy only when the request carries one — a
request without a deadline executes on exactly the engine path a CLI
run would.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Tuple

# Loaded once here, in the server, so that every forked runner inherits
# it: numpy loads ``numpy.random`` lazily, and every sweep point seeds a
# generator, so without this each runner would import it per request.
import numpy.random  # noqa: F401

from repro.service.protocol import SweepRequest

__all__ = ["runner_main", "spawn_runner"]


def runner_main(conn, payload: Dict[str, Any], cache_dir: str, default_jobs: int) -> None:
    """Child-process body: run one sweep request in full isolation."""
    from repro import check, faults
    from repro import store as result_store
    from repro.experiments import executor
    from repro.experiments.registry import run_experiment

    try:
        req = SweepRequest.from_payload(payload)

        # Shed every global the fork inherited from the server process
        # (or from the test process hosting an in-process server).
        result_store.clear_listener()
        executor.clear_policy()
        executor.drain_failures()
        faults.disarm()
        check.drain_diagnostics()

        # Our own handle on the shared cache: counters start at zero, so
        # the final counters ARE this request's delta; the file-backed
        # flight table still coalesces against sibling runners.
        result_store.set_store(cache_dir)
        os.environ[result_store.ENV_VAR] = str(cache_dir)

        if req.faults:
            faults.arm(req.faults)  # also exports QSM_FAULTS for workers
        if req.deadline_seconds is not None:
            # max_retries=0: a point failing the deadline can never beat
            # it on a retry, and a crash should surface immediately.
            executor.set_policy(
                executor.ExecutionPolicy(
                    max_retries=0,
                    deadline_at=time.monotonic() + req.deadline_seconds,
                )
            )

        result_store.set_listener(lambda event: conn.send(("point", event)))
        try:
            result = run_experiment(
                req.experiment,
                fast=req.fast,
                seed=req.seed,
                jobs=req.jobs if req.jobs != 1 else default_jobs,
                models=req.models,
                ns=req.ns,
            )
        finally:
            result_store.clear_listener()

        failures = executor.drain_failures()
        deadline_hit = [f for f in failures if "deadline" in str(f.error)]
        if deadline_hit:
            conn.send(
                (
                    "cancelled",
                    f"deadline of {req.deadline_seconds:g}s exceeded with "
                    f"{len(deadline_hit)} point(s) outstanding (completed "
                    "points stayed cached; resubmit to resume)",
                )
            )
            return

        counters = result_store.counters()
        conn.send(
            (
                "result",
                {
                    "payload": result.to_json_dict(),
                    "cache": {
                        name: counters.get(name, 0)
                        for name in (
                            "hits", "misses", "coalesced", "inflight", "quarantined"
                        )
                    },
                    "faults": faults.drain_tally(),
                    "diagnostics": [d.format() for d in check.drain_diagnostics()],
                    "failures": [
                        {"index": f.index, "error": str(f.error)} for f in failures
                    ],
                },
            )
        )
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # parent died first
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - double close
            pass


def spawn_runner(
    payload: Dict[str, Any], cache_dir: str, default_jobs: int
) -> Tuple[Any, Any]:
    """Fork one runner for *payload*; returns ``(process, parent_conn)``.

    Fork (not spawn) on purpose: the child inherits the server
    process's experiment registry as-is — including monkeypatched
    entries under test — exactly like the ``--jobs`` pool workers do.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    # NOT daemonic: the runner itself forks (--jobs pool workers, the
    # resilient engine's process-per-task), and daemons may not have
    # children.  The server reaps every runner it spawns.
    proc = ctx.Process(
        target=runner_main,
        args=(child_conn, payload, str(cache_dir), default_jobs),
    )
    proc.start()
    child_conn.close()  # the child's end lives in the child now
    return proc, parent_conn
