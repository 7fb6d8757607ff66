"""Command-line entry point: regenerate any table or figure.

Usage::

    qsm-repro list
    qsm-repro models
    qsm-repro run fig2 [--fast] [--seed 7]
    qsm-repro run fig2 --models qsm-best,bsp-whp --ns 4096 --json out.json
    qsm-repro run fig2 --trace out.json --metrics out.jsonl
    qsm-repro run fig2 --cache .qsm-cache --jobs 4
    qsm-repro run fig8 --topology cluster,cores=4,intra_g=0.375
    qsm-repro all [--fast]
    qsm-repro serve --cache .qsm-cache --max-workers 4 --token SECRET
    qsm-repro submit fig1 --fast --json out.json --retries 5 --deadline 60
    qsm-repro service health
    qsm-repro service drain --token SECRET
    qsm-repro cache stats .qsm-cache

(or ``python -m repro.experiments.cli ...``).

``--trace`` exports a Chrome ``trace_event`` JSON (load it in
``chrome://tracing`` or https://ui.perfetto.dev; one track per simulated
processor) and ``--metrics`` a JSONL dump of the aggregated metrics
registry — see ``docs/OBSERVABILITY.md``.  Both work with ``--jobs N``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsm-repro",
        description="Regenerate the tables and figures of the QSM evaluation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("models", help="list registered prediction models")

    jobs_help = "worker processes for sweep points (1 = sequential, 0 = one per CPU)"
    trace_help = "export a Chrome trace_event JSON (chrome://tracing / Perfetto)"
    metrics_help = "export the aggregated metrics registry as JSONL"
    models_help = (
        "comma-separated prediction models to evaluate (see `qsm-repro models`); "
        "experiments without prediction lines ignore this"
    )
    sanitize_help = (
        "arm the QSM phase-conflict sanitizer (see docs/CHECKING.md): "
        "'error' fails on the first model violation, 'warn' reports them "
        "on stderr; bare --sanitize means --sanitize=error"
    )
    faults_help = (
        "arm a seeded fault-injection plan, e.g. 'drop=0.05,jitter=200,seed=3' "
        "(see docs/ROBUSTNESS.md); the simulated machine is perturbed, the "
        "prediction models are not"
    )
    checkpoint_help = (
        "journal completed sweep points to DIR (JSONL); re-running the same "
        "command resumes, replaying journalled points byte-identically"
    )
    retries_help = "retries per sweep point before it is recorded as failed (default 2)"
    timeout_help = "kill a sweep point's worker after this many seconds"
    strict_help = "exit non-zero if any sweep point failed (default: report and continue)"
    sync_path_help = (
        "force the sync-engine path for every sweep point: 'epoch' (the "
        "vectorized phase kernel, the default; automatically degrades to "
        "'slow' when a feature needs per-message events — see "
        "docs/PERFORMANCE.md) or 'slow' (the per-message DES oracle); "
        "sets QSM_SYNC_PATH so --jobs N workers inherit it"
    )
    cache_help = (
        "memoize sweep points in a content-addressed store at DIR (see "
        "docs/SERVICE.md); a re-run of an identical sweep replays from the "
        "store and executes zero simulator points"
    )
    topology_help = (
        "machine topology for the simulated runs: 'flat' (the default "
        "all-to-all g/o/l network) or 'cluster[,cores=C,intra_g=G,intra_o=O,"
        "intra_l=L,wire_g=W]' (two-tier cluster of multicores — see "
        "docs/MODEL.md); experiments without a topology knob ignore it"
    )

    def add_resilience_args(p) -> None:
        p.add_argument("--topology", metavar="SPEC", help=topology_help)
        p.add_argument("--cache", metavar="DIR", help=cache_help)
        p.add_argument(
            "--sync-path", choices=["slow", "epoch"],
            dest="sync_path", metavar="PATH", help=sync_path_help,
        )
        p.add_argument("--faults", metavar="SPEC", help=faults_help)
        p.add_argument("--checkpoint", metavar="DIR", help=checkpoint_help)
        p.add_argument("--retries", type=int, metavar="N", help=retries_help)
        p.add_argument(
            "--task-timeout", type=float, metavar="SECONDS",
            dest="task_timeout", help=timeout_help,
        )
        p.add_argument("--strict", action="store_true", help=strict_help)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--fast", action="store_true", help="smaller sweeps/fewer reps")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    run_p.add_argument("--models", metavar="NAMES", help=models_help)
    run_p.add_argument(
        "--ns", type=int, nargs="+", metavar="N",
        help="override the problem-size grid (experiments with an n grid only)",
    )
    run_p.add_argument("--json", metavar="PATH", help="also dump the series/rows as JSON")
    run_p.add_argument("--trace", metavar="PATH", help=trace_help)
    run_p.add_argument("--metrics", metavar="PATH", help=metrics_help)
    run_p.add_argument(
        "--sanitize", nargs="?", const="error", choices=["error", "warn"],
        metavar="MODE", help=sanitize_help,
    )
    add_resilience_args(run_p)

    all_p = sub.add_parser("all", help="run every experiment in order")
    all_p.add_argument("--fast", action="store_true")
    all_p.add_argument("--seed", type=int, default=0)
    all_p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    all_p.add_argument("--models", metavar="NAMES", help=models_help)
    all_p.add_argument("--json", metavar="PATH", help="also dump all results as one JSON file")
    all_p.add_argument("--trace", metavar="PATH", help=trace_help)
    all_p.add_argument("--metrics", metavar="PATH", help=metrics_help)
    all_p.add_argument(
        "--sanitize", nargs="?", const="error", choices=["error", "warn"],
        metavar="MODE", help=sanitize_help,
    )
    add_resilience_args(all_p)

    rep_p = sub.add_parser("report", help="run experiments and write a markdown report")
    rep_p.add_argument("output", help="path of the markdown file to write")
    rep_p.add_argument("--fast", action="store_true")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    rep_p.add_argument("--models", metavar="NAMES", help=models_help)
    rep_p.add_argument(
        "--only", nargs="+", choices=sorted(EXPERIMENTS), help="subset of experiments"
    )
    rep_p.add_argument("--trace", metavar="PATH", help=trace_help)
    rep_p.add_argument("--metrics", metavar="PATH", help=metrics_help)
    add_resilience_args(rep_p)

    serve_p = sub.add_parser(
        "serve", help="run the sweep service (batch front-end over the result store)"
    )
    serve_p.add_argument("--cache", metavar="DIR", required=True, help=cache_help)
    serve_p.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve_p.add_argument(
        "--port", type=int, default=None,
        help="listen port (default 8642; 0 = pick a free port)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1,
        help="default worker processes for requests that do not pin their own",
    )
    serve_p.add_argument(
        "--token", default=None,
        help="shared-secret token required for sweep/drain/shutdown "
        "(default: the QSM_SERVICE_TOKEN environment variable; unset = open)",
    )
    serve_p.add_argument(
        "--max-workers", type=int, default=2, dest="max_workers",
        help="concurrent sweep runner processes (default 2)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=8, dest="queue_limit",
        help="admitted requests allowed to wait for a runner before new "
        "submissions are rejected as overloaded (default 8)",
    )
    serve_p.add_argument(
        "--max-inflight-per-client", type=int, default=4, dest="max_inflight",
        help="concurrent requests one client may have queued or running (default 4)",
    )
    serve_p.add_argument(
        "--points-per-minute", type=float, default=None, dest="points_per_minute",
        help="per-client sweep-point budget per minute (default: unlimited)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request deadline in seconds for requests that do "
        "not carry their own (default: none)",
    )
    serve_p.add_argument(
        "--read-timeout", type=float, default=30.0, dest="read_timeout",
        help="close a connection that sends no request line within this "
        "many seconds (default 30)",
    )
    serve_p.add_argument(
        "--no-journal", action="store_true", dest="no_journal",
        help="disable the durable request journal (no crash-restart replay)",
    )

    sub_p = sub.add_parser("submit", help="submit one sweep to a running service")
    sub_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    sub_p.add_argument("--fast", action="store_true", help="smaller sweeps/fewer reps")
    sub_p.add_argument("--seed", type=int, default=0)
    sub_p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    sub_p.add_argument("--models", metavar="NAMES", help=models_help)
    sub_p.add_argument(
        "--ns", type=int, nargs="+", metavar="N",
        help="override the problem-size grid (experiments with an n grid only)",
    )
    sub_p.add_argument("--host", default=None, help="service address (default 127.0.0.1)")
    sub_p.add_argument("--port", type=int, default=None, help="service port (default 8642)")
    sub_p.add_argument(
        "--json", metavar="PATH",
        help="write the experiment result payload as JSON (byte-stable: "
        "identical submissions write identical files)",
    )
    sub_p.add_argument(
        "--timeout", type=float, default=30.0,
        help="connect timeout in seconds (the sweep itself is unbounded "
        "unless --deadline caps it)",
    )
    sub_p.add_argument(
        "--token", default=None,
        help="shared-secret token (default: QSM_SERVICE_TOKEN env var)",
    )
    sub_p.add_argument(
        "--retries", type=int, default=0,
        help="resubmission budget for transient failures (connection "
        "refused/reset, server overloaded); backs off with jitter and "
        "resumes from cache — idempotent (default 0)",
    )
    sub_p.add_argument(
        "--deadline", type=float, default=None,
        help="cancel the sweep server-side after this many seconds; "
        "completed points stay cached, resubmitting resumes",
    )
    sub_p.add_argument(
        "--faults", metavar="SPEC", help=faults_help + " (armed per-request)",
    )
    sub_p.add_argument(
        "--client", default=None,
        help="quota identity to submit as (default: the peer address)",
    )

    svc_p = sub.add_parser(
        "service", help="operate a running sweep service (probes, drain, shutdown)"
    )
    svc_p.add_argument(
        "action", choices=["ping", "stats", "health", "ready", "drain", "shutdown"]
    )
    svc_p.add_argument("--host", default=None, help="service address (default 127.0.0.1)")
    svc_p.add_argument("--port", type=int, default=None, help="service port (default 8642)")
    svc_p.add_argument(
        "--token", default=None,
        help="shared-secret token (default: QSM_SERVICE_TOKEN env var)",
    )
    svc_p.add_argument(
        "--timeout", type=float, default=5.0, help="connect timeout in seconds"
    )

    cache_p = sub.add_parser("cache", help="inspect or maintain a result store")
    cache_p.add_argument("action", choices=["stats", "verify", "gc"])
    cache_p.add_argument("dir", metavar="DIR", help="store directory")
    cache_p.add_argument(
        "--max-age-days", type=float, default=None, dest="max_age_days",
        help="gc: remove objects older than this many days",
    )
    cache_p.add_argument(
        "--max-bytes", type=int, default=None, dest="max_bytes",
        help="gc: evict oldest objects until the store fits this budget",
    )
    return parser


def _obs_setup(args) -> bool:
    """Enable observability collection if the flags ask for it."""
    want_trace = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", None)
    if not want_trace and not want_metrics:
        return False
    from repro import obs

    # Span capture is only needed for the trace export; a metrics-only
    # run skips it (cheaper, no per-event records).
    obs.enable(spans=bool(want_trace))
    return True


def _obs_export(args) -> None:
    from repro import obs

    if getattr(args, "trace", None):
        n = obs.write_trace(args.trace)
        print(f"[wrote Chrome trace ({n} events) to {args.trace}]")
    if getattr(args, "metrics", None):
        n = obs.write_metrics(args.metrics)
        print(f"[wrote {n} metrics to {args.metrics}]")
    obs.disable()


def _sanitize_setup(args) -> bool:
    """Arm the phase-conflict sanitizer if ``--sanitize`` asked for it.

    Arming sets ``QSM_SANITIZE`` in the environment, so ``--jobs N``
    worker processes come up armed too (the ``QSM_OBS`` idiom).
    """
    mode = getattr(args, "sanitize", None)
    if not mode:
        return False
    from repro import check

    check.arm(mode)
    return True


def _sanitize_teardown() -> None:
    from repro import check

    san = check.active()
    if san is not None and san.diagnostics:
        print(san.summary(), file=sys.stderr)
    check.disarm()


def _sync_path_setup(args) -> bool:
    """Export ``--sync-path`` if the flag asked for one.

    Setting ``QSM_SYNC_PATH`` in the environment makes every
    ``SoftwareConfig()`` built afterwards — in this process or in a
    ``--jobs N`` worker — resolve to the requested path (the ``QSM_OBS``
    idiom).
    """
    path = getattr(args, "sync_path", None)
    if not path:
        return False
    os.environ["QSM_SYNC_PATH"] = path
    return True


def _sync_path_teardown() -> None:
    os.environ.pop("QSM_SYNC_PATH", None)


def _faults_setup(args) -> bool:
    """Arm the fault-injection plan if ``--faults`` asked for it.

    Arming sets ``QSM_FAULTS`` in the environment, so ``--jobs N``
    worker processes come up armed too (the ``QSM_OBS`` idiom).
    """
    spec = getattr(args, "faults", None)
    if not spec:
        return False
    from repro import faults

    try:
        faults.arm(spec)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return True


def _faults_teardown() -> None:
    from repro import faults

    tally = faults.drain_tally()
    if tally:
        rendered = ", ".join(f"{k}={v:g}" for k, v in sorted(tally.items()))
        print(f"[fault injection totals: {rendered}]", file=sys.stderr)
    faults.disarm()


def _resilience_setup(args) -> bool:
    """Install the resilient execution policy if any flag asked for it."""
    ckpt = getattr(args, "checkpoint", None)
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "task_timeout", None)
    if ckpt is None and retries is None and timeout is None:
        return False
    from repro.experiments import executor

    try:
        executor.set_policy(
            executor.ExecutionPolicy(
                task_timeout_seconds=timeout,
                max_retries=2 if retries is None else retries,
                checkpoint_dir=ckpt,
            )
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return True


def _resilience_teardown(strict: bool) -> int:
    """Report failed sweep points; the exit code honours ``--strict``."""
    from repro.experiments import executor
    from repro.util.tables import format_table

    fails = executor.drain_failures()
    executor.clear_policy()
    if not fails:
        return 0
    print(
        f"[{len(fails)} sweep point(s) failed after retries; "
        "results contain gaps]",
        file=sys.stderr,
    )
    rows = [f.to_row() for f in fails]
    print(
        format_table(["worker", "index", "task", "attempts", "error"], rows),
        file=sys.stderr,
    )
    return 1 if strict else 0


def _cache_setup(args) -> bool:
    """Install the content-addressed result store if ``--cache`` asked.

    Also exports ``QSM_CACHE`` so ``--jobs N`` workers under the spawn
    start method come up knowing the store (fork workers never consult
    it — partitioning happens in the parent — but the env var keeps the
    idiom uniform with QSM_OBS/QSM_FAULTS).
    """
    cache_dir = getattr(args, "cache", None)
    if not cache_dir:
        return False
    from repro import store

    store.set_store(cache_dir)
    os.environ[store.ENV_VAR] = cache_dir
    return True


def _cache_teardown() -> None:
    from repro import store

    counts = store.counters()
    print(
        f"[cache: {counts['hits']} hit(s), {counts['misses']} miss(es), "
        f"{counts['coalesced']} coalesced]",
        file=sys.stderr,
    )
    store.clear_store()
    os.environ.pop(store.ENV_VAR, None)


def _service_token(args) -> Optional[str]:
    """``--token`` wins; fall back to ``QSM_SERVICE_TOKEN``."""
    token = getattr(args, "token", None)
    if token:
        return token
    return os.environ.get("QSM_SERVICE_TOKEN") or None


def _cmd_serve(args) -> int:
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, SweepService

    service = SweepService(
        cache_dir=args.cache,
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        jobs=args.jobs,
        token=_service_token(args),
        max_workers=args.max_workers,
        queue_limit=args.queue_limit,
        max_inflight_per_client=args.max_inflight,
        points_per_minute=args.points_per_minute,
        read_timeout=args.read_timeout,
        journal=not args.no_journal,
        default_deadline=args.deadline,
    )
    try:
        service.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _cmd_service(args) -> int:
    """Operate a running service: probes, drain, shutdown."""
    import json

    from repro.service import DEFAULT_HOST, DEFAULT_PORT, ServiceError
    from repro.service import client as service_client

    host = args.host or DEFAULT_HOST
    port = DEFAULT_PORT if args.port is None else args.port
    calls = {
        "ping": lambda: service_client.ping(host, port, timeout=args.timeout),
        "stats": lambda: service_client.stats(host, port, timeout=args.timeout),
        "health": lambda: service_client.health(host, port, timeout=args.timeout),
        "ready": lambda: service_client.ready(host, port, timeout=args.timeout),
        "drain": lambda: service_client.drain(
            host, port, timeout=args.timeout, token=_service_token(args)
        ),
        "shutdown": lambda: service_client.shutdown(
            host, port, timeout=args.timeout, token=_service_token(args)
        ),
    }
    try:
        reply = calls[args.action]()
    except OSError as exc:
        print(f"error: service unreachable at {host}:{port}: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(reply, indent=2, sort_keys=True))
    if args.action == "ready" and not reply.get("ready", False):
        return 1
    return 0


def _cmd_submit(args) -> int:
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, ServiceError, SweepRequest
    from repro.service import client as service_client

    models = _resolve_models_arg(args)
    req = SweepRequest(
        experiment=args.experiment,
        fast=args.fast,
        seed=args.seed,
        jobs=args.jobs,
        ns=args.ns,
        models=models,
        faults=args.faults or None,
        deadline_seconds=args.deadline,
        client=args.client,
    )
    host = args.host or DEFAULT_HOST
    port = DEFAULT_PORT if args.port is None else args.port
    points = {"hit": 0, "computed": 0, "coalesced": 0, "failed": 0}
    result_event = None
    try:
        for event in service_client.submit(
            req,
            host,
            port,
            timeout=args.timeout,
            token=_service_token(args),
            retries=args.retries,
        ):
            kind = event.get("event")
            if kind == "accepted":
                print(f"[accepted {event['request_key'][:16]} @ {host}:{port}]")
            elif kind == "retry":
                # The stream restarts: drop per-point tallies from the
                # aborted attempt (the resubmit replays them from cache).
                points = dict.fromkeys(points, 0)
                print(
                    f"[transient failure ({event.get('reason')}); retrying in "
                    f"{event.get('delay_seconds')}s]",
                    file=sys.stderr,
                )
            elif kind == "point":
                points[event.get("status", "computed")] = (
                    points.get(event.get("status", "computed"), 0) + 1
                )
            elif kind == "result":
                result_event = event
    except OSError as exc:
        print(f"error: service unreachable: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if exc.code in ("timeout", "overloaded") else 2
    if result_event is None:
        print("error: server closed the stream without a result", file=sys.stderr)
        return 2
    cache = result_event.get("cache", {})
    rendered = ", ".join(f"{k}={v}" for k, v in sorted(points.items()) if v)
    print(f"[points: {rendered or 'none streamed'}]")
    print(
        f"[cache: {cache.get('hits', 0)} hit(s), {cache.get('misses', 0)} "
        f"miss(es), {cache.get('coalesced', 0)} coalesced]"
    )
    if result_event.get("faults"):
        rendered = ", ".join(
            f"{k}={v:g}" for k, v in sorted(result_event["faults"].items())
        )
        print(f"[fault injection totals: {rendered}]", file=sys.stderr)
    for diag in result_event.get("diagnostics", []):
        print(diag, file=sys.stderr)
    if result_event.get("failures"):
        print(
            f"[{len(result_event['failures'])} sweep point(s) failed; "
            "results contain gaps]",
            file=sys.stderr,
        )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result_event["payload"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[wrote JSON to {args.json}]")
    return 0


def _cmd_cache(args) -> int:
    import json

    from repro.store import ResultStore

    from repro import store as store_state

    store = ResultStore(args.dir)
    if args.action == "stats":
        blob = store.stats().to_dict()
        # Session store counters ride along so scripted pipelines see
        # runtime quarantine events, not just the on-disk .corrupt count.
        blob["counters"] = store_state.counters()
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    if args.action == "verify":
        before = store_state.counters()["quarantined"]
        ok, bad = store.verify()
        quarantined = store_state.counters()["quarantined"] - before
        print(f"[verified {ok} object(s); quarantined {quarantined}]")
        return 1 if bad else 0
    max_age = None if args.max_age_days is None else args.max_age_days * 86400.0
    removed = store.gc(max_age_seconds=max_age, max_bytes=args.max_bytes)
    print(f"[gc removed {removed} file(s)]")
    print(json.dumps(store.stats().to_dict(), indent=2, sort_keys=True))
    return 0


def _resolve_topology_arg(args):
    """Parse ``--topology`` before any work runs (exit 2 on a bad spec,
    listing the available topology kinds and parameter keys)."""
    spec = getattr(args, "topology", None)
    if not spec:
        return None
    from repro.machine.config import parse_topology

    try:
        return parse_topology(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _resolve_models_arg(args) -> Optional[List[str]]:
    """Validate ``--models`` against the registry before any work runs."""
    spec = getattr(args, "models", None)
    if not spec:
        return None
    from repro.predict import resolve_models

    try:
        return resolve_models(spec)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for exp_id in sorted(EXPERIMENTS):
            print(exp_id)
        return 0

    if args.command == "models":
        from repro.predict import available_models, get_model

        for name in available_models():
            model = get_model(name)
            doc = getattr(model, "doc", "")
            print(f"{name:14s} {doc}" if doc else name)
        return 0

    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "service":
        return _cmd_service(args)
    if args.command == "cache":
        return _cmd_cache(args)

    models = _resolve_models_arg(args)
    topology = _resolve_topology_arg(args)
    observing = _obs_setup(args)
    sanitizing = _sanitize_setup(args)
    faulting = _faults_setup(args)
    syncing = _sync_path_setup(args)
    caching = _cache_setup(args)
    resilient = _resilience_setup(args)
    strict = bool(getattr(args, "strict", False))

    if args.command == "report":
        from repro.experiments.report import generate_report

        generate_report(
            args.output,
            experiment_ids=args.only,
            fast=args.fast,
            seed=args.seed,
            jobs=args.jobs,
            models=models,
            topology=topology,
        )
        print(f"[wrote markdown report to {args.output}]")
        if observing:
            _obs_export(args)
        if faulting:
            _faults_teardown()
        if syncing:
            _sync_path_teardown()
        if caching:
            _cache_teardown()
        rc = _resilience_teardown(strict) if resilient else 0
        return rc

    ids = sorted(EXPERIMENTS) if args.command == "all" else [args.experiment]
    results = []
    elapsed_by_id = {}
    for exp_id in ids:
        t0 = time.time()
        result = run_experiment(
            exp_id,
            fast=args.fast,
            seed=args.seed,
            jobs=args.jobs,
            models=models,
            ns=getattr(args, "ns", None),
            topology=topology,
        )
        elapsed = time.time() - t0
        elapsed_by_id[exp_id] = elapsed
        results.append(result)
        print(result.render())
        print(f"[{exp_id} completed in {elapsed:.1f}s]\n")

    if getattr(args, "json", None):
        import json

        payload = []
        for r in results:
            d = r.to_json_dict()
            d["elapsed_seconds"] = round(elapsed_by_id[r.exp_id], 3)
            payload.append(d)
        with open(args.json, "w") as fh:
            json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
        print(f"[wrote JSON to {args.json}]")
    if observing:
        _obs_export(args)
    if sanitizing:
        _sanitize_teardown()
    if faulting:
        _faults_teardown()
    if syncing:
        _sync_path_teardown()
    if caching:
        _cache_teardown()
    return _resilience_teardown(strict) if resilient else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
