"""End-to-end observability: model instrumentation, CLI, --jobs merging.

The load-bearing property is *reconciliation*: the exported spans must
decompose the phase timings the experiments report — per processor, the
``qsm.compute``/``entry``/``plan``/``data``/``reply``/``barrier``
segments contiguously partition the ``qsm.phase`` span, whose bounds
match the :class:`~repro.qsmlib.stats.PhaseRecord` — on the epoch kernel
and on the per-message oracle alike, which record identical spans.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.machine.config import ClusterTopology, MachineConfig
from repro.qsmlib import QSMMachine, RunConfig
from repro.qsmlib.config import SoftwareConfig

SEGMENTS = {"qsm.compute", "qsm.entry", "qsm.plan", "qsm.data", "qsm.reply", "qsm.barrier"}


def exchange_program(ctx, A):
    """Two phases touching put, get and local traffic."""
    n = len(A)
    ctx.charge_cycles(50 * (ctx.pid + 1))  # uneven compute skew
    ctx.put(A, [(ctx.pid * 4 + 1) % n], [ctx.pid])
    yield ctx.sync()
    got = ctx.get(A, [(ctx.pid * 4 + 2) % n])
    yield ctx.sync()
    return int(got.data[0])


def run_with_obs(path, p=4, seed=3):
    """Run the exchange program with obs on; returns (result, capture,
    phases run per sync path)."""
    cfg = RunConfig(
        machine=MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=seed,
    )
    qm = QSMMachine(cfg)
    A = qm.allocate("a", 4 * p)
    result = qm.run(exchange_program, A=A)
    return result, obs.runs()[-1], qm._engine.path_counts


@pytest.mark.parametrize("path", ["epoch", "slow"])
def test_phase_spans_reconcile_with_phase_records(obs_state, path):
    result, run, _ = run_with_obs(path)
    p = result.p
    phase_spans = [s for s in run.spans if s.name == "qsm.phase"]
    assert len(phase_spans) == len(result.phases) * p

    for record in result.phases:
        spans = [s for s in phase_spans if s.attrs["phase"] == record.index]
        assert len(spans) == p
        assert {s.track for s in spans} == set(range(p))
        # every node's phase span opens at the recorded phase start...
        assert all(s.t0 == record.start for s in spans)
        # ...and the last node to finish defines the recorded end
        assert max(s.t1 for s in spans) == record.end

        for s in spans:
            segs = sorted(
                (
                    c
                    for c in run.spans
                    if c.name in SEGMENTS and c.track == s.track and s.t0 <= c.t0 and c.t1 <= s.t1
                ),
                key=lambda c: c.t0,
            )
            # contiguous partition of [phase start, node done]
            assert segs[0].t0 == s.t0
            assert segs[-1].t1 == s.t1
            for prev, nxt in zip(segs, segs[1:]):
                assert prev.t1 == nxt.t0


def test_epoch_and_oracle_traces_agree_on_phase_bounds(obs_state):
    def phase_bounds(path):
        _, run, _ = run_with_obs(path)
        return sorted(
            (s.attrs["phase"], s.track, s.t0, s.t1) for s in run.spans if s.name == "qsm.phase"
        )

    assert phase_bounds("epoch") == phase_bounds("slow")


def test_obs_on_runs_stay_on_epoch(obs_state):
    result, _, path_counts = run_with_obs("epoch")
    assert path_counts == {"slow": 0, "epoch": len(result.phases)}


_ALGORITHMS = {
    "prefix": lambda cfg: run_prefix_sums(
        np.random.default_rng(7).integers(0, 1000, size=3000), config=cfg
    ),
    "samplesort": lambda cfg: run_sample_sort(
        np.random.default_rng(42).integers(0, 1 << 30, size=2000), config=cfg
    ),
    "listrank": lambda cfg: run_list_ranking(make_random_list(1500, seed=3), config=cfg),
}


def _qsm_record(algorithm, machine, path):
    """The qsm.* spans (without wall clocks) and metrics of one run."""
    obs.enable()
    try:
        _ALGORITHMS[algorithm](
            RunConfig(machine=machine, software=SoftwareConfig(sync_path=path), seed=5)
        )
        spans = sorted(
            (s.name, s.track, s.t0, s.t1, s.depth, sorted((s.attrs or {}).items()))
            for s in obs.runs()[-1].spans
            if s.name.startswith("qsm.")
        )
        metrics = {
            name: metric.snapshot()
            for name, metric in obs.metrics().items()
            if name.startswith("qsm.")
        }
    finally:
        obs.disable()
    return spans, metrics


@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
@pytest.mark.parametrize(
    "machine",
    [MachineConfig(p=p) for p in (1, 2, 3, 4, 8, 16)]
    + [MachineConfig(p=8, topology=ClusterTopology())],
    ids=["p1", "p2", "p3", "p4", "p8", "p16", "cluster-p8"],
)
def test_epoch_and_oracle_record_identical_spans_and_metrics(algorithm, machine):
    epoch_spans, epoch_metrics = _qsm_record(algorithm, machine, "epoch")
    slow_spans, slow_metrics = _qsm_record(algorithm, machine, "slow")
    assert epoch_spans and epoch_spans == slow_spans
    assert epoch_metrics == slow_metrics


def test_qsm_metrics_traffic_accounting(obs_state):
    result, _, _ = run_with_obs("epoch")
    m = obs.metrics()
    assert m.counter("qsm.syncs").value == len(result.phases)
    put_words = sum(int(r.put_words.sum()) for r in result.phases)
    get_words = sum(int(r.get_words.sum()) for r in result.phases)
    assert m.counter("qsm.phase.put.m_rw").value == put_words
    assert m.counter("qsm.phase.get.m_rw").value == get_words
    assert m.histogram("qsm.phase.total_cycles").stat.count == len(result.phases)
    assert m.counter("sim.events_processed").value > 0


def test_run_label_names_sync_path(obs_state):
    run_with_obs("epoch")
    run_with_obs("slow")
    labels = [r.label for r in obs.runs()]
    assert any("sync=epoch" in lbl for lbl in labels)
    assert any("sync=slow" in lbl for lbl in labels)


def test_network_instants_recorded(obs_state):
    # per-message instants are the oracle's: epoch never steps messages
    _, run, _ = run_with_obs("slow")
    names = {s.name for s in run.instants}
    assert "net.deliver" in names
    delivered = sum(1 for s in run.instants if s.name == "net.deliver")
    assert delivered > 0
    assert obs.metrics().counter("net.messages_sent").value > 0
    assert obs.metrics().counter("net.bytes_injected").value > 0


def test_microbench_spans_and_metrics(obs_state):
    from repro.membank.machines import smp_native

    config = smp_native(p=2)
    result = run_microbench_small(config)
    run = obs.runs()[-1]
    accesses = [s for s in run.spans if s.name == "membank.access"]
    assert len(accesses) == config.p * 40
    m = obs.metrics()
    assert m.counter("membank.accesses").value == config.p * 40
    hist = m.histogram("membank.access_cycles")
    assert hist.stat.count > 0
    # folded per-proc tallies agree with the reported mean
    assert hist.stat.mean == pytest.approx(result.mean_access_cycles)
    assert m.gauge("membank.bank_utilization").maximum <= 1.0


def run_microbench_small(config):
    from repro.membank.microbench import run_microbenchmark
    from repro.membank.patterns import RANDOM

    return run_microbenchmark(config, RANDOM, accesses_per_proc=40, seed=1)


# ----------------------------------------------------------------------
# --jobs invariance
# ----------------------------------------------------------------------
def _sweep_point(seed):
    """Module-level (picklable) worker: one tiny QSM run."""
    cfg = RunConfig(machine=MachineConfig(p=2), seed=seed)
    qm = QSMMachine(cfg)
    A = qm.allocate("a", 8)
    result = qm.run(exchange_program, A=A)
    return result.phases[-1].end


def _capture(jobs):
    from repro.experiments.executor import parallel_map
    from repro.obs.export import chrome_trace_events

    obs.enable()
    try:
        values = parallel_map(_sweep_point, [11, 12, 13, 14], jobs=jobs)
        for observer in obs.state().observers:
            observer.finalize()
        events = chrome_trace_events(obs.runs())
        metrics = {name: m.snapshot() for name, m in obs.metrics().items()}
    finally:
        obs.disable()
    return values, events, metrics


def test_parallel_map_obs_invariant_to_jobs():
    seq_values, seq_events, seq_metrics = _capture(jobs=1)
    par_values, par_events, par_metrics = _capture(jobs=2)
    assert par_values == seq_values
    # traces are identical (wall clock is deliberately not exported)
    assert par_events == seq_events
    assert set(par_metrics) == set(seq_metrics)
    for name in seq_metrics:
        for key, val in seq_metrics[name].items():
            if isinstance(val, float):
                assert par_metrics[name][key] == pytest.approx(val, rel=1e-12), name
            else:
                assert par_metrics[name][key] == val, name


def test_parallel_map_without_obs_unchanged():
    from repro.experiments.executor import parallel_map

    assert not obs.enabled()
    values = parallel_map(_sweep_point, [11, 12], jobs=2)
    assert values == [_sweep_point(11), _sweep_point(12)]
    assert obs.runs() == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_trace_and_metrics_export(tmp_path, capsys):
    from repro.experiments.cli import main
    from repro.obs.export import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.jsonl"
    rc = main(
        [
            "run",
            "fig1",
            "--fast",
            "--trace",
            str(trace_path),
            "--metrics",
            str(metrics_path),
        ]
    )
    assert rc == 0
    assert not obs.enabled()  # CLI disables collection after export

    n = validate_chrome_trace(trace_path.read_text())
    assert n > 0
    lines = [json.loads(x) for x in metrics_path.read_text().splitlines()]
    assert lines[0]["kind"] == "meta" and lines[0]["runs"] > 0
    names = {r["name"] for r in lines[1:]}
    assert "sim.events_processed" in names

    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    assert "wrote" in out and str(metrics_path) in out


def test_cli_metrics_only_skips_spans(tmp_path):
    from repro.experiments.cli import main

    metrics_path = tmp_path / "metrics.jsonl"
    rc = main(["run", "fig1", "--fast", "--metrics", str(metrics_path)])
    assert rc == 0
    lines = [json.loads(x) for x in metrics_path.read_text().splitlines()]
    by_name = {r.get("name"): r for r in lines[1:]}
    # metrics flow even though no spans were captured
    assert by_name["sim.events_processed"]["value"] > 0
    assert "obs.spans_recorded" not in by_name or by_name["obs.spans_recorded"]["value"] == 0
