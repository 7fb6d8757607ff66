"""Tests for the DES trace recorder."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.trace import TraceRecorder, describe_event


def test_records_processed_events():
    sim = Simulator()
    trace = TraceRecorder(sim)

    def proc():
        yield sim.timeout(5)
        yield sim.timeout(7)

    sim.process(proc())
    sim.run()
    assert len(trace) >= 3  # process start + two timeouts
    kinds = {e.kind for e in trace.entries}
    assert "timeout" in kinds


def test_times_are_monotone():
    sim = Simulator()
    trace = TraceRecorder(sim)
    for d in [9, 3, 6]:
        sim.timeout(d)
    sim.run()
    times = [e.time for e in trace.entries]
    assert times == sorted(times)


def test_ring_buffer_limit_and_dropped_count():
    sim = Simulator()
    trace = TraceRecorder(sim, limit=5)
    for d in range(10):
        sim.timeout(d)
    sim.run()
    assert len(trace) == 5
    assert trace.dropped == 5
    assert trace.entries[0].time == 5.0  # oldest kept


def test_limit_validation():
    with pytest.raises(ValueError):
        TraceRecorder(Simulator(), limit=0)


def test_filter_and_kind_helpers():
    sim = Simulator()
    trace = TraceRecorder(sim)
    res = Resource(sim, name="mybus")

    def proc():
        yield from res.serve(4)

    sim.process(proc())
    sim.run()
    grants = trace.of_kind("grant")
    assert grants and grants[0].detail == "mybus"
    assert trace.filter(lambda e: "mybus" in e.detail) == grants


def test_between_window():
    sim = Simulator()
    trace = TraceRecorder(sim)
    for d in [1, 5, 9]:
        sim.timeout(d)
    sim.run()
    window = trace.between(2, 9)
    assert [e.time for e in window] == [5.0]


def test_render_and_tail():
    sim = Simulator()
    trace = TraceRecorder(sim)
    for d in range(4):
        sim.timeout(d)
    sim.run()
    full = trace.render()
    assert full.startswith("trace: ")
    tail = trace.render(last=2)
    assert tail.count("\n") == 2


def test_close_detaches():
    sim = Simulator()
    trace = TraceRecorder(sim)
    sim.timeout(1)
    sim.run()
    n = len(trace)
    trace.close()
    sim.timeout(2)
    sim.run()
    assert len(trace) == n
    trace.close()  # idempotent


def test_describe_named_process():
    sim = Simulator()

    def my_worker():
        yield sim.timeout(1)

    proc = sim.process(my_worker())
    kind, detail = describe_event(proc)
    assert kind == "process"
    assert "my_worker" in detail


def test_tracing_a_full_qsm_sync():
    """Smoke: the trace captures a sync's structure without breaking it.

    A kernel step hook keeps every phase on the per-message oracle,
    whose grant/timeout micro-events this test wants to see.
    """
    from repro.machine.config import MachineConfig
    from repro.qsmlib import QSMMachine, RunConfig
    from repro.qsmlib.config import SoftwareConfig

    qm = QSMMachine(
        RunConfig(machine=MachineConfig(p=4), software=SoftwareConfig(sync_path="slow"))
    )
    trace = TraceRecorder(qm.machine.sim)
    A = qm.allocate("a", 16)

    def program(ctx, A):
        ctx.put(A, [(ctx.pid * 4 + 5) % 16], [1])
        yield ctx.sync()

    qm.run(program, A=A)
    assert len(trace) > 50
    assert trace.of_kind("grant")  # NIC grants visible


def test_two_recorders_coexist():
    sim = Simulator()
    a = TraceRecorder(sim)
    b = TraceRecorder(sim)
    sim.timeout(1)
    sim.run()
    assert len(a) == len(b) == 1


def test_close_out_of_order_keeps_other_recording():
    """The historical bug: closing the *older* recorder first silently
    left hooks chained wrong.  With the event sink, any close order
    works and the last close uninstalls the hook entirely."""
    sim = Simulator()
    first = TraceRecorder(sim)
    second = TraceRecorder(sim)
    first.close()  # not the most recent subscriber
    sim.timeout(1)
    sim.run()
    assert len(first) == 0
    assert len(second) == 1
    second.close()
    assert sim._step_hook is None  # fully detached


def test_close_under_foreign_chained_hook():
    """A hook chained on top of the sink must survive recorder close."""
    sim = Simulator()
    trace = TraceRecorder(sim)

    seen = []
    prev = sim._step_hook  # the sink's dispatch

    def foreign(when, event):
        seen.append(when)
        if prev is not None:
            prev(when, event)

    foreign._prev_hook = prev  # chain convention (see repro.obs.sink)
    sim._step_hook = foreign

    sim.timeout(1)
    sim.run()
    assert len(trace) == 1 and len(seen) == 1

    trace.close()  # sink must splice itself out from *under* foreign
    sim.timeout(2)
    sim.run()
    assert len(trace) == 1  # detached
    assert len(seen) == 2  # foreign hook still live
    assert foreign._prev_hook is None  # spliced, not orphaned


def test_dropped_count_exact_at_ring_limit():
    sim = Simulator()
    trace = TraceRecorder(sim, limit=3)
    for d in range(8):
        sim.timeout(d)
    sim.run()
    assert len(trace) == 3
    assert trace.dropped == 5
    assert [e.time for e in trace.entries] == [5.0, 6.0, 7.0]
    assert "5 dropped" in trace.render()


def test_between_boundaries_inclusive_exclusive():
    sim = Simulator()
    trace = TraceRecorder(sim)
    for d in [2, 4, 6]:
        sim.timeout(d)
    sim.run()
    assert [e.time for e in trace.between(2, 6)] == [2.0, 4.0]  # [t0, t1)
    assert trace.between(6, 6) == []
    assert [e.time for e in trace.between(0, 100)] == [2.0, 4.0, 6.0]
