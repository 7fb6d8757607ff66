"""Tests for the SPMD driver: phases, allocs, errors, measurements."""

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultError
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.qsmlib import (
    Layout,
    QSMMachine,
    QSMSemanticsError,
    RunConfig,
    SPMDError,
)


def cfg(p=4, **kw):
    return RunConfig(machine=MachineConfig(p=p), seed=1, **kw)


def test_single_phase_put_visible_after_sync():
    qm = QSMMachine(cfg())
    A = qm.allocate("a", 40)

    def program(ctx, A):
        ctx.put(A, [(ctx.pid * 10 + 11) % 40], [ctx.pid + 1])
        yield ctx.sync()

    qm.run(program, A=A)
    assert A.data[11] == 1


def test_get_returns_snapshot_next_phase():
    qm = QSMMachine(cfg())
    A = qm.allocate("a", 40)
    A.data[:] = np.arange(40)

    def program(ctx, A):
        h = ctx.get(A, [39 - ctx.pid])
        yield ctx.sync()
        return int(h.data[0])

    res = qm.run(program, A=A)
    assert res.returns == [39, 38, 37, 36]


def test_returns_collected_per_processor():
    qm = QSMMachine(cfg())

    def program(ctx):
        yield ctx.sync()
        return ctx.pid * 2

    res = qm.run(program)
    assert res.returns == [0, 2, 4, 6]


def test_non_generator_program_rejected():
    qm = QSMMachine(cfg())
    with pytest.raises(TypeError, match="generator"):
        qm.run(lambda ctx: 42)


def test_yield_wrong_thing_rejected():
    qm = QSMMachine(cfg())

    def program(ctx):
        yield "not a sync token"

    with pytest.raises(TypeError, match="ctx.sync"):
        qm.run(program)


def test_non_spmd_early_finish_detected():
    qm = QSMMachine(cfg())

    def program(ctx):
        if ctx.pid == 0:
            return  # finishes immediately
        yield ctx.sync()

    with pytest.raises(SPMDError, match="not SPMD"):
        qm.run(program)


def test_pending_requests_at_finish_rejected():
    qm = QSMMachine(cfg())
    A = qm.allocate("a", 40)

    def program(ctx, A):
        yield ctx.sync()
        ctx.put(A, [0], [1])  # never synced

    with pytest.raises(SPMDError, match="pending"):
        qm.run(program, A=A)


def test_machine_runs_once():
    qm = QSMMachine(cfg())

    def program(ctx):
        yield ctx.sync()

    qm.run(program)
    with pytest.raises(RuntimeError, match="exactly one"):
        qm.run(program)


def test_collective_alloc_and_use():
    qm = QSMMachine(cfg())

    def program(ctx):
        tmp = ctx.alloc("tmp", 16)
        yield ctx.sync()
        ctx.local(tmp.array)[:] = ctx.pid
        yield ctx.sync()
        return int(ctx.local(tmp.array)[0])

    res = qm.run(program)
    assert res.returns == [0, 1, 2, 3]


def test_alloc_before_registration_unusable():
    qm = QSMMachine(cfg())

    def program(ctx):
        tmp = ctx.alloc("tmp", 16)
        with pytest.raises(RuntimeError, match="not registered"):
            tmp.array
        yield ctx.sync()
        assert tmp.n == 16
        yield ctx.sync()

    qm.run(program)


def test_alloc_spec_disagreement_rejected():
    qm = QSMMachine(cfg())

    def program(ctx):
        ctx.alloc("tmp", 16 if ctx.pid == 0 else 32)
        yield ctx.sync()

    with pytest.raises(SPMDError, match="disagree"):
        qm.run(program)


def test_alloc_missing_participant_rejected():
    qm = QSMMachine(cfg())

    def program(ctx):
        if ctx.pid == 0:
            ctx.alloc("tmp", 16)
        yield ctx.sync()

    with pytest.raises(SPMDError, match="participate"):
        qm.run(program)


def test_collective_free_unregisters():
    qm = QSMMachine(cfg())

    def program(ctx):
        tmp = ctx.alloc("tmp", 16)
        yield ctx.sync()
        ctx.free(tmp)
        yield ctx.sync()

    qm.run(program)
    assert len(qm.space) == 0


def test_free_disagreement_rejected():
    qm = QSMMachine(cfg())
    A = qm.allocate("a", 16)

    def program(ctx, A):
        if ctx.pid == 1:
            ctx.free(A)
        yield ctx.sync()

    with pytest.raises(SPMDError, match="different set"):
        qm.run(program, A=A)


def test_semantics_violation_surfaces():
    qm = QSMMachine(cfg(check_semantics=True))
    A = qm.allocate("a", 40)

    def program(ctx, A):
        if ctx.pid == 0:
            ctx.put(A, [20], [1])
        else:
            ctx.get(A, [20])
        yield ctx.sync()

    with pytest.raises(QSMSemanticsError):
        qm.run(program, A=A)


def test_semantics_check_can_be_disabled():
    qm = QSMMachine(cfg(check_semantics=False))
    A = qm.allocate("a", 40)

    def program(ctx, A):
        if ctx.pid == 0:
            ctx.put(A, [20], [1])
        else:
            ctx.get(A, [20])
        yield ctx.sync()

    qm.run(program, A=A)  # does not raise


def test_kappa_tracked_when_enabled():
    qm = QSMMachine(cfg(track_kappa=True))
    A = qm.allocate("a", 40)

    def program(ctx, A):
        ctx.get(A, [20])
        yield ctx.sync()

    res = qm.run(program, A=A)
    assert res.phases[0].kappa == 4


def test_kappa_none_when_disabled():
    qm = QSMMachine(cfg(track_kappa=False))

    def program(ctx):
        yield ctx.sync()

    res = qm.run(program)
    assert res.phases[0].kappa is None


def test_phase_timing_monotone():
    qm = QSMMachine(cfg())
    A = qm.allocate("a", 40)

    def program(ctx, A):
        ctx.charge_cycles(1000)
        ctx.put(A, [(ctx.pid * 10 + 11) % 40], [1])
        yield ctx.sync()
        ctx.charge_cycles(500)
        yield ctx.sync()

    res = qm.run(program, A=A)
    assert res.n_phases == 2
    ph0, ph1 = res.phases
    assert ph0.start == 0
    assert ph0.ready >= 1000
    assert ph0.end > ph0.ready
    assert ph1.start == ph0.end
    assert res.total_cycles >= ph1.end


def test_compute_skew_excluded_from_comm_time():
    qm = QSMMachine(cfg())

    def program(ctx):
        ctx.charge_cycles(10000 * (ctx.pid + 1))  # heavy skew
        yield ctx.sync()

    res = qm.run(program)
    ph = res.phases[0]
    assert ph.ready == pytest.approx(40000)
    assert ph.comm_cycles < 20000  # barrier etc., not the skew


def test_trailing_compute_counted():
    qm = QSMMachine(cfg())

    def program(ctx):
        yield ctx.sync()
        ctx.charge_cycles(7777)

    res = qm.run(program)
    assert res.trailing_compute_cycles == 7777
    assert res.total_cycles == res.phases[0].end + 7777


def test_observations_recorded():
    qm = QSMMachine(cfg())

    def program(ctx):
        ctx.observe("skew", ctx.pid * 1.5)
        yield ctx.sync()

    res = qm.run(program)
    assert res.observe_values("skew") == [0.0, 1.5, 3.0, 4.5]
    assert res.observe_max_by_phase("skew") == {0: 4.5}


def test_determinism_same_seed():
    def program(ctx):
        ctx.charge_cycles(float(ctx.rng.integers(100, 200)))
        yield ctx.sync()

    r1 = QSMMachine(cfg()).run(program)
    r2 = QSMMachine(cfg()).run(program)
    assert r1.total_cycles == r2.total_cycles
    assert r1.comm_cycles == r2.comm_cycles


def test_different_seeds_differ():
    def program(ctx):
        ctx.charge_cycles(float(ctx.rng.integers(100, 20000)))
        yield ctx.sync()

    r1 = QSMMachine(RunConfig(machine=MachineConfig(p=4), seed=1)).run(program)
    r2 = QSMMachine(RunConfig(machine=MachineConfig(p=4), seed=2)).run(program)
    assert r1.total_cycles != r2.total_cycles


def test_p1_machine_runs_without_network():
    qm = QSMMachine(cfg(p=1))
    A = qm.allocate("a", 8)

    def program(ctx, A):
        ctx.put(A, [3], [9])
        yield ctx.sync()
        return int(A.data[3])

    res = qm.run(program, A=A)
    assert res.returns == [9]


def test_negative_charge_rejected():
    qm = QSMMachine(cfg())

    def program(ctx):
        ctx.charge_cycles(-5)
        yield ctx.sync()

    with pytest.raises(ValueError):
        qm.run(program)


# ----------------------------------------------------------------------
# Errors: the recorded half runs to its end before any phase is priced
# ----------------------------------------------------------------------
def test_program_error_prices_no_phase():
    """A program that raises at phase k leaves the simulator untouched:
    no event processed, no ``qsm.*`` span emitted."""
    obs.enable()
    try:
        qm = QSMMachine(cfg())
        A = qm.allocate("a", 40)

        def program(ctx, A):
            for k in range(3):
                ctx.charge_cycles(100.0)
                ctx.put(A, [(ctx.pid * 10 + 11 + k) % 40], [k])
                yield ctx.sync()
            raise RuntimeError("the program failed at phase 3")

        with pytest.raises(RuntimeError, match="phase 3"):
            qm.run(program, A=A)
        assert len(qm.traffic) == 3
        assert qm.machine.sim.event_count == 0
        assert [s for run in obs.runs() for s in run.spans if s.name.startswith("qsm.")] == []
    finally:
        obs.disable()


def test_retransmit_exhaustion_raises_after_the_program_ran():
    """An error of the priced half still raises: the program has run to
    its end by then, so its last phase's puts are in place."""
    config = RunConfig(
        machine=MachineConfig(p=2).with_faults(
            FaultPlan(seed=1, drop_prob=0.999, max_retransmits=2)
        ),
        seed=1,
    )
    qm = QSMMachine(config)
    out = qm.allocate("out", 2)

    def program(ctx, out):
        for k in range(1, 3):
            ctx.put(out, [(ctx.pid + 1) % ctx.p], [10 * k + ctx.pid])
            yield ctx.sync()

    with pytest.raises(FaultError, match="retransmit"):
        qm.run(program, out=out)
    assert out.data.tolist() == [21, 20]
