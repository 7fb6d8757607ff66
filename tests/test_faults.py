"""Tests for repro.faults: plans, determinism, and machine integration.

The contracts under test (see docs/ROBUSTNESS.md):

* a fault plan is a pure function of its fields — specs round-trip,
  bad fields fail at construction with the field named;
* ``plan=None`` and a noop plan are **bit-identical** to the
  unperturbed machine;
* the same (plan, run seed) always reproduces the same fault schedule;
  different seeds differ;
* injected network faults slow measured communication, charge real
  retransmit traffic, and disable the epoch kernel;
* straggler and membank axes perturb their own layers, deterministically;
* retransmit exhaustion surfaces as FaultError, not a hang.
"""

import numpy as np
import pytest

from repro import faults
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.faults.state import FaultError, FaultState
from repro.machine.config import MachineConfig
from repro.membank.machines import MEMBANK_MACHINES
from repro.membank.microbench import run_microbenchmark
from repro.membank.patterns import RANDOM
from repro.qsmlib import QSMMachine, RunConfig


def _exchange(ctx, out):
    """One all-to-one-neighbour exchange phase plus a readback phase."""
    peer = (ctx.pid + 1) % ctx.p
    ctx.put(out, [peer], [ctx.pid * 10])
    yield ctx.sync()
    handle = ctx.get(out, [ctx.pid])
    yield ctx.sync()
    return int(handle.data[0])


def _run(machine_config, seed=3):
    qm = QSMMachine(RunConfig(machine=machine_config, seed=seed))
    out = qm.allocate("out", machine_config.p)
    result = qm.run(_exchange, out=out)
    return result


DROPPY = FaultPlan(seed=5, drop_prob=0.2, delay_jitter_cycles=300.0)


# ----------------------------------------------------------------------
# Plan / spec
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=9,
            drop_prob=0.125,
            delay_jitter_cycles=250.0,
            straggler_count=2,
            straggler_slowdown=3.0,
            bank_stall_prob=0.01,
        )
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_default_plan_is_noop(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert not plan.perturbs_network
        assert not plan.perturbs_compute
        assert not plan.perturbs_membank

    def test_named_field_errors(self):
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=float("nan"))
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultPlan(straggler_count=1, straggler_slowdown=0.5)
        with pytest.raises(ValueError, match="retransmit_timeout_cycles"):
            FaultPlan(retransmit_timeout_cycles=0.0)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_fault_spec("dorp=0.5")

    def test_machine_config_with_faults(self):
        config = MachineConfig(p=4).with_faults(DROPPY)
        assert config.faults == DROPPY
        assert config.with_faults(None).faults is None


# ----------------------------------------------------------------------
# No-fault path stays bit-identical
# ----------------------------------------------------------------------
class TestNoopPath:
    def test_none_plan_machine_has_no_fault_state(self):
        qm = QSMMachine(RunConfig(machine=MachineConfig(p=4), seed=1))
        assert qm.machine.faults is None

    def test_noop_plan_bit_identical_to_no_plan(self):
        base = _run(MachineConfig(p=4))
        noop = _run(MachineConfig(p=4).with_faults(FaultPlan(seed=123)))
        assert base.comm_cycles == noop.comm_cycles
        assert base.total_cycles == noop.total_cycles
        assert base.returns == noop.returns

    def test_disarmed_global_state_for_returns_none(self):
        faults.disarm()
        assert faults.state_for(None, p=4, salt=0) is None


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_plan_same_seed_identical(self):
        config = MachineConfig(p=4).with_faults(DROPPY)
        a = _run(config, seed=7)
        b = _run(config, seed=7)
        assert a.comm_cycles == b.comm_cycles
        assert a.total_cycles == b.total_cycles

    def test_different_run_seed_different_schedule(self):
        config = MachineConfig(p=4).with_faults(DROPPY)
        a = _run(config, seed=7)
        b = _run(config, seed=8)
        assert a.comm_cycles != b.comm_cycles

    def test_bank_stall_mask_is_per_pid_and_stable(self):
        plan = FaultPlan(seed=2, bank_stall_prob=0.1)
        s1 = FaultState(plan, p=4, salt=9)
        s2 = FaultState(plan, p=4, salt=9)
        for pid in range(4):
            assert (s1.bank_stall_mask(pid, 500) == s2.bank_stall_mask(pid, 500)).all()
        assert (s1.bank_stall_mask(0, 500) != s1.bank_stall_mask(1, 500)).any()

    def test_straggler_selection_deterministic(self):
        plan = FaultPlan(seed=3, straggler_count=2, straggler_slowdown=4.0)
        picks = {tuple(sorted(FaultState(plan, p=8, salt=1).slowdowns)) for _ in range(5)}
        assert len(picks) == 1


# ----------------------------------------------------------------------
# Network axis
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_drops_slow_the_run_and_charge_traffic(self):
        faults.reset_tally()
        base = _run(MachineConfig(p=4))
        config = MachineConfig(p=4).with_faults(DROPPY)
        qm = QSMMachine(RunConfig(machine=config, seed=3))
        out = qm.allocate("out", 4)
        perturbed = qm.run(_exchange, out=out)
        tally = faults.drain_tally()

        assert perturbed.comm_cycles > base.comm_cycles
        # program semantics survive the retransmits
        assert perturbed.returns == base.returns
        assert tally["fault.drops"] > 0
        assert tally["fault.retransmits"] == tally["fault.drops"]
        assert tally["fault.retransmit_bytes"] > 0

    def test_network_faults_disable_epoch_path(self):
        perturbed = QSMMachine(
            RunConfig(machine=MachineConfig(p=4).with_faults(DROPPY), seed=1)
        )
        assert not perturbed.machine.network.ideal_delivery
        compute_only = QSMMachine(
            RunConfig(
                machine=MachineConfig(p=4).with_faults(
                    FaultPlan(straggler_count=1, straggler_slowdown=2.0)
                ),
                seed=1,
            )
        )
        assert compute_only.machine.network.ideal_delivery

    def test_retransmit_exhaustion_raises_fault_error(self):
        config = MachineConfig(p=2).with_faults(
            FaultPlan(seed=1, drop_prob=0.999, max_retransmits=2)
        )
        with pytest.raises(FaultError, match="retransmit"):
            _run(config)


# ----------------------------------------------------------------------
# Compute axis
# ----------------------------------------------------------------------
class TestStragglers:
    def test_straggler_inflates_total_cycles(self):
        def burn(ctx, out):
            ctx.charge_cycles(50_000)
            ctx.put(out, [ctx.pid], [1])
            yield ctx.sync()

        base_cfg = MachineConfig(p=4)
        slow_cfg = base_cfg.with_faults(
            FaultPlan(seed=1, straggler_pids=(0,), straggler_slowdown=5.0)
        )

        def run_burn(cfg):
            qm = QSMMachine(RunConfig(machine=cfg, seed=2))
            out = qm.allocate("out", 4)
            return qm.run(burn, out=out)

        base, slow = run_burn(base_cfg), run_burn(slow_cfg)
        # one slow pid drags the whole bulk-synchronous phase
        assert slow.total_cycles > base.total_cycles + 100_000


# ----------------------------------------------------------------------
# Membank axis
# ----------------------------------------------------------------------
class TestMembankFaults:
    def test_bank_stalls_slow_and_reproduce(self):
        config = MEMBANK_MACHINES["SMP-NATIVE"](4)
        plan = FaultPlan(seed=4, bank_stall_prob=0.05, bank_stall_cycles=2000.0)
        clean = run_microbenchmark(config, RANDOM, accesses_per_proc=300, seed=1)
        faults.reset_tally()
        stalled = run_microbenchmark(
            config, RANDOM, accesses_per_proc=300, seed=1, fault_plan=plan
        )
        again = run_microbenchmark(
            config, RANDOM, accesses_per_proc=300, seed=1, fault_plan=plan
        )
        tally = faults.drain_tally()
        assert stalled.mean_access_cycles > clean.mean_access_cycles
        assert stalled.mean_access_cycles == again.mean_access_cycles
        assert tally["fault.bank_stalls"] > 0


# ----------------------------------------------------------------------
# Global arm/disarm plumbing
# ----------------------------------------------------------------------
class TestGlobalArm:
    def test_arm_spec_reaches_new_machines(self):
        faults.arm("drop=0.1,seed=6")
        try:
            assert faults.armed()
            assert faults.active_plan().drop_prob == 0.1
            qm = QSMMachine(RunConfig(machine=MachineConfig(p=2), seed=1))
            assert qm.machine.faults is not None
            assert qm.machine.faults.plan.drop_prob == 0.1
        finally:
            faults.disarm()
        assert not faults.armed()

    def test_config_plan_wins_over_global(self):
        faults.arm("drop=0.1,seed=6")
        try:
            pinned = MachineConfig(p=2).with_faults(FaultPlan(seed=1, drop_prob=0.4))
            qm = QSMMachine(RunConfig(machine=pinned, seed=1))
            assert qm.machine.faults.plan.drop_prob == 0.4
        finally:
            faults.disarm()

    def test_armed_noop_spec_yields_no_state(self):
        faults.arm(FaultPlan())
        try:
            qm = QSMMachine(RunConfig(machine=MachineConfig(p=2), seed=1))
            assert qm.machine.faults is None
        finally:
            faults.disarm()

    def test_cost_model_fault_hooks(self):
        qm = QSMMachine(RunConfig(machine=MachineConfig(p=2), seed=1))
        costs = qm.cost_model()
        plan = FaultPlan(seed=1, drop_prob=0.2)
        assert costs.fault_traffic_factor(plan) == pytest.approx(1.25)
        assert costs.fault_extra_latency_cycles(plan) > 0
        noop = FaultPlan()
        assert costs.fault_traffic_factor(noop) == 1.0
        assert costs.fault_extra_latency_cycles(noop) == 0.0
