"""The flat membank kernel against the generator-process oracle.

Every input runs twice: through
:func:`~repro.membank.microbench.run_microbenchmark` (the kernel) and
through ``tests/membank_oracle.py`` (the discrete-event model the kernel
replaced).  The two must agree exactly on results, event counts and
fault tallies, and with observability on, on every span, instant and
metric.
"""

import io
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.experiments.fig7_membank import FAST_ACCESSES, FAST_P_SWEEP
from repro.faults.plan import FaultPlan
from repro.membank import microbench
from repro.membank.interconnect import BusInterconnect, EthernetInterconnect, TorusInterconnect
from repro.membank.machines import MEMBANK_MACHINES, MemoryMachineConfig
from repro.membank.patterns import CONFLICT, NOCONFLICT, RANDOM, AccessPattern
from repro.sim import Simulator
from tests.membank_oracle import run_oracle

SLOWISH = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _skewed(rng, pid, n_banks, count):
    """Seeded and skewed: ~60% of a processor's accesses hit its hot bank."""
    hot = rng.integers(0, n_banks)
    spread = rng.integers(0, n_banks, size=count)
    return np.where(rng.random(count) < 0.6, hot, spread)


SKEWED = AccessPattern("Skewed", _skewed)

#: Exactly representable and rounding fractions alike.
CYCLES = st.sampled_from([0.1, 0.3, 0.75, 1.0, 2.5, 4.0, 7.125, 15.0, 33.3])


class Case(NamedTuple):
    config: MemoryMachineConfig
    pattern: AccessPattern
    accesses: int
    warmup: Optional[int]
    seed: int
    plan: Optional[FaultPlan]
    traced: bool


@st.composite
def interconnects(draw):
    kind = draw(st.sampled_from(["bus", "ethernet", "torus"]))
    if kind == "bus":
        return BusInterconnect(occupancy_cycles=draw(CYCLES), width=draw(st.integers(1, 3)))
    if kind == "ethernet":
        return EthernetInterconnect(
            n_nodes=draw(st.integers(1, 12)),
            frame_cycles=draw(CYCLES),
            stack_cycles=draw(st.sampled_from([0.0, 0.5, 3.0])),
            propagation_cycles=draw(st.sampled_from([0.0, 0.2, 6.0])),
        )
    return TorusInterconnect(
        n_nodes=draw(st.integers(1, 64)),
        hop_cycles=draw(st.sampled_from([0.0, 0.3, 9.0])),
        inject_cycles=draw(st.sampled_from([0.0, 1.5, 18.0])),
    )


@st.composite
def cases(draw):
    interconnect = draw(interconnects())
    config = MemoryMachineConfig(
        name=type(interconnect).__name__,
        p=draw(st.integers(1, 12)),
        n_banks=draw(st.integers(1, 12)),
        bank_service_cycles=draw(CYCLES),
        software_cycles=draw(st.sampled_from([0.0, 0.7, 3.0, 12.5])),
        make_interconnect=lambda: interconnect,
    )
    accesses = draw(st.integers(1, 60))
    plan = draw(
        st.none()
        | st.builds(
            FaultPlan,
            seed=st.integers(0, 99),
            bank_stall_prob=st.sampled_from([0.1, 0.3]),
            bank_stall_cycles=CYCLES,
        )
    )
    return Case(
        config=config,
        pattern=draw(st.sampled_from([RANDOM, CONFLICT, NOCONFLICT, SKEWED])),
        accesses=accesses,
        warmup=draw(st.integers(0, accesses - 1)),
        seed=draw(st.integers(0, 2**16)),
        plan=plan,
        traced=draw(st.booleans()),
    )


def _machine(interconnect, p, n_banks, service, software=0.0):
    return MemoryMachineConfig(
        name=type(interconnect).__name__,
        p=p,
        n_banks=n_banks,
        bank_service_cycles=service,
        software_cycles=software,
        make_interconnect=lambda: interconnect,
    )


#: Once the clock passes 2**54 the 1.5-cycle torus trips round away
#: (``now + 1.5 == now``), so their timeouts fall due at the instant
#: being drained, behind the grants and handovers already due there.
ABSORBED = Case(
    _machine(TorusInterconnect(8, 0.0, 1.5), p=6, n_banks=3, service=2.0**54),
    RANDOM, 12, 0, 3, None, False,
)
#: Past 2**55 the 4-cycle software overhead is half an ulp and rounds
#: away at every other instant; the 2**54-cycle trip after it then falls
#: due with the bank holds granted at that instant.  Queued apart from
#: those grants, it would run after them and reorder their hold ends.
ABSORBED_BEHIND_GRANTS = Case(
    _machine(TorusInterconnect(9, 0.0, 2.0**54), p=3, n_banks=2, service=2.0**54, software=4.0),
    RANDOM, 6, 0, 2, None, False,
)
#: Zero-length stages, traced: the Ethernet stack delay and the whole
#: torus trip take no time, so their timeouts fall due at ``now``.
ZERO_ETHERNET = Case(
    _machine(EthernetInterconnect(4, 2.5, stack_cycles=0.0, propagation_cycles=0.0), 8, 4, 4.0),
    RANDOM, 30, 3, 5, None, True,
)
ZERO_TORUS = Case(
    _machine(TorusInterconnect(8, hop_cycles=0.0, inject_cycles=0.0), 8, 4, 2.5),
    SKEWED, 30, 3, 6, None, True,
)
#: Two bus slots for twelve processors, all on bank 0: a release hands
#: its slot over at an instant other grants share.
BUS_HANDOVERS = Case(
    _machine(BusInterconnect(occupancy_cycles=4.0, width=2), 12, 8, 15.0),
    CONFLICT, 40, 4, 7, None, False,
)


def _fig7_fast_grid(test):
    """Fig 7's fast grid at seeds 0 and 1, as fixed examples."""
    for seed in (0, 1):
        for name, factory in MEMBANK_MACHINES.items():
            for p in FAST_P_SWEEP[name]:
                for pattern in (NOCONFLICT, RANDOM, CONFLICT):
                    case = Case(factory(p), pattern, FAST_ACCESSES, None, seed, None, False)
                    test = example(case=case)(test)
    return test


class _Sim(Simulator):
    """Remembers its last instance, so the kernel's event count shows."""

    last = None

    def __init__(self) -> None:
        super().__init__()
        _Sim.last = self


def run_kernel(*args, **kwargs):
    with mock.patch.object(microbench, "Simulator", _Sim):
        result = microbench.run_microbenchmark(*args, **kwargs)
    return result, _Sim.last


def _observe(run, case: Case) -> dict:
    """Everything one run reports, with obs on if the case is traced."""
    faults.reset_tally()
    if case.traced:
        obs.enable()
    try:
        result, sim = run(
            case.config,
            case.pattern,
            accesses_per_proc=case.accesses,
            warmup=case.warmup,
            seed=case.seed,
            fault_plan=case.plan,
        )
        seen = {"result": result, "events": sim.event_count, "tally": faults.drain_tally()}
        if case.traced:
            capture = obs.runs()[-1]
            seen["spans"] = [_key(s) for s in capture.spans]
            seen["instants"] = [_key(s) for s in capture.instants]
            buf = io.StringIO()
            obs.write_metrics(buf)
            seen["metrics"] = buf.getvalue()
    finally:
        if case.traced:
            obs.disable()
    return seen


def _key(span):
    return (span.name, span.track, span.t0, span.t1, span.depth, span.attrs)


@_fig7_fast_grid
@example(case=ABSORBED)
@example(case=ABSORBED_BEHIND_GRANTS)
@example(case=ZERO_ETHERNET)
@example(case=ZERO_TORUS)
@example(case=BUS_HANDOVERS)
@given(case=cases())
@SLOWISH
def test_kernel_matches_oracle(case):
    got = _observe(run_kernel, case)
    want = _observe(run_oracle, case)
    a, b = got.pop("result"), want.pop("result")
    assert (a.machine, a.pattern, a.p, a.accesses_per_proc) == (
        b.machine, b.pattern, b.p, b.accesses_per_proc
    )
    assert a.mean_access_cycles == b.mean_access_cycles
    assert a.mean_access_us == b.mean_access_us
    assert a.max_bank_utilization == b.max_bank_utilization
    assert np.array_equal(a.per_proc_mean_cycles, b.per_proc_mean_cycles)
    assert got == want  # event count, fault tally, spans, instants, metrics
