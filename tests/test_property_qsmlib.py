"""Property-based tests of the full QSM runtime (hypothesis).

Random SPMD traffic patterns driven end-to-end through the machine:
semantics (snapshot gets, end-of-phase puts), conservation (every
requested word is delivered), determinism, and timing sanity must hold
for *any* pattern, not just the algorithms' shapes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine.config import MachineConfig
from repro.predict import PhaseProfile, qsm_comm_cycles
from repro.qsmlib import Layout, QSMMachine, RunConfig

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

N_WORDS = 64


@st.composite
def traffic_spec(draw):
    """Per-processor disjoint read and write index sets over a 64-word array.

    Words 0..31 are readable, 32..63 writable — guaranteeing the QSM
    read/write-disjointness rule so any drawn spec is a legal program.
    """
    p = draw(st.sampled_from([2, 4]))
    spec = []
    for pid in range(p):
        reads = draw(
            st.lists(st.integers(0, N_WORDS // 2 - 1), min_size=0, max_size=12)
        )
        writes = draw(
            st.lists(
                st.integers(N_WORDS // 2, N_WORDS - 1), min_size=0, max_size=12, unique=True
            )
        )
        values = [draw(st.integers(-1000, 1000)) for _ in writes]
        spec.append((reads, writes, values))
    return p, spec


def run_spec(p, spec, seed=0, layout=Layout.BLOCKED):
    cfg = RunConfig(machine=MachineConfig(p=p), seed=seed, check_semantics=True)
    qm = QSMMachine(cfg)
    A = qm.allocate("A", N_WORDS, layout=layout)
    A.data[:] = np.arange(N_WORDS) * 100

    def program(ctx, A):
        reads, writes, values = spec[ctx.pid]
        handle = ctx.get(A, np.array(reads, dtype=np.int64)) if reads else None
        if writes:
            ctx.put(A, np.array(writes, dtype=np.int64), np.array(values, dtype=np.int64))
        yield ctx.sync()
        return list(handle.data) if handle is not None else []

    run = qm.run(program, A=A)
    return qm, A, run


@given(traffic_spec())
@SLOW
def test_gets_return_phase_start_snapshot(ts):
    p, spec = ts
    _, A, run = run_spec(p, spec)
    for pid, (reads, _w, _v) in enumerate(spec):
        assert run.returns[pid] == [r * 100 for r in reads]


@given(traffic_spec())
@SLOW
def test_puts_apply_with_last_pid_winning(ts):
    p, spec = ts
    _, A, _ = run_spec(p, spec)
    expected = {}
    for pid, (_r, writes, values) in enumerate(spec):
        for w, v in zip(writes, values):
            expected[w] = v  # later pid overwrites earlier
    for w in range(N_WORDS):
        if w in expected:
            assert A.data[w] == expected[w]
        else:
            assert A.data[w] == w * 100  # untouched


@given(traffic_spec(), st.sampled_from(list(Layout)))
@SLOW
def test_results_independent_of_layout(ts, layout):
    """Data outcomes must not depend on where words physically live."""
    p, spec = ts
    _, a_blocked, r1 = run_spec(p, spec, layout=Layout.BLOCKED)
    _, a_other, r2 = run_spec(p, spec, layout=layout)
    assert np.array_equal(a_blocked.data, a_other.data)
    assert r1.returns == r2.returns


@given(traffic_spec())
@SLOW
def test_run_is_deterministic(ts):
    p, spec = ts
    _, a1, r1 = run_spec(p, spec, seed=9)
    _, a2, r2 = run_spec(p, spec, seed=9)
    assert r1.total_cycles == r2.total_cycles
    assert np.array_equal(a1.data, a2.data)


@given(traffic_spec())
@SLOW
def test_word_accounting_conserved(ts):
    """Remote + local words equal exactly what the programs requested."""
    p, spec = ts
    _, _, run = run_spec(p, spec)
    ph = run.phases[0]
    for pid, (reads, writes, _v) in enumerate(spec):
        requested = len(reads) + len(writes)
        accounted = int(ph.put_words[pid] + ph.get_words[pid] + ph.local_words[pid])
        assert accounted == requested


@given(traffic_spec())
@SLOW
def test_phase_time_at_least_floor_and_estimate(ts):
    """Measured comm >= the sync floor and >= the QSM word estimate
    (QSM ignores only *additive* overheads, so it never overshoots a
    single balanced phase by construction of the side-split costs)."""
    p, spec = ts
    qm, _, run = run_spec(p, spec)
    floor = qm.cost_model().sync_floor_cycles(p)
    assert run.comm_cycles >= 0.7 * floor
    est = qsm_comm_cycles(PhaseProfile.from_run(run), qm.cost_model())
    assert run.comm_cycles >= 0.8 * est
