"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.sequential import (
    random_list_successors,
    sequential_list_rank,
    sequential_prefix_sums,
)
from repro.core.chernoff import (
    binomial_tail_inverse_exact,
    chernoff_binomial_lower,
    chernoff_binomial_upper,
)
from repro.machine.cache import AnalyticCache, RandomAccess, SequentialAccess
from repro.machine.config import NodeConfig
from repro.predict import PhaseComm, PhaseProfile, qsm_comm_cycles
from repro.qsmlib import QSMMachine, RunConfig
from repro.qsmlib.layout import Layout, LayoutMap
from repro.sim import Simulator

SLOWISH = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------
@given(
    n=st.integers(min_value=1, max_value=5000),
    p=st.integers(min_value=1, max_value=64),
    layout=st.sampled_from(list(Layout)),
)
@SLOWISH
def test_layout_partition_invariant(n, p, layout):
    """Every word has exactly one owner in [0, p); counts sum to n."""
    m = LayoutMap(layout, n=n, p=p)
    owners = m.owner_of(np.arange(n))
    assert ((owners >= 0) & (owners < p)).all()
    assert sum(m.local_count(pid) for pid in range(p)) == n


@given(
    n=st.integers(min_value=1, max_value=5000),
    p=st.integers(min_value=1, max_value=32),
)
@SLOWISH
def test_blocked_slices_tile_the_array(n, p):
    m = LayoutMap(Layout.BLOCKED, n=n, p=p)
    covered = 0
    prev_stop = 0
    for pid in range(p):
        sl = m.local_slice(pid)
        assert sl.start == prev_stop
        prev_stop = sl.stop
        covered += sl.stop - sl.start
    assert covered == n


# ---------------------------------------------------------------------------
# Sequential baselines
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=-(2**31), max_value=2**31), min_size=1, max_size=300))
@SLOWISH
def test_prefix_sums_last_equals_total(values):
    out = sequential_prefix_sums(np.array(values, dtype=np.int64))
    assert out[-1] == sum(values)
    diffs = np.diff(out)
    assert np.array_equal(diffs, np.array(values[1:], dtype=np.int64))


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32))
@SLOWISH
def test_list_rank_is_a_permutation(n, seed):
    succ = random_list_successors(n, np.random.default_rng(seed))
    ranks = sequential_list_rank(succ)
    assert sorted(ranks) == list(range(1, n + 1))


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**32))
@SLOWISH
def test_list_rank_successor_has_next_rank(n, seed):
    succ = random_list_successors(n, np.random.default_rng(seed))
    ranks = sequential_list_rank(succ)
    for i in range(n):
        if succ[i] != -1:
            assert ranks[succ[i]] == ranks[i] + 1


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------
COSTS = QSMMachine(RunConfig()).cost_model()


def _profile(phases):
    return PhaseProfile(
        algo="t", scenario="observed", p=8, n_syncs=len(phases), phases=tuple(phases)
    )


_words = st.lists(st.integers(min_value=0, max_value=10**6), min_size=8, max_size=8).map(
    np.array
)
measured_phase = st.builds(
    PhaseComm,
    put_words=_words,
    get_words=_words,
    put_in_words=_words,
    get_served_words=_words,
)


@given(phase=measured_phase)
@SLOWISH
def test_sqsm_dominates_qsm(phase):
    """s-QSM charges at least what QSM charges: pricing the words a
    processor receives and serves as a memory owner on top of its
    outbound words never lowers a measured phase's price."""
    sqsm = qsm_comm_cycles(_profile([phase]), COSTS)
    outbound = dataclasses.replace(phase, put_in_words=None, get_served_words=None)
    qsm = qsm_comm_cycles(_profile([outbound]), COSTS)
    assert sqsm >= qsm
    # cost at least each component
    assert sqsm >= float((phase.put_in_words * COSTS.put_word_dst_cycles).max())
    assert sqsm >= float((phase.get_served_words * COSTS.get_word_server_cycles).max())


@given(phases=st.lists(measured_phase, min_size=1, max_size=10))
@SLOWISH
def test_program_cost_additive(phases):
    assert qsm_comm_cycles(_profile(phases), COSTS) == pytest.approx(
        sum(qsm_comm_cycles(_profile([ph]), COSTS) for ph in phases)
    )


# ---------------------------------------------------------------------------
# Chernoff bounds
# ---------------------------------------------------------------------------
@given(
    n=st.integers(min_value=1, max_value=10**6),
    prob=st.floats(min_value=0.001, max_value=0.999),
    alpha=st.floats(min_value=0.001, max_value=0.5),
)
@SLOWISH
def test_chernoff_bounds_straddle_mean(n, prob, alpha):
    upper = chernoff_binomial_upper(n, prob, alpha=alpha)
    lower = chernoff_binomial_lower(n, prob, alpha=alpha)
    mu = n * prob
    assert lower <= mu
    assert upper >= mu - 1
    assert 0 <= lower <= upper <= n


@given(
    n=st.integers(min_value=10, max_value=10**5),
    prob=st.floats(min_value=0.01, max_value=0.9),
    alpha=st.floats(min_value=0.01, max_value=0.3),
)
@SLOWISH
def test_chernoff_upper_dominates_exact(n, prob, alpha):
    assert chernoff_binomial_upper(n, prob, alpha=alpha) >= binomial_tail_inverse_exact(
        n, prob, alpha=alpha
    )


# ---------------------------------------------------------------------------
# Cache model
# ---------------------------------------------------------------------------
@given(
    count=st.integers(min_value=0, max_value=10**6),
    region=st.integers(min_value=1, max_value=10**8),
)
@SLOWISH
def test_cache_cost_bounded_by_extremes(count, region):
    """Per-reference cost always lies between the L1 hit and a full miss."""
    cache = AnalyticCache(NodeConfig())
    cost = cache.reference_cycles(RandomAccess(count=count, region_words=region))
    node = NodeConfig()
    full_miss = node.l1.hit_cycles + node.l2.hit_cycles + node.l2_miss_extra_cycles
    assert node.l1.hit_cycles * count * 0.999 <= cost + 1e-9
    assert cost <= full_miss * count + 1e-9


@given(counts=st.lists(st.integers(min_value=1, max_value=10**5), min_size=2, max_size=2))
@SLOWISH
def test_cache_cost_linear_in_count(counts):
    cache = AnalyticCache(NodeConfig())
    a, b = counts
    ca = cache.reference_cycles(SequentialAccess(count=a))
    cb = cache.reference_cycles(SequentialAccess(count=b))
    assert ca / a == pytest.approx(cb / b)


# ---------------------------------------------------------------------------
# Simulator determinism
# ---------------------------------------------------------------------------
@given(
    delays=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30),
)
@SLOWISH
def test_simulator_end_time_is_max_delay(delays):
    sim = Simulator()
    for d in delays:
        sim.timeout(d)
    sim.run()
    assert sim.now == max(delays)


@given(
    service=st.integers(min_value=1, max_value=100),
    clients=st.integers(min_value=1, max_value=20),
)
@SLOWISH
def test_single_server_throughput_law(service, clients):
    """A unit resource serving k clients finishes at exactly k*service."""
    from repro.sim import Resource

    sim = Simulator()
    res = Resource(sim)

    def client():
        yield from res.serve(service)

    for _ in range(clients):
        sim.process(client())
    sim.run()
    assert sim.now == clients * service
