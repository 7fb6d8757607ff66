"""Tests for communication-plan construction and phase semantics."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.qsmlib.address_space import AddressSpace
from repro.qsmlib.layout import Layout
from repro.qsmlib.plan import (
    PhaseRequests,
    QSMSemanticsError,
    apply_phase_semantics,
    build_traffic,
    check_phase_semantics,
    compute_kappa,
)
from repro.qsmlib.requests import RequestQueue


@pytest.fixture
def space():
    return AddressSpace(p=4)


def queues(p=4):
    return [RequestQueue(pid=i) for i in range(p)]


def test_traffic_matrices_basic(space):
    arr = space.allocate("a", 100)  # blocks of 25
    qs = queues()
    qs[0].add_put(arr, [30, 31], [1, 2])  # to owner 1
    qs[0].add_get(arr, [77])  # from owner 3
    qs[2].add_put(arr, [55], [9])  # local (owner 2)
    t = build_traffic(qs, 4)
    assert t.put_words[0, 1] == 2
    assert t.get_words[0, 3] == 1
    assert t.local_words[2] == 1
    assert t.put_words.diagonal().sum() == 0
    assert t.put_words.sum() == 2
    assert t.get_words.sum() == 1


def test_traffic_expected_sources(space):
    arr = space.allocate("a", 100)
    qs = queues()
    qs[0].add_put(arr, [30], [1])
    qs[2].add_get(arr, [30])
    t = build_traffic(qs, 4)
    assert t.expected_data_sources(1) == [0, 2]
    assert t.expected_reply_sources(2) == [1]
    assert t.expected_reply_sources(0) == []


def test_kappa_counts_hot_word(space):
    arr = space.allocate("a", 100)
    qs = queues()
    for q in qs:
        q.add_get(arr, [50])
    qs[0].add_get(arr, [50])
    assert compute_kappa(qs) == 5


def test_kappa_across_arrays_is_max(space):
    a = space.allocate("a", 10)
    b = space.allocate("b", 10)
    qs = queues()
    qs[0].add_put(a, [1, 1, 1], [1, 1, 1])
    qs[1].add_put(b, [2], [2])
    assert compute_kappa(qs) == 3


def test_kappa_empty_is_zero():
    assert compute_kappa(queues()) == 0


def test_read_write_same_word_rejected(space):
    arr = space.allocate("a", 100)
    qs = queues()
    qs[0].add_put(arr, [10], [1])
    qs[1].add_get(arr, [10])
    with pytest.raises(QSMSemanticsError, match="both read and written"):
        check_phase_semantics(qs)


def test_read_write_disjoint_accepted(space):
    arr = space.allocate("a", 100)
    qs = queues()
    qs[0].add_put(arr, [10], [1])
    qs[1].add_get(arr, [11])
    check_phase_semantics(qs)  # no error


def test_same_word_rw_in_different_arrays_ok(space):
    a = space.allocate("a", 10)
    b = space.allocate("b", 10)
    qs = queues()
    qs[0].add_put(a, [3], [1])
    qs[1].add_get(b, [3])
    check_phase_semantics(qs)


def test_gets_see_phase_start_snapshot(space):
    arr = space.allocate("a", 100)
    arr.data[:] = 5
    qs = queues()
    h = qs[0].add_get(arr, [60])
    qs[1].add_put(arr, [61], [99])  # different word, same phase
    apply_phase_semantics(qs)
    assert h.data[0] == 5
    assert arr.data[61] == 99


def test_concurrent_puts_resolve_in_pid_order(space):
    arr = space.allocate("a", 100)
    qs = queues()
    qs[0].add_put(arr, [7], [100])
    qs[3].add_put(arr, [7], [300])
    apply_phase_semantics(qs)
    assert arr.data[7] == 300  # deterministic: highest pid applied last


def test_duplicate_indices_in_one_put_last_wins(space):
    arr = space.allocate("a", 10)
    qs = queues()
    qs[0].add_put(arr, [2, 2], [10, 20])
    apply_phase_semantics(qs)
    assert arr.data[2] == 20


def test_get_data_in_request_order(space):
    arr = space.allocate("a", 100)
    arr.data[:] = np.arange(100)
    qs = queues()
    h = qs[0].add_get(arr, [42, 3, 99])
    apply_phase_semantics(qs)
    assert list(h.data) == [42, 3, 99]


def test_traffic_refuses_an_unregistered_array(space):
    arr = space.allocate("a", 100)
    qs = queues()
    qs[1].add_get(arr, [5])
    space.unregister(arr)
    with pytest.raises(RuntimeError, match="unregistered"):
        build_traffic(qs, 4)


def test_traffic_with_root_layout(space):
    arr = space.allocate("r", 40, layout=Layout.ROOT)
    qs = queues()
    qs[2].add_put(arr, [5], [1])
    qs[0].add_put(arr, [6], [1])  # local to 0
    t = build_traffic(qs, 4)
    assert t.put_words[2, 0] == 1
    assert t.local_words[0] == 1


# ----------------------------------------------------------------------
# Generated phases: the grouped counts against per-request references
# ----------------------------------------------------------------------
@st.composite
def phase_queues(draw):
    """p from 1 to 12 queues over one to four arrays of every layout,
    holding index requests (repeats and empty arrays included), spans
    (empty ones included) and empty queues."""
    p = draw(st.integers(1, 12))
    space = AddressSpace(p, default_salt=draw(st.integers(0, 2**16)))
    arrays = [
        space.allocate(f"a{k}", draw(st.integers(1, 120)), layout=draw(st.sampled_from(Layout)))
        for k in range(draw(st.integers(1, 4)))
    ]
    queues = [RequestQueue(pid=pid) for pid in range(p)]
    for q in queues:
        for _ in range(draw(st.integers(0, 5))):
            arr = draw(st.sampled_from(arrays))
            op = draw(st.sampled_from(["get", "put", "get_range", "put_range"]))
            if op in ("get", "put"):
                idx = np.array(
                    draw(st.lists(st.integers(0, arr.n - 1), max_size=16)), dtype=np.int64
                )
                if op == "get":
                    q.add_get(arr, idx)
                else:
                    q.add_put(arr, idx, np.arange(idx.size))
            else:
                start = draw(st.integers(0, arr.n))
                count = draw(st.integers(0, arr.n - start))
                if op == "get_range":
                    q.add_get_range(arr, start, count)
                else:
                    q.add_put_range(arr, start, np.arange(count))
    return p, queues


def _request_indices(req):
    """A request's indices, without caching a span's on the request."""
    if req.span is not None:
        start, count = req.span
        return np.arange(start, start + count, dtype=np.int64)
    return req.indices


def reference_traffic(queues, p):
    """``bincount(owner_of(idx))`` summed request by request."""
    words = {"puts": np.zeros((p, p), np.int64), "gets": np.zeros((p, p), np.int64)}
    for q in queues:
        for kind in ("puts", "gets"):
            for req in getattr(q, kind):
                owners = req.arr.owner_of(_request_indices(req))
                words[kind][q.pid] += np.bincount(owners, minlength=p)
    local = words["puts"].diagonal() + words["gets"].diagonal()
    for matrix in words.values():
        np.fill_diagonal(matrix, 0)
    return words["puts"], words["gets"], local


def reference_kappa(queues):
    hits = Counter(
        (req.arr.aid, int(i))
        for q in queues
        for req in q.puts + q.gets
        for i in _request_indices(req)
    )
    return max(hits.values(), default=0)


def reference_overlap(queues):
    """The message of the first read of a written word, or None: arrays
    in order of first put, reads in queue order."""
    written, names = {}, {}
    for q in queues:
        for req in q.puts:
            written.setdefault(req.arr.aid, set()).update(_request_indices(req).tolist())
            names[req.arr.aid] = req.arr.name
    for aid, cells in written.items():
        for q in queues:
            for req in q.gets:
                if req.arr.aid != aid:
                    continue
                for i in _request_indices(req).tolist():
                    if i in cells:
                        return (
                            f"word {i} of array {names[aid]!r} is both read and written "
                            "in the same phase, which QSM forbids (§2)"
                        )
    return None


GENERATED = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(phase_queues())
@GENERATED
def test_generated_traffic_equals_per_request_sums(phase):
    p, queues = phase
    expected = reference_traffic(queues, p)
    for requests in (queues, PhaseRequests(queues)):
        t = build_traffic(requests, p)
        for got, want in zip((t.put_words, t.get_words, t.local_words), expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert t.kappa is None


@given(phase_queues())
@GENERATED
def test_generated_kappa_and_semantics_equal_brute_force(phase):
    p, queues = phase
    grouped = PhaseRequests(queues)
    assert compute_kappa(queues) == compute_kappa(grouped) == reference_kappa(queues)
    expected = reference_overlap(queues)
    for requests in (queues, grouped):
        if expected is None:
            check_phase_semantics(requests)
        else:
            with pytest.raises(QSMSemanticsError) as exc:
                check_phase_semantics(requests)
            assert str(exc.value) == expected
