"""Tests for get/put request queues and handles."""

import numpy as np
import pytest

from repro.qsmlib.address_space import AddressSpace
from repro.qsmlib.requests import GetHandle, RequestQueue


@pytest.fixture
def arr():
    return AddressSpace(p=4).allocate("a", 100)


def test_get_handle_not_ready_before_sync(arr):
    q = RequestQueue(pid=0)
    h = q.add_get(arr, [1, 2, 3])
    assert not h.ready
    with pytest.raises(RuntimeError, match="before sync"):
        h.data


def test_get_handle_fulfill(arr):
    q = RequestQueue(pid=0)
    h = q.add_get(arr, [5])
    h._fulfill(np.array([42]))
    assert h.ready
    assert h.data[0] == 42


def test_put_scalar_broadcasts(arr):
    q = RequestQueue(pid=0)
    q.add_put(arr, [1, 2, 3], 9)
    assert (q.puts[0].values == 9).all()
    assert len(q.puts[0].values) == 3


def test_put_shape_mismatch_rejected(arr):
    q = RequestQueue(pid=0)
    with pytest.raises(ValueError, match="mismatch"):
        q.add_put(arr, [1, 2], [1, 2, 3])


def test_put_values_copied(arr):
    q = RequestQueue(pid=0)
    values = np.array([1, 2, 3])
    q.add_put(arr, [0, 1, 2], values)
    values[:] = 99
    assert (q.puts[0].values == [1, 2, 3]).all()


def test_out_of_bounds_indices_rejected(arr):
    q = RequestQueue(pid=0)
    with pytest.raises(IndexError):
        q.add_get(arr, [100])
    with pytest.raises(IndexError):
        q.add_put(arr, [-1], [0])


def test_indices_flattened(arr):
    q = RequestQueue(pid=0)
    h = q.add_get(arr, np.array([[1, 2], [3, 4]]))
    assert h.indices.shape == (4,)


def test_clear_and_empty(arr):
    q = RequestQueue(pid=0)
    assert q.empty
    q.add_get(arr, [1])
    q.add_put(arr, [2], [5])
    assert not q.empty
    q.clear()
    assert q.empty


def test_dtype_coercion_to_array_dtype():
    arr = AddressSpace(p=2).allocate("f", 10, dtype=np.float64)
    q = RequestQueue(pid=0)
    q.add_put(arr, [0], [3])
    assert q.puts[0].values.dtype == np.float64


def test_empty_index_request_allowed(arr):
    q = RequestQueue(pid=0)
    h = q.add_get(arr, np.array([], dtype=np.int64))
    assert h.indices.size == 0


# A bounds check is one reduction over the indices read as unsigned; a
# failing one still names both endpoints.
INPUTS = {
    "int64": lambda idx: np.array(idx, dtype=np.int64),
    "int32": lambda idx: np.array(idx, dtype=np.int32),
    "list": list,
}
OUT_OF_BOUNDS = {
    "negative-only": ([-3, -1], -3, -1),
    "too-large-only": ([100, 250], 100, 250),
    "mixed": ([5, -2, 99, 100], -2, 100),
    "int64-extremes": ([-(2**63), 2**63 - 1], -(2**63), 2**63 - 1),
}


def _enqueue(q, arr, op, indices):
    if op == "get":
        return q.add_get(arr, indices)
    return q.add_put(arr, indices, 0)


@pytest.mark.parametrize("op", ["get", "put"])
@pytest.mark.parametrize(
    "kind, case",
    [
        pytest.param(kind, case, id=f"{kind}-{case}")
        for kind in sorted(INPUTS)
        for case in OUT_OF_BOUNDS
        if not (kind == "int32" and case == "int64-extremes")
    ],
)
def test_out_of_bounds_names_both_endpoints(arr, op, kind, case):
    idx, lo, hi = OUT_OF_BOUNDS[case]
    q = RequestQueue(pid=0)
    with pytest.raises(IndexError) as exc:
        _enqueue(q, arr, op, INPUTS[kind](idx))
    assert str(exc.value) == f"indices [{lo}, {hi}] out of bounds for 'a' of length 100"
    assert q.empty


@pytest.mark.parametrize("op", ["get", "put"])
@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_in_bounds_and_empty_indices_pass(arr, op, kind):
    q = RequestQueue(pid=0)
    for idx in ([], [0, 99, 0], [99]):
        _enqueue(q, arr, op, INPUTS[kind](idx))
    requests = q.gets if op == "get" else q.puts
    assert [list(r.indices) for r in requests] == [[], [0, 99, 0], [99]]
    assert all(r.indices.dtype == np.int64 for r in requests)


@pytest.mark.parametrize("op", ["get", "put"])
def test_armed_sanitizer_records_out_of_bounds(arr, op, sanitizer_warn, capsys):
    q = RequestQueue(pid=3, sanitizer=sanitizer_warn)
    with pytest.raises(IndexError, match=r"indices \[-1, 100\] out of bounds"):
        _enqueue(q, arr, op, [-1, 100])
    (diag,) = sanitizer_warn.diagnostics
    assert diag.code == "QS004" and diag.pids == (3,)
    assert diag.message == (
        f"pid 3 enqueued an out-of-bounds {op} on 'a': "
        "indices [-1, 100] out of bounds for 'a' of length 100"
    )
    assert "QS004" in capsys.readouterr().err
