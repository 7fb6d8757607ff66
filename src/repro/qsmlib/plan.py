"""Communication-plan construction: per-pair traffic from request queues.

During a ``sync()``, the library "first builds and distributes a
communications plan that indicates how many gets and puts will occur
between each pair of nodes" (§3.1.2).  This module computes those
matrices and the phase-semantics bookkeeping (kappa contention,
read/write-overlap checking).

All three read one grouping of the phase's requests,
:class:`PhaseRequests`: each kind (puts, gets) split by target shared
array, every processor's requests together.  The matrices then cost one
owner lookup and one ``bincount`` of ``src·p + owner`` per (array,
kind), however many processors and calls queued them; contiguous spans
are counted in closed form by
:meth:`~repro.qsmlib.layout.LayoutMap.range_owner_counts` and never
materialised.  Counts are integers, so the matrices equal the
per-request sums exactly.  The driver groups a phase once and hands the
grouping to all three; each also accepts the queues themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.qsmlib.address_space import SharedArray
from repro.qsmlib.requests import RequestQueue


class QSMSemanticsError(RuntimeError):
    """A program violated the bulk-synchronous memory semantics of §2."""


@dataclass
class PhaseTraffic:
    """Per-pair word counts for one phase.

    ``put_words[s, d]`` — words processor *s* puts into words owned by
    *d*; ``get_words[s, d]`` — words *s* gets from owner *d*.  Diagonals
    are zero; locally-served words are in ``local_words``.
    """

    put_words: np.ndarray
    get_words: np.ndarray
    local_words: np.ndarray
    kappa: Optional[int]

    @property
    def p(self) -> int:
        return self.put_words.shape[0]

    def expected_data_sources(self, pid: int) -> List[int]:
        """Nodes that will send a data message (puts and/or get requests) to *pid*."""
        inbound = self.put_words[:, pid] + self.get_words[:, pid]
        return [s for s in range(self.p) if s != pid and inbound[s] > 0]

    def expected_reply_sources(self, pid: int) -> List[int]:
        """Owners that will send a get-reply message to *pid*."""
        return [d for d in range(self.p) if d != pid and self.get_words[pid, d] > 0]


class ArrayRequests:
    """One kind of a phase's requests to one shared array, in queue
    order: ``reqs[k]`` was queued by processor ``pids[k]``."""

    __slots__ = ("arr", "pids", "reqs")

    def __init__(self, arr: SharedArray) -> None:
        self.arr = arr
        self.pids: List[int] = []
        self.reqs: list = []

    def indices(self) -> np.ndarray:
        """Every request's indices (spans materialised) concatenated in
        queue order."""
        return np.concatenate([req.indices for req in self.reqs])

    def count_words(self, words: np.ndarray) -> None:
        """Add ``words[src, owner]``, the words each processor *src*
        touches on each owner, into the ``(p, p)`` matrix *words*."""
        p = words.shape[0]
        arr = self.arr
        srcs: List[int] = []
        parts: List[np.ndarray] = []
        for pid, req in zip(self.pids, self.reqs):
            span = req.span
            if span is not None:
                arr.map.range_owner_counts(span[0], span[1], out=words[pid])
            else:
                srcs.append(pid)
                parts.append(req.indices)
        if not parts:
            return
        # Indices were bounds-checked when the requests were queued, so
        # the owner lookup skips re-validation.
        owners = arr.owner_of(np.concatenate(parts), validate=False)
        rows = np.repeat(np.array(srcs, dtype=np.int64) * p, [idx.size for idx in parts])
        words += np.bincount(rows + owners, minlength=p * p).reshape(p, p)


class PhaseRequests:
    """A phase's queued requests grouped by kind and target array.

    ``puts`` and ``gets`` map an array id to its :class:`ArrayRequests`,
    in order of first use over the queues taken in order.
    """

    __slots__ = ("puts", "gets")

    def __init__(self, queues: Sequence[RequestQueue]) -> None:
        self.puts: Dict[int, ArrayRequests] = {}
        self.gets: Dict[int, ArrayRequests] = {}
        for q in queues:
            pid = q.pid
            for groups, reqs in ((self.puts, q.puts), (self.gets, q.gets)):
                for req in reqs:
                    group = groups.get(req.arr.aid)
                    if group is None:
                        group = groups[req.arr.aid] = ArrayRequests(req.arr)
                    group.pids.append(pid)
                    group.reqs.append(req)


Requests = Union[PhaseRequests, Sequence[RequestQueue]]


def _grouped(requests: Requests) -> PhaseRequests:
    return requests if isinstance(requests, PhaseRequests) else PhaseRequests(requests)


def build_traffic(requests: Requests, p: int) -> PhaseTraffic:
    """Aggregate all queued requests into per-pair word-count matrices."""
    requests = _grouped(requests)
    put_words = np.zeros((p, p), dtype=np.int64)
    get_words = np.zeros((p, p), dtype=np.int64)
    for group in requests.puts.values():
        group.count_words(put_words)
    for group in requests.gets.values():
        group.count_words(get_words)
    local_words = put_words.diagonal() + get_words.diagonal()
    np.fill_diagonal(put_words, 0)
    np.fill_diagonal(get_words, 0)
    return PhaseTraffic(put_words, get_words, local_words, kappa=None)


def compute_kappa(requests: Requests) -> int:
    """Maximum number of accesses to any single word this phase (QSM kappa)."""
    requests = _grouped(requests)
    per_array: Dict[int, tuple] = {}
    for groups in (requests.puts, requests.gets):
        for aid, group in groups.items():
            per_array.setdefault(aid, (group.arr, []))[1].extend(r.indices for r in group.reqs)
    kappa = 0
    for arr, parts in per_array.values():
        idx = np.concatenate(parts)
        if idx.size == 0:
            continue
        counts = np.bincount(idx, minlength=arr.n)
        kappa = max(kappa, int(counts.max()))
    return kappa


def check_phase_semantics(requests: Requests) -> None:
    """Enforce §2: no word may be both read and written in one phase.

    Raises :class:`QSMSemanticsError` naming the first offending array.
    """
    requests = _grouped(requests)
    for aid, writes in requests.puts.items():
        reads = requests.gets.get(aid)
        if reads is None:
            continue
        arr = writes.arr
        mask = np.zeros(arr.n, dtype=bool)
        mask[writes.indices()] = True
        read_idx = reads.indices()
        overlap = mask[read_idx]
        if overlap.any():
            word = int(read_idx[overlap.argmax()])
            raise QSMSemanticsError(
                f"word {word} of array {arr.name!r} is both read and written "
                "in the same phase, which QSM forbids (§2)"
            )


def apply_phase_semantics(queues: Sequence[RequestQueue]) -> None:
    """Fulfil gets from the phase-start snapshot, then apply puts.

    Serving every get before applying any put implements the snapshot
    semantics; puts apply in processor order (a deterministic
    realisation of the queue-write model's "arbitrary winner").
    """
    # Contiguous spans gather/scatter through slices (a memcpy) instead
    # of fancy indexing; the result is element-for-element the same.  A
    # slice is a view, so a span's get copies it; fancy indexing already
    # returns a copy.
    for q in queues:
        for req in q.gets:
            span = req.span
            if span is not None:
                start, count = span
                req.handle._fulfill(req.arr.data[start : start + count].copy())
            else:
                req.handle._fulfill(req.arr.data[req.indices])
    for q in queues:
        for req in q.puts:
            span = req.span
            if span is not None:
                start, count = span
                req.arr.data[start : start + count] = req.values
            else:
                req.arr.data[req.indices] = req.values
