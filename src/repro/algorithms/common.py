"""Operation-profile builders shared by algorithms and predictors.

Each helper describes the abstract instruction mix of a vectorisable
kernel so the :class:`~repro.machine.cpu.CPUModel` can charge cycles.
The predictors reuse the same helpers for their compute-time terms, so
prediction-vs-measurement differences isolate the *communication*
model, which is what the paper studies.

The builders return shared, interned profiles: equal arguments of equal
types (``3``, ``3.0`` and ``np.int64(3)`` are three keys) return the
same frozen :class:`~repro.machine.cpu.OpProfile` object for the life
of the process.  An SPMD program charges the same few profiles on every
processor every phase, so a repeated charge is one lookup here and one
dictionary hit on the same object in :meth:`CPUModel.cost
<repro.machine.cpu.CPUModel.cost>`, which validates each profile it has
not priced yet (a non-finite one raises on every charge).
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.machine.cache import RandomAccess, SequentialAccess
from repro.machine.cpu import OpProfile


def log2ceil(x: float) -> int:
    """ceil(log2(x)) with log2ceil(1) == 0."""
    if x < 1:
        raise ValueError(f"log2ceil needs x >= 1, got {x}")
    return max(0, math.ceil(math.log2(x)))


#: Interns a builder's results by its typed argument values.
_interned = lru_cache(maxsize=None, typed=True)


@_interned
def profile_scan_add(m: int, word_bytes: int = 8) -> OpProfile:
    """Streaming add/accumulate over *m* elements (prefix sums, offsets)."""
    if m <= 0:
        return OpProfile()
    return OpProfile(
        int_ops=m,
        loads=m,
        stores=m,
        branches=m / 8,  # vectorised loop control
        mem=(SequentialAccess(count=2 * m, word_bytes=word_bytes),),
    )


@_interned
def profile_copy(m: int, word_bytes: int = 8) -> OpProfile:
    """Bulk copy of *m* elements."""
    if m <= 0:
        return OpProfile()
    return OpProfile(
        loads=m,
        stores=m,
        branches=m / 8,
        mem=(SequentialAccess(count=2 * m, word_bytes=word_bytes),),
    )


@_interned
def profile_sort(m: int, word_bytes: int = 8) -> OpProfile:
    """Comparison sort of *m* elements: ~m·log2(m) compare/exchange steps.

    Access locality degrades with the working set, captured by a random
    pattern over the sorted region.
    """
    if m <= 1:
        return OpProfile()
    steps = m * log2ceil(m)
    return OpProfile(
        int_ops=steps,
        loads=steps,
        stores=steps / 2,
        branches=steps,
        mem=(RandomAccess(count=int(1.5 * steps), word_bytes=word_bytes, region_words=m),),
    )


@_interned
def profile_partition(m: int, buckets: int, word_bytes: int = 8) -> OpProfile:
    """Binary-search partition of *m* elements into *buckets* ranges."""
    if m <= 0 or buckets <= 1:
        return OpProfile()
    per = log2ceil(buckets)
    return OpProfile(
        int_ops=m * per,
        loads=m * per,
        stores=m,
        branches=m * per,
        mem=(
            SequentialAccess(count=2 * m, word_bytes=word_bytes),
            RandomAccess(count=m * per, word_bytes=word_bytes, region_words=buckets),
        ),
    )


@_interned
def profile_gather_scatter(m: int, region: int, word_bytes: int = 8) -> OpProfile:
    """Indexed gather or scatter of *m* elements within a *region*-word window."""
    if m <= 0:
        return OpProfile()
    return OpProfile(
        int_ops=m,
        loads=2 * m,
        stores=m,
        branches=m / 8,
        mem=(RandomAccess(count=2 * m, word_bytes=word_bytes, region_words=max(region, 1)),),
    )


@_interned
def profile_random_bits(m: int) -> OpProfile:
    """Generate *m* random bits (multiply-xor PRNG steps)."""
    if m <= 0:
        return OpProfile()
    return OpProfile(int_ops=4 * m, stores=m / 8, branches=m / 16)


@_interned
def profile_pointer_walk(m: int, region: int, word_bytes: int = 8) -> OpProfile:
    """Serial pointer chase over *m* nodes in a *region*-word structure.

    Dependent loads cannot overlap, so this charges full memory latency
    per step — the sequential list-rank finish at processor 0.
    """
    if m <= 0:
        return OpProfile()
    return OpProfile(
        int_ops=2 * m,
        loads=2 * m,
        stores=m,
        branches=m,
        mem=(RandomAccess(count=2 * m, word_bytes=word_bytes, region_words=max(region, 1)),),
    )
