"""QSM sample sort (appendix ``samplesort``): five phases *whp*.

Pivot selection by over-sampling (``c·log2 n`` samples per processor,
``c = 4`` to match the paper's ``4(p−1)g·log n`` sample-broadcast term),
then redistribution into p buckets, local sort, and a final write into
the output array.  The five synchronizations are:

0. register temporary structures;
1. broadcast samples;
2. partition locally, send per-bucket (count, pointer) pairs;
3. fetch my bucket's remote contributions; broadcast my bucket total;
4. sort my bucket locally and write it to the output positions.

QSM communication: ``c(p−1)g·log n + 3(p−1)g + g·B·r + g·B`` where
``B`` is the largest bucket and ``r`` the largest remote fraction of a
bucket — the two load-balance skews Figure 2's prediction lines differ
on.  The program reports both via ``ctx.observe``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.algorithms.common import (
    log2ceil,
    profile_copy,
    profile_gather_scatter,
    profile_partition,
    profile_scan_add,
    profile_sort,
)
from repro.check.spec import phase_spec
from repro.qsmlib import PhaseTraffic, QSMMachine, RunConfig, RunResult, SharedArray
from repro.util.validation import require


@dataclass(frozen=True)
class SampleSortParams:
    """Tunables of the sample sort algorithm."""

    #: Over-sampling factor: each processor contributes c·log2(n) samples.
    oversampling: int = 4

    def samples_per_proc(self, n: int) -> int:
        return max(1, self.oversampling * log2ceil(max(n, 2)))


@phase_spec(arrays={"S_in": "n", "S_out": "n"}, assume=("s >= 1",), algo="samplesort")
def sample_sort_program(ctx, S_in: SharedArray, S_out: SharedArray, params: SampleSortParams):
    """SPMD body of the five-phase sample sort."""
    p, pid = ctx.p, ctx.pid
    n = S_in.n
    s = params.samples_per_proc(n)

    # -- Phase 0: allocate and register temporary structures -------------
    samples = ctx.alloc("ss.samples", p * p * s)  # dest-major: block d holds p*s slots
    counts = ctx.alloc("ss.counts", p * 2 * p)  # block d: (count_j, ptr_j) for each j
    totals = ctx.alloc("ss.totals", p * p)  # block d: bucket totals B_j
    staging = ctx.alloc("ss.staging", n)  # bucket-grouped local elements
    yield ctx.sync()

    local = ctx.local(S_in)
    m = len(local)

    # -- Phase 1: select and broadcast samples ----------------------------
    picks = local[ctx.rng.integers(0, m, size=s)] if m else np.zeros(s, dtype=np.int64)
    ctx.charge(profile_gather_scatter(s, region=m))
    ctx.local(samples.array)[pid * s : pid * s + s] = picks
    # One bulk put broadcasts this pid's sample row to every remote
    # destination block — same words, owners, and values as p-1
    # individual range puts.
    remote_d = np.arange(p)[np.arange(p) != pid]
    slots = (remote_d * (p * s) + pid * s)[:, None] + np.arange(s)
    ctx.put(samples.array, slots.ravel(), np.tile(picks, p - 1))
    yield ctx.sync()

    # -- Phase 2: pivots, local partition, announce counts ----------------
    all_samples = np.sort(ctx.local(samples.array))
    ctx.charge(profile_sort(p * s))
    pivots = all_samples[s - 1 : (p - 1) * s : s][: p - 1]  # every s-th sample

    # Host-side shortcut for the bucket grouping: value-sorting the
    # local block also groups it by bucket (buckets are value ranges),
    # and the within-bucket order is unobservable — the (count, ptr)
    # pairs depend only on counts, and phase 4 re-sorts the gathered
    # bucket — so one introsort replaces the per-element searchsorted +
    # stable argsort + gather.  The charged profiles below still model
    # the paper's partition + scatter, unchanged and in the same order.
    stage_local = ctx.local(staging.array)
    stage_local[:m] = np.sort(local)
    ctx.charge(profile_partition(m, p))
    ctx.charge(profile_gather_scatter(m, region=m))
    # Bucket k holds values in [pivots[k-1], pivots[k]); counting via
    # binary searches of the p-1 pivots in the sorted block yields
    # exactly ``np.bincount(searchsorted(pivots, local, "right"))``.
    edges = np.searchsorted(stage_local[:m], pivots, side="left").astype(np.int64)
    my_counts = np.diff(edges, prepend=0, append=m)
    starts = np.concatenate(([0], np.cumsum(my_counts)[:-1]))
    stage_base = staging.local_offset(pid)
    ctx.charge(profile_scan_add(p))
    # One bulk put covers every remote destination's (count, ptr) pair —
    # same words, owners, and values as p-1 single-pair puts.
    pairs_out = np.column_stack((my_counts, stage_base + starts))
    ctx.local(counts.array)[2 * pid : 2 * pid + 2] = pairs_out[pid]
    remote = np.arange(p) != pid
    slots = (np.arange(p) * (2 * p) + 2 * pid)[remote]
    idx = (slots[:, None] + np.arange(2)).ravel()
    ctx.put(counts.array, idx, pairs_out[remote].ravel())
    yield ctx.sync()

    # -- Phase 3: gather my bucket; broadcast its total --------------------
    pairs = ctx.local(counts.array).reshape(p, 2)
    bucket_size = int(pairs[:, 0].sum())
    remote_words = int(pairs[:, 0].sum() - pairs[pid, 0])
    ctx.observe("B", bucket_size)
    ctx.observe("r", remote_words / bucket_size if bucket_size else 0.0)

    handles = []
    for cnt, ptr in pairs.tolist():
        if cnt:
            handles.append(ctx.get_range(staging.array, ptr, cnt))
    ctx.local(totals.array)[pid] = bucket_size
    others = np.arange(p)[np.arange(p) != pid]
    ctx.put(totals.array, others * p + pid, np.full(p - 1, bucket_size, dtype=np.int64))
    yield ctx.sync()

    # -- Phase 4: sort my bucket, write it to the output -------------------
    bucket = (
        np.concatenate([h.data for h in handles]) if handles else np.zeros(0, dtype=np.int64)
    )
    # Plain ints: equal elements are indistinguishable, so the unstable
    # in-place introsort yields the identical array ~10x faster than the
    # stable kind (and `bucket` is a fresh concatenation we own).
    bucket.sort()
    ctx.charge(profile_sort(len(bucket)))
    bucket_totals = ctx.local(totals.array)
    out_start = int(bucket_totals[:pid].sum())
    ctx.charge(profile_scan_add(p))
    if len(bucket):
        ctx.put_range(S_out, out_start, bucket)
        ctx.charge(profile_copy(len(bucket)))

    ctx.free(samples)
    ctx.free(counts)
    ctx.free(totals)
    ctx.free(staging)
    yield ctx.sync()
    return bucket_size


@dataclass
class SampleSortOutcome:
    result: np.ndarray
    run: RunResult
    #: Each phase's traffic (what :func:`repro.qsmlib.price_run` needs).
    traffic: List[PhaseTraffic]


def run_sample_sort(
    values: np.ndarray,
    config: Optional[RunConfig] = None,
    params: Optional[SampleSortParams] = None,
) -> SampleSortOutcome:
    """Sort *values* with the QSM sample sort; returns output + measurements."""
    config = config or RunConfig()
    params = params or SampleSortParams()
    values = np.asarray(values, dtype=np.int64)
    n, p = values.size, config.machine.p
    s = params.samples_per_proc(max(n, 2))
    require(
        n >= max(p * s, p * p),
        f"sample sort needs n >= max(p*s, p^2) = {max(p * s, p * p)} (got n={n}); "
        "the paper requires p <= sqrt(n / log n)",
    )

    qm = QSMMachine(config)
    S_in = qm.allocate("ss.in", n)
    S_in.data[:] = values
    S_out = qm.allocate("ss.out", n)
    run = qm.run(sample_sort_program, S_in=S_in, S_out=S_out, params=params)
    return SampleSortOutcome(result=S_out.data.copy(), run=run, traffic=qm.traffic)
