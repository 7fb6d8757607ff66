#!/usr/bin/env python
"""Parallel histogram: a small application built from library patterns.

Counts value frequencies of a large distributed array into k buckets,
using the reusable pieces of :mod:`repro.qsmlib.collective_patterns`:

1. each processor histograms its local block (pure local work),
2. partial counts are combined by writing them into per-destination
   slots (each processor owns k/p buckets of the global histogram),
3. an :class:`AllShareBoard` carries each processor's total so everyone
   can verify conservation without extra communication.

Also demonstrates reading the measured phase log afterwards: how many
remote words the combine step cost, and what the QSM model predicts.

Run:  python examples/histogram.py
"""

import numpy as np

from repro.predict import PhaseProfile, qsm_comm_cycles
from repro.qsmlib import AllShareBoard, QSMMachine, RunConfig


K_BUCKETS = 64  # must be a multiple of p


def histogram_program(ctx, data, hist):
    p, pid = ctx.p, ctx.pid
    per_proc = K_BUCKETS // p

    # -- phase 0: register the totals board -----------------------------
    board = AllShareBoard.alloc(ctx, "hist.totals")
    yield ctx.sync()

    # -- phase 1: local histogram; send each owner its slice ------------
    local = ctx.local(data)
    counts = np.bincount(local % K_BUCKETS, minlength=K_BUCKETS)
    ctx.charge_cycles(len(local) * 2, ops=len(local) * 2)
    # Accumulation via staging: each destination owns a p×per_proc
    # region of `hist` (one stripe per source) so concurrent partial
    # counts never write the same word — queue-model friendly.
    for d in range(p):
        sl = counts[d * per_proc : (d + 1) * per_proc]
        base = d * (p * per_proc) + pid * per_proc
        if d == pid:
            ctx.local(hist)[pid * per_proc : (pid + 1) * per_proc] = sl
        else:
            ctx.put_range(hist, base, sl)
    board.post(ctx, int(counts.sum()))
    yield ctx.sync()

    # -- phase 2: owners reduce their stripes ---------------------------
    mine = ctx.local(hist).reshape(p, per_proc)
    reduced = mine.sum(axis=0)
    ctx.charge_cycles(mine.size, ops=mine.size)
    grand_total = board.total(ctx)
    return reduced.tolist(), grand_total


def main() -> None:
    config = RunConfig(seed=11, check_semantics=False)
    qm = QSMMachine(config)
    p = qm.p
    n = 1 << 18

    rng = np.random.default_rng(11)
    values = rng.integers(0, 2**40, size=n)

    data = qm.allocate("hist.data", n)
    data.data[:] = values
    # Staging area: for each owner, one stripe of partial counts per source.
    hist = qm.allocate("hist.acc", p * K_BUCKETS)

    run = qm.run(histogram_program, data=data, hist=hist)

    buckets = np.concatenate([np.asarray(r[0]) for r in run.returns])
    expected = np.bincount(values % K_BUCKETS, minlength=K_BUCKETS)
    assert np.array_equal(buckets, expected), "histogram is wrong!"
    assert run.returns[0][1] == n  # conservation via the board

    print(f"== parallel histogram of {n:,} values into {K_BUCKETS} buckets (p={p}) ==")
    print(f"verified against numpy: OK   (total counted: {run.returns[0][1]:,})")
    print(f"phases: {run.n_phases}   total: {run.total_cycles:,.0f} cycles   "
          f"comm: {run.comm_cycles:,.0f} cycles")
    combine = run.phases[1]
    print(f"combine step: {combine.max_put_words} remote words per processor "
          f"(k − k/p histogram slots + the shared total)")
    est = qsm_comm_cycles(PhaseProfile.from_run(run), qm.cost_model())
    print(f"QSM communication estimate: {est:,.0f} cycles "
          f"({est / run.comm_cycles:.0%} of measured — the rest is the "
          f"per-phase sync floor)")


if __name__ == "__main__":
    main()
