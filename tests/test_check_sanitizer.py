"""Runtime phase-conflict sanitizer: clean programs stay clean, seeded
bugs are caught with pid + enqueue file:line provenance."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import check, obs
from repro.check import SanitizerError
from repro.machine.config import MachineConfig
from repro.machine.cpu import OpProfile
from repro.qsmlib import QSMMachine, RunConfig, SoftwareConfig
from repro.qsmlib.program import SPMDError


def _config(p: int = 4, path: str = "epoch", check_semantics: bool = True) -> RunConfig:
    return RunConfig(
        machine=MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=7,
        check_semantics=check_semantics,
    )


# ----------------------------------------------------------------------
# The paper's workloads are sanitizer-clean under both sync paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["epoch", "slow"], ids=["epoch", "oracle"])
class TestPaperAlgorithmsClean:
    def test_prefix(self, sanitizer, path):
        from repro.algorithms.prefix import run_prefix_sums

        values = np.arange(64, dtype=np.int64)
        out = run_prefix_sums(values, _config(path=path))
        assert np.array_equal(out.result, np.cumsum(values))
        assert sanitizer.diagnostics == []

    def test_samplesort(self, sanitizer, path):
        from repro.algorithms.samplesort import run_sample_sort

        values = np.random.default_rng(3).integers(0, 10_000, 256)
        out = run_sample_sort(values, _config(path=path))
        assert np.array_equal(out.result, np.sort(values))
        assert sanitizer.diagnostics == []

    def test_listrank(self, sanitizer, path):
        from repro.algorithms.listrank import make_random_list, run_list_ranking

        succ = make_random_list(64, seed=5)
        out = run_list_ranking(succ, _config(path=path))
        assert out.ranks.min() == 1 and out.ranks.max() == 64
        assert sanitizer.diagnostics == []


def test_fig7_membank_patterns_clean(sanitizer):
    from repro.experiments import fig7_membank

    result = fig7_membank.run(fast=True)
    assert result.data["rows"]
    assert sanitizer.diagnostics == []


# ----------------------------------------------------------------------
# Seeded bugs are caught, with provenance
# ----------------------------------------------------------------------
def test_rw_conflict_rejected_with_provenance(sanitizer):
    def conflicted(ctx, A):
        ctx.get(A, [1, 2])
        ctx.put(A, [2, 3], [10, 20])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("conflict.A", 16)
    with pytest.raises(SanitizerError) as exc:
        qm.run(conflicted, A=A)
    msg = str(exc.value)
    assert "QS001" in msg
    assert "'conflict.A'" in msg
    assert "cell 2" in msg
    assert "pids [0, 1]" in msg
    # enqueue provenance points into this very test file
    assert "test_check_sanitizer.py" in msg
    diag = exc.value.diagnostic
    assert diag.code == "QS001" and diag.severity == "error"
    assert diag.pids == (0, 1)
    assert all("test_check_sanitizer.py" in o for o in diag.origins)


def test_rw_conflict_warn_mode_reports_and_continues(sanitizer_warn, capsys):
    def conflicted(ctx, A):
        ctx.get(A, [4])
        ctx.put(A, [4], [1])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("warn.A", 8)
    qm.run(conflicted, A=A)  # completes: warn mode never raises
    codes = [d.code for d in sanitizer_warn.diagnostics]
    assert "QS001" in codes
    assert "QS001" in capsys.readouterr().err


def test_multi_writer_reported_with_resolution_order(sanitizer):
    def racy(ctx, A):
        ctx.put(A, [5], [ctx.pid + 100])
        yield ctx.sync()

    qm = QSMMachine(_config(p=4, check_semantics=False))
    A = qm.allocate("race.A", 8)
    qm.run(racy, A=A)  # QS002 is a warning: the run completes in error mode
    diags = [d for d in sanitizer.diagnostics if d.code == "QS002"]
    assert len(diags) == 1
    diag = diags[0]
    assert diag.severity == "warning"
    assert diag.pids == (0, 1, 2, 3)
    assert "apply order" in diag.message and "last listed writer wins" in diag.message
    # small conflicts spell out every contribution and mark the winner
    assert "values per cell" in diag.message
    assert "cell 5: pid 0 put 100, pid 1 put 101, pid 2 put 102, pid 3 put 103 <- winner" in (
        diag.message
    )
    # and the resolution order reported is the one actually applied:
    assert A.data[5] == 103  # pid 3's put applied last


def test_multi_writer_large_conflict_omits_value_dump(sanitizer):
    def racy(ctx, A):
        ctx.put(A, np.arange(16), np.full(16, ctx.pid))
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("race.B", 16)
    qm.run(racy, A=A)
    diag = next(d for d in sanitizer.diagnostics if d.code == "QS002")
    assert "values per cell" not in diag.message  # > _MAX_CELLS_LISTED cells


def test_unsafe_dtype_put_rejected(sanitizer):
    def lossy(ctx, A):
        ctx.put(A, [0], [1.5])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("dtype.A", 4)  # int64
    with pytest.raises(SanitizerError, match="QS003"):
        qm.run(lossy, A=A)


def test_out_of_bounds_put_carries_pid_and_origin(sanitizer):
    def oob(ctx, A):
        ctx.put(A, [99], [1])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("oob.A", 4)
    with pytest.raises(SanitizerError) as exc:
        qm.run(oob, A=A)
    msg = str(exc.value)
    assert "QS004" in msg and "pid 0" in msg and "test_check_sanitizer.py" in msg


def test_out_of_bounds_stays_indexerror_when_disarmed():
    def oob(ctx, A):
        ctx.put(A, [99], [1])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2))
    A = qm.allocate("oob.B", 4)
    with pytest.raises(IndexError):
        qm.run(oob, A=A)


def test_early_handle_read_names_enqueue_site(sanitizer):
    def early(ctx, A):
        h = ctx.get(A, [0])
        with pytest.raises(RuntimeError, match="test_check_sanitizer.py"):
            h.data
        yield ctx.sync()
        assert h.data[0] == 0  # fine after the sync

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("early.A", 4)
    qm.run(early, A=A)


def test_incongruent_alloc_names_missing_pids(sanitizer):
    def lopsided(ctx):
        if ctx.pid == 0:
            ctx.alloc("tmp", 16)
        yield ctx.sync()

    qm = QSMMachine(_config(p=4, check_semantics=False))
    with pytest.raises(SanitizerError) as exc:
        qm.run(lopsided)
    msg = str(exc.value)
    assert "QS005" in msg and "'tmp'" in msg
    assert "pids [0]" in msg and "pids [1, 2, 3]" in msg
    # the alloc call site is named for every participating pid
    diag = exc.value.diagnostic
    assert diag.origins and all("(alloc)" in o for o in diag.origins)
    assert all("test_check_sanitizer.py" in o for o in diag.origins)


def test_incongruent_free_names_call_sites(sanitizer):
    def lopsided(ctx, A):
        if ctx.pid == 0:
            ctx.free(A)
        yield ctx.sync()

    qm = QSMMachine(_config(p=4, check_semantics=False))
    A = qm.allocate("freeme", 16)
    with pytest.raises(SanitizerError) as exc:
        qm.run(lopsided, A=A)
    diag = exc.value.diagnostic
    assert diag.code == "QS005" and "incongruent" in diag.message
    assert diag.origins and all("(free)" in o for o in diag.origins)
    assert all("test_check_sanitizer.py" in o for o in diag.origins)


def test_desync_recorded_alongside_spmderror(sanitizer_warn):
    def quitter(ctx):
        if ctx.pid == 0:
            return
        yield ctx.sync()

    qm = QSMMachine(_config(p=4, check_semantics=False))
    with pytest.raises(SPMDError):
        qm.run(quitter)
    codes = [d.code for d in sanitizer_warn.diagnostics]
    assert "QS007" in codes


def _seeded_bug_programs():
    """One ``(p, program)`` case per seeded-bug shape above."""

    def conflicted(ctx, A):
        ctx.get(A, [1, 2])
        ctx.put(A, [2, 3], [10, 20])
        yield ctx.sync()

    def racy(ctx, A):
        ctx.put(A, [5], [ctx.pid + 100])
        yield ctx.sync()

    def racy_large(ctx, A):
        ctx.put(A, np.arange(16), np.full(16, ctx.pid))
        yield ctx.sync()

    def lossy(ctx, A):
        ctx.put(A, [0], [1.5])
        yield ctx.sync()

    def oob(ctx, A):
        ctx.put(A, [99], [1])
        yield ctx.sync()

    def lopsided(ctx, A):
        if ctx.pid == 0:
            ctx.alloc("tmp", 16)
        yield ctx.sync()

    def quitter(ctx, A):
        if ctx.pid == 0:
            return
        yield ctx.sync()

    return [
        pytest.param(2, conflicted, id="conflicted"),
        pytest.param(4, racy, id="racy"),
        pytest.param(2, racy_large, id="racy_large"),
        pytest.param(2, lossy, id="lossy"),
        pytest.param(2, oob, id="oob"),
        pytest.param(4, lopsided, id="lopsided"),
        pytest.param(4, quitter, id="quitter"),
    ]


@pytest.mark.parametrize("p,program", _seeded_bug_programs())
def test_seeded_bugs_report_identically_on_epoch_and_oracle(sanitizer_warn, p, program):
    """An armed sanitizer keeps the run on the epoch kernel (it reads only
    the realized request queues) and reports exactly what the oracle does."""
    outcomes = {}
    for path in ("epoch", "slow"):
        before = len(sanitizer_warn.diagnostics)
        qm = QSMMachine(_config(p=p, path=path, check_semantics=False))
        A = qm.allocate("seeded", 16)
        try:
            qm.run(program, A=A)
            raised = None
        except Exception as exc:  # the outcome itself is compared
            raised = type(exc).__name__
        outcomes[path] = (raised, sanitizer_warn.diagnostics[before:])
        if path == "epoch":
            counts = qm._engine.path_counts
            assert counts == {"slow": 0, "epoch": counts["epoch"]}
    assert outcomes["epoch"] == outcomes["slow"]
    assert outcomes["epoch"][1], "every seeded bug is reported"


def test_diagnostics_feed_obs_metrics(obs_state, sanitizer_warn):
    def conflicted(ctx, A):
        ctx.get(A, [0])
        ctx.put(A, [0], [1])
        yield ctx.sync()

    qm = QSMMachine(_config(p=2, check_semantics=False))
    A = qm.allocate("metrics.A", 4)
    qm.run(conflicted, A=A)
    assert "check.QS001" in obs.metrics()
    assert obs.metrics().counter("check.QS001").value == 1


# ----------------------------------------------------------------------
# Satellites: enqueue-time validation and charge guards
# ----------------------------------------------------------------------
def test_put_shape_mismatch_is_per_pid_and_named():
    qm = QSMMachine(_config(p=2))
    A = qm.allocate("shape.A", 8)

    def bad(ctx, A):
        ctx.put(A, [0, 1], [1, 2, 3])
        yield ctx.sync()

    with pytest.raises(ValueError) as exc:
        qm.run(bad, A=A)
    msg = str(exc.value)
    assert "shape.A" in msg and "pid" in msg and "2 indices vs 3 values" in msg


def test_put_accepts_matching_size_any_shape():
    qm = QSMMachine(_config(p=1))
    A = qm.allocate("shape.B", 8)

    def ok(ctx, A):
        ctx.put(A, np.array([[0, 1], [2, 3]]), np.array([[10, 11], [12, 13]]))
        yield ctx.sync()

    qm.run(ok, A=A)
    assert list(A.data[:4]) == [10, 11, 12, 13]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_charge_cycles_rejects_nonfinite(value):
    qm = QSMMachine(_config(p=1))

    def prog(ctx):
        ctx.charge_cycles(value)
        yield ctx.sync()

    with pytest.raises(ValueError, match="finite"):
        qm.run(prog)


def test_charge_cycles_rejects_nonfinite_ops():
    qm = QSMMachine(_config(p=1))

    def prog(ctx):
        ctx.charge_cycles(1.0, ops=math.nan)
        yield ctx.sync()

    with pytest.raises(ValueError, match="finite"):
        qm.run(prog)


def test_charge_rejects_nonfinite_profile():
    qm = QSMMachine(_config(p=1))

    def prog(ctx):
        ctx.charge(OpProfile(int_ops=math.inf))
        yield ctx.sync()

    with pytest.raises(ValueError, match="finite"):
        qm.run(prog)


# ----------------------------------------------------------------------
# Disarmed path stays free
# ----------------------------------------------------------------------
def test_disarmed_runs_capture_no_provenance():
    qm = QSMMachine(_config(p=2))
    A = qm.allocate("free.A", 8)

    captured = {}

    def prog(ctx, A):
        h = ctx.get(A, [0])
        captured.setdefault("handles", []).append(h)
        yield ctx.sync()

    qm.run(prog, A=A)
    assert all(h.origin is None for h in captured["handles"])


def test_arm_mode_validated():
    with pytest.raises(ValueError, match="mode"):
        check.arm("explode")
    assert not check.armed()
    assert check.diagnostics() == []
