"""The SPMD program driver.

:class:`QSMMachine` is the user-facing entry point: allocate shared
arrays, then :meth:`~QSMMachine.run` a program — a generator function
``program(ctx, **kwargs)`` that every simulated processor executes with
its own :class:`~repro.qsmlib.context.QSMContext`.

The driver advances all ``p`` program generators to their next
``yield ctx.sync()``, aggregates the phase's queued requests into a
communication plan, executes the exchange in the discrete-event
simulator (where ``g``, ``o``, ``l`` and the software layer act), then
applies the bulk-synchronous memory semantics and resumes the programs.
The result is a :class:`~repro.qsmlib.stats.RunResult` with per-phase
measurements — the raw material of every figure in §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import check
from repro import faults as _faults
from repro.machine.cluster import Machine
from repro.machine.config import MachineConfig
from repro.msg.mp import make_endpoints
from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.context import QSMContext, SharedArrayRef, SyncToken
from repro.qsmlib.costmodel import CommCostModel
from repro.qsmlib.layout import Layout
from repro.qsmlib.plan import (
    apply_phase_semantics,
    build_traffic,
    check_phase_semantics,
    compute_kappa,
)
from repro.qsmlib.runtime import SyncEngine
from repro.qsmlib.stats import PhaseRecord, RunResult
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class RunConfig:
    """Everything that parameterises one simulated run."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    software: SoftwareConfig = field(default_factory=SoftwareConfig)
    seed: int = 0
    #: Enforce §2 semantics (no read+write of one word in a phase).
    check_semantics: bool = True
    #: Record QSM's kappa each phase (costs one pass over touched words).
    track_kappa: bool = False


class SPMDError(RuntimeError):
    """The per-processor programs did not stay in lock-step."""


class QSMMachine:
    """A simulated QSM machine ready to run one program."""

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config or RunConfig()
        self.p = self.config.machine.p
        # The run seed salts the fault RNG streams so every sweep point
        # draws its own reproducible fault schedule.
        self.machine = Machine(self.config.machine, fault_salt=self.config.seed)
        self.space = AddressSpace(self.p, default_salt=self.config.seed)
        self.rngs = RngStreams(self.config.seed, self.p)
        self._endpoints = make_endpoints(self.machine.network)
        self._engine = SyncEngine(self.machine, self._endpoints, self.config.software)
        # Fetched once per machine; None when disarmed (the usual case),
        # so sanitizer support costs one attribute test per phase.  The
        # sanitizer reads only the realized request queues, so it runs
        # alongside either sync path.
        self._sanitizer = check.active()
        self._ran = False

    # ------------------------------------------------------------------
    def allocate(
        self,
        name: str,
        n: int,
        layout: Layout = Layout.BLOCKED,
        dtype=np.int64,
    ) -> SharedArray:
        """Pre-register a shared array before the program starts.

        Use this for program inputs/outputs; temporaries should be
        allocated collectively inside the program via ``ctx.alloc``.
        """
        return self.space.allocate(name, n, layout=layout, dtype=dtype)

    def cost_model(self) -> CommCostModel:
        """The analytic communication cost model matching this machine."""
        return CommCostModel.for_machine(
            self.config.machine.network,
            self.config.software,
            self.machine.cpus[0],
            topology=self.config.machine.topology,
        )

    # ------------------------------------------------------------------
    def run(self, program: Callable, **program_kwargs: Any) -> RunResult:
        """Execute *program* SPMD on all processors; returns measurements."""
        if self._ran:
            raise RuntimeError("a QSMMachine can run exactly one program; create a new one")
        self._ran = True

        p = self.p
        ctxs = [
            QSMContext(self.space, pid, self.rngs[pid], self.machine.cpus[pid])
            for pid in range(p)
        ]
        if self._sanitizer is not None:
            for ctx in ctxs:
                ctx.queue.sanitizer = self._sanitizer
        gens = [program(ctxs[pid], **program_kwargs) for pid in range(p)]
        for pid, gen in enumerate(gens):
            if not hasattr(gen, "send"):
                raise TypeError(
                    f"program must be a generator function (processor {pid} "
                    f"returned {type(gen).__name__}); did you forget a yield?"
                )

        result = RunResult(p=p, seed=self.config.seed, returns=[None] * p)
        finished = [False] * p
        trailing = np.zeros(p)
        phase_idx = 0

        while True:
            syncing: List[int] = []
            for pid in range(p):
                if finished[pid]:
                    continue
                try:
                    token = gens[pid].send(None)
                except StopIteration as stop:
                    finished[pid] = True
                    result.returns[pid] = stop.value
                    if not ctxs[pid].queue.empty:
                        raise SPMDError(
                            f"processor {pid} finished with unsynchronized "
                            "get/put requests pending; end programs with a sync"
                        )
                    trailing[pid], _ = ctxs[pid]._drain_compute()
                    continue
                if not isinstance(token, SyncToken):
                    raise TypeError(
                        f"processor {pid} yielded {token!r}; programs must "
                        "yield ctx.sync()"
                    )
                syncing.append(pid)

            if not syncing:
                break
            if len(syncing) != p:
                stragglers = [pid for pid in range(p) if finished[pid]]
                if self._sanitizer is not None:
                    self._sanitizer.note_desync(stragglers, syncing, phase_idx)
                raise SPMDError(
                    f"program is not SPMD: processors {stragglers} finished "
                    f"while {syncing} are still synchronizing (phase {phase_idx})"
                )

            if self._sanitizer is not None:
                self._sanitizer.check_collectives(ctxs, phase_idx)
            self._resolve_allocs(ctxs)
            record = self._execute_phase(ctxs, phase_idx, result)
            result.phases.append(record)
            self._resolve_frees(ctxs)
            phase_idx += 1

        result.trailing_compute_cycles = float(trailing.max()) if p else 0.0
        result.sim_events = self.machine.sim.event_count
        obs = self.machine.sim.obs
        if obs is not None:
            # Name the sync path(s) the phases actually ran on.
            ran = "+".join(path for path, n in self._engine.path_counts.items() if n)
            obs.set_label(f"qsm p={self.p} seed={self.config.seed} sync={ran or 'none'}")
            obs.finalize()
        if self.machine.faults is not None:
            _faults.absorb(self.machine.faults)
        return result

    # ------------------------------------------------------------------
    def _execute_phase(
        self, ctxs: List[QSMContext], phase_idx: int, result: RunResult
    ) -> PhaseRecord:
        p = self.p
        queues = [ctx.queue for ctx in ctxs]

        if self._sanitizer is not None:
            # Richer diagnostics (pids, cells, enqueue file:line) than the
            # plain check below; in error mode it raises first.
            self._sanitizer.check_phase(queues, phase_idx)
        if self.config.check_semantics:
            check_phase_semantics(queues)
        kappa = compute_kappa(queues) if self.config.track_kappa else None

        drains = [ctx._drain_compute() for ctx in ctxs]
        compute_cycles = np.array([d[0] for d in drains])
        op_counts = np.array([d[1] for d in drains])

        for pid, ctx in enumerate(ctxs):
            for key, value in ctx._drain_observations():
                result.observations.setdefault(key, []).append((phase_idx, pid, value))

        traffic = build_traffic(queues, p)
        timing = self._engine.execute_phase(traffic, compute_cycles, traffic.local_words)
        apply_phase_semantics(queues)
        for q in queues:
            q.clear()

        return PhaseRecord(
            index=phase_idx,
            compute_cycles=compute_cycles,
            op_counts=op_counts,
            put_words=traffic.put_words.sum(axis=1),
            get_words=traffic.get_words.sum(axis=1),
            local_words=traffic.local_words.copy(),
            kappa=kappa,
            put_in_words=traffic.put_words.sum(axis=0),
            get_served_words=traffic.get_words.sum(axis=0),
            start=timing.start,
            ready=timing.ready,
            end=timing.end,
        )

    def _resolve_allocs(self, ctxs: List[QSMContext]) -> None:
        """Collectively register arrays requested via ctx.alloc this phase."""
        names = set()
        for ctx in ctxs:
            names.update(ctx._alloc_requests)
        for name in sorted(names):
            specs = {}
            for ctx in ctxs:
                if name not in ctx._alloc_requests:
                    raise SPMDError(
                        f"processor {ctx.pid} did not participate in the "
                        f"collective alloc of {name!r}"
                    )
                specs[ctx.pid] = ctx._alloc_requests[name][0]
            if len(set(specs.values())) != 1:
                raise SPMDError(f"processors disagree on the spec of alloc {name!r}")
            n, layout, dtype = next(iter(specs.values()))
            arr = self.space.allocate(name, n, layout=layout, dtype=dtype)
            for ctx in ctxs:
                ctx._alloc_requests[name][1]._bind(arr)
                del ctx._alloc_requests[name]

    def _resolve_frees(self, ctxs: List[QSMContext]) -> None:
        """Collectively unregister arrays requested via ctx.free this phase."""
        per_pid: Dict[int, set] = {}
        for ctx in ctxs:
            targets = set()
            for item, _origin in ctx._free_requests:
                arr = item.array if isinstance(item, SharedArrayRef) else item
                targets.add(arr.aid)
            per_pid[ctx.pid] = targets
            ctx._free_requests = []
        reference = per_pid[0]
        for pid, targets in per_pid.items():
            if targets != reference:
                raise SPMDError(
                    f"processor {pid} freed a different set of arrays than processor 0"
                )
        for aid in sorted(reference):
            self.space.unregister(self.space.get(aid))


def run_program(
    program: Callable,
    config: Optional[RunConfig] = None,
    setup: Optional[Callable[[QSMMachine], Dict[str, Any]]] = None,
    **program_kwargs: Any,
) -> RunResult:
    """One-shot convenience: build a machine, optionally set up arrays, run.

    *setup* receives the fresh :class:`QSMMachine` and may return a dict
    of extra keyword arguments (typically the arrays it allocated) that
    is merged into the program's kwargs.
    """
    qm = QSMMachine(config)
    if setup is not None:
        extra = setup(qm) or {}
        overlap = set(extra) & set(program_kwargs)
        if overlap:
            raise ValueError(f"setup() and caller both supplied kwargs: {sorted(overlap)}")
        program_kwargs = {**program_kwargs, **extra}
    return qm.run(program, **program_kwargs)
