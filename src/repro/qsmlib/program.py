"""The SPMD program driver.

:class:`QSMMachine` is the user-facing entry point: allocate shared
arrays, then :meth:`~QSMMachine.run` a program — a generator function
``program(ctx, **kwargs)`` that every simulated processor executes with
its own :class:`~repro.qsmlib.context.QSMContext`.

The driver advances all ``p`` program generators to their next
``yield ctx.sync()``, aggregates the phase's queued requests into a
communication plan, applies the bulk-synchronous memory semantics and
resumes the programs.  Once every program has returned, it prices each
phase's exchange in the discrete-event simulator (where ``g``, ``o``,
``l`` and the software layer act).  The result is a
:class:`~repro.qsmlib.stats.RunResult` with per-phase measurements —
the raw material of every figure in §3.

A run has two halves, run in sequence.  The *recorded* half — the
program generators, compute charges, observations,
:func:`~repro.qsmlib.plan.build_traffic` and
:func:`~repro.qsmlib.plan.apply_phase_semantics` — reads only the
inputs, the seed, ``p`` and the node and software configs; as in the
paper's library (§3.1.2), a phase's communication plan is fixed before
any of its messages move.  The *priced* half then runs the sync
protocol for every phase in order (:meth:`SyncEngine.execute_phase
<repro.qsmlib.runtime.SyncEngine.execute_phase>`), the only place the
network, the topology and the fault plan act; on the epoch path the
tables of all phases are built first, in one stacked pass.
:meth:`QSMMachine.run` keeps each phase's traffic, so :func:`price_run`
can price a recorded run on another machine without running its
program again; both price through one method.

Errors follow from that order.  A run that raises in its recorded half
— a program exception, an SPMD or semantics violation, a sanitizer
error — prices no phase: the simulator processes no event
(``sim.event_count`` stays 0) and no ``qsm.*`` span is emitted.  An
error of the priced half, such as a message that exhausts its
retransmit budget (:class:`~repro.faults.FaultError`), is raised while
pricing, after the program has run to its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import check
from repro import faults as _faults
from repro.machine.cluster import Machine
from repro.machine.config import FlatTopology, MachineConfig, NetworkConfig
from repro.msg.mp import make_endpoints
from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.context import QSMContext, SharedArrayRef, SyncToken
from repro.qsmlib.costmodel import CommCostModel
from repro.qsmlib.layout import Layout
from repro.qsmlib.plan import (
    PhaseRequests,
    PhaseTraffic,
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

    def recorded(self) -> "RunConfig":
        """This config with the fields only the priced half reads — the
        network, the topology and the fault plan — reset.  Runs of one
        program on configs with equal ``recorded()`` differ only in
        their pricing, so :func:`price_run` can serve one from another."""
        machine = replace(
            self.machine, network=NetworkConfig(), topology=FlatTopology(), faults=None
        )
        return replace(self, machine=machine)


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
        self._endpoints = make_endpoints(self.machine.network)
        self._engine = SyncEngine(self.machine, self._endpoints, self.config.software)
        # Fetched once per machine; None when disarmed (the usual case),
        # so sanitizer support costs one attribute test per phase.  The
        # sanitizer reads only the realized request queues, so it runs
        # alongside either sync path.
        self._sanitizer = check.active()
        self._ran = False
        #: Each recorded phase's traffic, in phase order: what the priced
        #: half reads and, with the :class:`RunResult`, what
        #: :func:`price_run` needs.
        self.traffic: List[PhaseTraffic] = []

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
        # Drawn here rather than in __init__: a machine built only to
        # price a recorded run (price_run) never needs them.
        rngs = RngStreams(self.config.seed, p)
        ctxs = [QSMContext(self.space, pid, rngs[pid], self.machine.cpus[pid]) for pid in range(p)]
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
            result.phases.append(self._record_phase(ctxs, phase_idx, result))
            self._resolve_frees(ctxs)
            phase_idx += 1

        result.trailing_compute_cycles = float(trailing.max()) if p else 0.0
        return self._price(result)

    def _price(self, result: RunResult) -> RunResult:
        """The priced half, shared by :meth:`run` and :func:`price_run`:
        run the sync protocol for every phase of *result*, whose traffic
        is :attr:`traffic`, on this machine, stamp each phase's timings
        on its record, and close the run (event count, observer label
        and fault tally)."""
        engine = self._engine
        for record, traffic, tables in zip(
            result.phases, self.traffic, engine.epoch_tables(self.traffic)
        ):
            timing = engine.execute_phase(
                traffic, record.compute_cycles, traffic.local_words, tables
            )
            record.start, record.ready, record.end = timing.start, timing.ready, timing.end
        result.sim_events = self.machine.sim.event_count
        obs = self.machine.sim.obs
        if obs is not None:
            # Name the sync path(s) the phases actually ran on.
            ran = "+".join(path for path, n in engine.path_counts.items() if n)
            obs.set_label(f"qsm p={self.p} seed={self.config.seed} sync={ran or 'none'}")
            obs.finalize()
        if self.machine.faults is not None:
            _faults.absorb(self.machine.faults)
        return result

    # ------------------------------------------------------------------
    def _record_phase(
        self, ctxs: List[QSMContext], phase_idx: int, result: RunResult
    ) -> PhaseRecord:
        """The recorded half of one phase: checks, compute and
        observations drained, traffic kept in :attr:`traffic` and the
        memory semantics applied.  The record's timings are stamped when
        the run is priced."""
        p = self.p
        queues = [ctx.queue for ctx in ctxs]

        if self._sanitizer is not None:
            # Richer diagnostics (pids, cells, enqueue file:line) than the
            # plain check below; in error mode it raises first.
            self._sanitizer.check_phase(queues, phase_idx)
        # One grouping by kind and target array serves the semantics
        # check, kappa and the traffic count.
        requests = PhaseRequests(queues)
        if self.config.check_semantics:
            check_phase_semantics(requests)
        kappa = compute_kappa(requests) if self.config.track_kappa else None

        drains = [ctx._drain_compute() for ctx in ctxs]
        compute_cycles = np.array([d[0] for d in drains])
        op_counts = np.array([d[1] for d in drains])

        for pid, ctx in enumerate(ctxs):
            for key, value in ctx._drain_observations():
                result.observations.setdefault(key, []).append((phase_idx, pid, value))

        traffic = build_traffic(requests, p)
        record = PhaseRecord(
            index=phase_idx,
            compute_cycles=compute_cycles,
            op_counts=op_counts,
            put_words=traffic.put_words.sum(axis=1),
            get_words=traffic.get_words.sum(axis=1),
            local_words=traffic.local_words.copy(),
            kappa=kappa,
            put_in_words=traffic.put_words.sum(axis=0),
            get_served_words=traffic.get_words.sum(axis=0),
        )
        self.traffic.append(traffic)
        apply_phase_semantics(queues)
        for q in queues:
            q.clear()
        return record

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


def price_run(
    recorded: RunResult, traffic: Sequence[PhaseTraffic], config: RunConfig
) -> RunResult:
    """The run *recorded* would have been on *config*'s machine.

    *recorded* and *traffic* (its machine's :attr:`QSMMachine.traffic`)
    come from a run whose config has the same :meth:`RunConfig.recorded`
    part as *config*; only the priced half runs again, on a fresh
    machine.  The result equals a fresh run on *config* field for field,
    ``sim_events``, fault tally and ``qsm.*`` spans included, and shares
    the recorded run's arrays and observed values.  The recorded half's
    checks (semantics, sanitizer) are not repeated.
    """
    if recorded.p != config.machine.p or recorded.seed != config.seed:
        raise ValueError(
            f"a run recorded at p={recorded.p}, seed={recorded.seed} cannot be "
            f"priced at p={config.machine.p}, seed={config.seed}"
        )
    if len(traffic) != recorded.n_phases:
        raise ValueError(
            f"{len(traffic)} phases of traffic for a run of {recorded.n_phases} phases"
        )
    qm = QSMMachine(config)
    qm._ran = True
    qm.traffic = list(traffic)
    result = RunResult(
        p=recorded.p,
        seed=recorded.seed,
        phases=[replace(phase) for phase in recorded.phases],
        returns=list(recorded.returns),
        observations={key: list(values) for key, values in recorded.observations.items()},
        trailing_compute_cycles=recorded.trailing_compute_cycles,
    )
    return qm._price(result)
