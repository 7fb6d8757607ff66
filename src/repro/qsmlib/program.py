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
network, the topology and the fault plan act.  On the epoch path a
pricing reads the run's chunk layout
(:class:`~repro.qsmlib.costmodel.ChunkLayout`: chunk counts,
destinations, byte sizes, marshal gaps, unmarshal and entry charges),
which the recorded half decides and which is built once per program,
and prices only what its network and topology add, for all phases in
one stacked pass.  :meth:`QSMMachine.run` keeps each phase's traffic,
with the config it was recorded on and its layout, as a
:class:`Recording`, so :func:`price_run` can price a recorded run on
another machine without running its program again; both price through
one function.

Errors follow from that order.  A run that raises in its recorded half
— a program exception, an SPMD or semantics violation, a sanitizer
error — prices no phase: the simulator processes no event
(``sim.event_count`` stays 0) and no ``qsm.*`` span is emitted.  An
error of the priced half, such as a message that exhausts its
retransmit budget (:class:`~repro.faults.FaultError`), is raised while
pricing, after the program has run to its end.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import check
from repro import faults as _faults
from repro.machine.cluster import Machine
from repro.machine.config import FlatTopology, MachineConfig, NetworkConfig
from repro.machine.cpu import CPUModel
from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.config import SoftwareConfig, default_software
from repro.qsmlib.context import QSMContext, SharedArrayRef, SyncToken
from repro.qsmlib.costmodel import ChunkLayout, CommCostModel
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
    software: SoftwareConfig = field(default_factory=default_software)
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
        machine = replace(self.machine, network=_NETWORK, topology=_FLAT, faults=None)
        return replace(self, machine=machine)


#: What :meth:`RunConfig.recorded` resets the priced fields to: one
#: object each, so their key fragments are lowered once
#: (:mod:`repro.store.keys`).
_NETWORK = NetworkConfig()
_FLAT = FlatTopology()

#: Besides the fields :meth:`RunConfig.recorded` resets, the one field a
#: pricing may change: the sync path only picks how a phase is priced
#: (the paths are bit-identical by contract).
_SYNC_PATH = "software.sync_path"


def _first_difference(a: Any, b: Any, path: str = "") -> Optional[str]:
    """The dotted name of the first field other than the sync path in
    which configs *a* and *b* differ, or ``None``.  Values compare by
    type and ``repr``, so ``0.0`` and ``-0.0``, or ``1`` and ``1.0``,
    differ."""
    if a is b or path == _SYNC_PATH:
        return None
    if is_dataclass(a) and type(a) is type(b):
        for f in fields(a):
            found = _first_difference(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}" if path else f.name
            )
            if found is not None:
                return found
        return None
    return None if type(a) is type(b) and repr(a) == repr(b) else path


class Recording(collections.abc.Sequence):
    """The recorded half of one run, as :func:`price_run` reads it.

    It holds the :class:`RunConfig` the run was recorded on
    (:attr:`config`) and the run's
    :class:`~repro.qsmlib.costmodel.ChunkLayout` (:attr:`layout`), which
    keeps every phase's traffic in compact form.  As a sequence it is
    each phase's :class:`~repro.qsmlib.plan.PhaseTraffic`, in phase
    order, rebuilt on access: only the per-message oracle and the
    ``qsm.*`` spans read the matrices.
    """

    __slots__ = ("config", "layout")

    def __init__(self, traffic: Sequence[PhaseTraffic], config: RunConfig) -> None:
        self.config = config
        self.layout = ChunkLayout(
            traffic, config.software, CPUModel.for_node(config.machine.node)
        )

    def __len__(self) -> int:
        return self.layout.phases

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return self.layout.traffic(range(len(self))[index])


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
        self._engine = SyncEngine(self.machine, None, self.config.software)
        # Fetched once per machine; None when disarmed (the usual case),
        # so sanitizer support costs one attribute test per phase.  The
        # sanitizer reads only the realized request queues, so it runs
        # alongside either sync path.
        self._sanitizer = check.active()
        self._ran = False
        #: Each recorded phase's traffic, in phase order: a list while
        #: the program runs, then the run's :class:`Recording`, which the
        #: priced half reads and, with the :class:`RunResult`,
        #: :func:`price_run` needs.
        self.traffic: Sequence[PhaseTraffic] = []

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
        self.traffic = Recording(self.traffic, self.config)
        return _price(self.machine, self._engine, self.traffic, result, self.config.seed)

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


def _price(
    machine: Machine, engine: SyncEngine, recording: Recording, result: RunResult, seed: int
) -> RunResult:
    """The priced half, shared by :meth:`QSMMachine.run` and
    :func:`price_run`: run the sync protocol for every phase of *result*,
    whose recorded half is *recording*, on *machine*, stamp each phase's
    timings on its record, and close the run (event count, observer
    label and fault tally).  A phase's traffic matrices are rebuilt
    only for the per-message oracle and the ``qsm.*`` spans; the epoch
    kernel reads its tables."""
    layout = recording.layout
    spans = machine.sim.obs is not None
    for i, (record, tables) in enumerate(zip(result.phases, engine.epoch_tables(layout))):
        traffic = recording[i] if tables is None or spans else None
        timing = engine.execute_phase(traffic, record.compute_cycles, layout.local[i], tables)
        record.start, record.ready, record.end = timing.start, timing.ready, timing.end
    result.sim_events = machine.sim.event_count
    obs = machine.sim.obs
    if obs is not None:
        # Name the sync path(s) the phases actually ran on.
        ran = "+".join(path for path, n in engine.path_counts.items() if n)
        obs.set_label(f"qsm p={machine.p} seed={seed} sync={ran or 'none'}")
        obs.finalize()
    if machine.faults is not None:
        _faults.absorb(machine.faults)
    return result


def price_run(recorded: RunResult, traffic: Recording, config: RunConfig) -> RunResult:
    """The run *recorded* would have been on *config*'s machine.

    *recorded* and *traffic* (its machine's :attr:`QSMMachine.traffic`,
    a :class:`Recording`) come from a run whose config has the same
    :meth:`RunConfig.recorded` part as *config*, the sync path aside;
    a field that differs raises :class:`ValueError` naming it.  Only the
    priced half runs again, on a fresh machine, and none of the recorded
    half's machinery (address space, contexts, endpoints) is built.  The
    result equals a fresh run on *config* field for field,
    ``sim_events``, fault tally and ``qsm.*`` spans included.  It has
    its own phase records and lists (:meth:`RunResult.shallow_copy`) and
    shares the recorded run's arrays and observed values.  The recorded
    half's checks (semantics, sanitizer) are not repeated.
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
    if not isinstance(traffic, Recording):
        raise TypeError("price_run needs the Recording a QSMMachine run leaves in .traffic")
    differs = _first_difference(traffic.config.recorded(), config.recorded())
    if differs is not None:
        was, now = (_field(c, differs) for c in (traffic.config, config))
        raise ValueError(
            f"a run recorded with {differs}={was!r} cannot be priced with {differs}={now!r}"
        )
    machine = Machine(config.machine, fault_salt=config.seed)
    engine = SyncEngine(machine, None, config.software)
    return _price(machine, engine, traffic, recorded.shallow_copy(), config.seed)


def _field(config: Any, path: str) -> Any:
    for name in path.split("."):
        config = getattr(config, name)
    return config
