"""The sync engine: one bulk-synchronous exchange in the DES.

Implements §3.1.2's ``sync()``: plan distribution, contention-avoiding
data exchange (puts + get requests, then get replies), and the closing
tree barrier — all as per-node simulation processes so that per-message
overhead ``o``, gap ``g`` and latency ``l`` act where they really act,
and pipelining/batching emerge from the NIC model rather than being
assumed.

Message categories within one sync, in exchange order:

1. ``plan`` — each node tells every other node how many put words and
   get-request words are coming (one small message per ordered pair);
2. ``data`` — one aggregated message per ordered pair carrying all put
   records (header + payload per word) and get-request records;
3. ``reply`` — one aggregated message per ordered pair carrying get
   replies (header + payload per word);
4. ``bar`` — binary-tree barrier with per-hop software cycles.

Marshalling and unmarshalling charge CPU cycles per record plus buffer
copies through the node's cache model — this software layer is what
lifts the observed gap from Table 3's 3 cycles/byte hardware figure to
the measured ~35 (put) and ~287 (get) cycles/byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.machine.cluster import Machine
from repro.msg.collectives import CONTROL_BYTES, _children, _parent
from repro.msg.mp import Endpoint
from repro.qsmlib.config import SoftwareConfig, SyncPath
from repro.qsmlib.epoch import execute_epoch_phase
from repro.qsmlib.plan import PhaseTraffic


@dataclass
class PhaseTiming:
    """DES timestamps of one executed phase."""

    start: float
    ready: float
    end: float


class SyncEngine:
    """Executes phases on one machine; keeps a running sync counter."""

    def __init__(
        self,
        machine: Machine,
        endpoints: Sequence[Endpoint],
        software: SoftwareConfig,
    ) -> None:
        if len(endpoints) != machine.p:
            raise ValueError("one endpoint per node required")
        self.machine = machine
        self.endpoints = endpoints
        self.sw = software
        self._seq = 0
        #: Phases executed per sync path this engine's lifetime — how
        #: tests (and curious users) observe fallback decisions.
        self.path_counts = {path.value: 0 for path in SyncPath}

    # ------------------------------------------------------------------
    def execute_phase(
        self,
        traffic: PhaseTraffic,
        compute_cycles: np.ndarray,
        local_words: np.ndarray,
    ) -> PhaseTiming:
        """Run one phase: local compute, then the full sync protocol.

        ``compute_cycles[pid]`` is the local work charged before this
        sync; ``local_words[pid]`` are requests served without the
        network (they still cost library handling time).
        """
        sim = self.machine.sim
        seq = self._seq
        self._seq += 1

        if self._epoch_eligible():
            self.path_counts["epoch"] += 1
            timing = PhaseTiming(
                *execute_epoch_phase(
                    self.machine, self.sw, traffic, compute_cycles, local_words, seq
                )
            )
        else:
            self.path_counts["slow"] += 1
            timing = self._execute_des(seq, traffic, compute_cycles, local_words)
        obs = sim.obs
        if obs is not None:
            m = obs.metrics
            m.counter("qsm.syncs").inc()
            m.counter("qsm.phase.put.m_rw").inc(int(traffic.put_words.sum()))
            m.counter("qsm.phase.get.m_rw").inc(int(traffic.get_words.sum()))
            m.counter("qsm.phase.local.words").inc(int(traffic.local_words.sum()))
            m.histogram("qsm.phase.comm_cycles").record(timing.end - timing.ready)
            m.histogram("qsm.phase.total_cycles").record(timing.end - timing.start)
        return timing

    def _execute_des(self, seq, traffic, compute_cycles, local_words) -> PhaseTiming:
        """The per-message oracle: one simulation process per node."""
        sim = self.machine.sim
        p = self.machine.p
        start = sim.now
        ready_times = np.zeros(p)
        procs = [
            sim.process(
                self._node_proc(
                    pid,
                    seq,
                    traffic,
                    float(compute_cycles[pid]),
                    int(local_words[pid]),
                    ready_times,
                )
            )
            for pid in range(p)
        ]
        sim.run()
        for proc in procs:
            if not proc.triggered:
                faults = self.machine.faults
                if faults is not None and faults.fatal is not None:
                    # A message exceeded its retransmit budget; the
                    # phase can never complete — surface the injected
                    # fault instead of a generic deadlock.
                    raise faults.fatal
                raise RuntimeError("sync deadlocked: a node never completed the phase")
            proc.value  # re-raise any node failure
        return PhaseTiming(start=start, ready=float(ready_times.max()), end=sim.now)

    # ------------------------------------------------------------------
    def _epoch_eligible(self) -> bool:
        """Whether this phase may run on the vectorized epoch kernel.

        Every condition is a feature that needs per-message events: send
        pacing interleaves timeouts between chunks; finite receive
        buffers and network fault plans (``ideal_delivery``) depend on
        instantaneous per-message state; a kernel step hook wants to see
        every event.  Any of them degrades epoch to the per-message
        oracle — see the path-selection matrix in docs/PERFORMANCE.md.
        """
        return (
            self.sw.sync_path is SyncPath.EPOCH
            and not self.sw.send_pacing_cycles
            and self.machine.network.ideal_delivery
            and self.machine.sim._step_hook is None
        )

    # ------------------------------------------------------------------
    def _node_proc(
        self,
        pid: int,
        seq: int,
        traffic: PhaseTraffic,
        compute: float,
        local_words: int,
        ready_times: np.ndarray,
    ):
        sim = self.machine.sim
        sw = self.sw
        ep = self.endpoints[pid]
        cpu = self.machine.cpus[pid]
        p = self.machine.p
        # One load + branch per segment when observability is off; the
        # segments partition [phase start, node done] exactly, which is
        # what lets the exported trace reconcile against PhaseRecord
        # timings (see docs/OBSERVABILITY.md).
        obs = sim.obs
        if obs is not None:
            phase_span = obs.begin("qsm.phase", pid, phase=seq)
            seg = obs.begin("qsm.compute", pid)

        # -- local computation of the phase body -------------------------
        faults = self.machine.faults
        if faults is not None:
            compute += faults.compute_penalty(pid, compute)
        if compute > 0:
            yield sim.timeout(compute)
        ready_times[pid] = sim.now

        # -- sync entry: bookkeeping + locally-served requests ------------
        if obs is not None:
            obs.end(seg)
            seg = obs.begin("qsm.entry", pid, local_words=local_words)
        overhead = sw.sync_fixed_cycles + local_words * (
            sw.marshal_record_cycles + cpu.copy_cycles(sw.word_bytes, resident=True)
        )
        if overhead > 0:
            yield sim.timeout(overhead)

        if p == 1:
            if obs is not None:
                obs.end(seg)
                obs.end(phase_span)
            return

        # Each stage reserves its messages' places in the arrival order
        # the moment it starts sending (sim.reserve), which is when the
        # epoch kernel pushes its arrival entries: same-instant arrivals
        # at one receive resource then queue identically on both paths.

        # -- 1. plan exchange ---------------------------------------------
        if obs is not None:
            obs.end(seg)
            seg = obs.begin("qsm.plan", pid)
        peers = self._peer_order(pid, p)
        plan_bytes = sw.message_header_bytes + sw.plan_entry_bytes
        for dst, order in zip(peers, sim.reserve(p - 1)):
            yield from ep.send(dst, ("plan", seq), plan_bytes, order=order)
        for _ in range(1, p):
            yield from ep.recv(tag=("plan", seq))

        # -- 2. data messages: puts + get requests --------------------------
        if obs is not None:
            obs.end(seg)
            seg = obs.begin(
                "qsm.data",
                pid,
                put_words=int(traffic.put_words[pid].sum()),
                get_req_words=int(traffic.get_words[pid].sum()),
            )
        sends = []
        for dst in peers:
            w_put = int(traffic.put_words[pid, dst])
            w_req = int(traffic.get_words[pid, dst])
            if w_put or w_req:
                marshal = (w_put + w_req) * sw.marshal_record_cycles + cpu.copy_cycles(
                    w_put * sw.word_bytes
                )
                wire = sw.put_wire_bytes(w_put) + sw.get_request_wire_bytes(w_req)
                sends.append((dst, marshal, sw.chunk_sizes(wire)))
        yield from self._send_stage(ep, ("data", seq), sends)

        expected_chunks = 0
        unmarshal_total = 0.0
        for src in traffic.expected_data_sources(pid):
            w_put = int(traffic.put_words[src, pid])
            w_req = int(traffic.get_words[src, pid])
            wire = sw.put_wire_bytes(w_put) + sw.get_request_wire_bytes(w_req)
            expected_chunks += len(sw.chunk_sizes(wire))
            unmarshal_total += (
                (w_put + w_req) * sw.unmarshal_record_cycles
                + cpu.copy_cycles(w_put * sw.word_bytes)
                + w_req * sw.get_service_cycles
            )
        for _ in range(expected_chunks):
            yield from ep.recv(tag=("data", seq))
        if unmarshal_total:
            yield sim.timeout(unmarshal_total)

        # -- 3. get replies -------------------------------------------------
        if obs is not None:
            obs.end(seg)
            seg = obs.begin(
                "qsm.reply", pid, reply_words=int(traffic.get_words[:, pid].sum())
            )
        sends = []
        for dst in peers:
            w = int(traffic.get_words[dst, pid])
            if w:
                marshal = w * sw.marshal_record_cycles + cpu.copy_cycles(w * sw.word_bytes)
                sends.append((dst, marshal, sw.chunk_sizes(sw.get_reply_wire_bytes(w))))
        yield from self._send_stage(ep, ("reply", seq), sends)

        expected_chunks = 0
        unmarshal_total = 0.0
        for src in traffic.expected_reply_sources(pid):
            w = int(traffic.get_words[pid, src])
            expected_chunks += len(sw.chunk_sizes(sw.get_reply_wire_bytes(w)))
            unmarshal_total += w * sw.unmarshal_record_cycles + cpu.copy_cycles(
                w * sw.word_bytes
            )
        for _ in range(expected_chunks):
            yield from ep.recv(tag=("reply", seq))
        if unmarshal_total:
            yield sim.timeout(unmarshal_total)

        # -- 4. closing barrier ----------------------------------------------
        if obs is not None:
            obs.end(seg)
            seg = obs.begin("qsm.barrier", pid)
        yield from self._barrier(ep, p, ("bar", seq))
        if obs is not None:
            obs.end(seg)
            obs.end(phase_span)

    def _send_stage(self, ep: Endpoint, tag, sends):
        """Marshal and send one stage's ``(dst, marshal, chunks)`` list,
        its chunks' arrival places reserved up front."""
        sim = self.machine.sim
        sw = self.sw
        orders = iter(sim.reserve(sum(len(chunks) for _, _, chunks in sends)))
        for dst, marshal, chunks in sends:
            yield sim.timeout(marshal)
            for chunk in chunks:
                if sw.send_pacing_cycles:
                    yield sim.timeout(sw.send_pacing_cycles)
                yield from ep.send(
                    dst, tag, sw.message_header_bytes + chunk, order=next(orders)
                )

    def _peer_order(self, pid: int, p: int):
        """Destination order for this node's sends (see
        :attr:`~repro.qsmlib.config.SoftwareConfig.exchange_schedule`)."""
        if self.sw.exchange_schedule == "staggered":
            return [(pid + r) % p for r in range(1, p)]
        return [d for d in range(p) if d != pid]

    def _barrier(self, ep: Endpoint, p: int, seq) -> object:
        """Tree barrier with software per-hop cycles (the measured L)."""
        sim = self.machine.sim
        hop = self.sw.barrier_hop_cycles
        pid = ep.pid
        up = (seq, "up")
        down = (seq, "down")
        for child in _children(pid, p):
            yield from ep.recv(src=child, tag=up)
            if hop:
                yield sim.timeout(hop)
        if pid != 0:
            if hop:
                yield sim.timeout(hop)
            yield from ep.send(_parent(pid), up, CONTROL_BYTES, order=sim.reserve(1)[0])
            yield from ep.recv(src=_parent(pid), tag=down)
            if hop:
                yield sim.timeout(hop)
        for child in _children(pid, p):
            if hop:
                yield sim.timeout(hop)
            yield from ep.send(child, down, CONTROL_BYTES, order=sim.reserve(1)[0])
