"""Configuration of the shared-memory library's software layer.

Table 3 of the paper distinguishes raw *hardware* network performance
(g = 3 cycles/byte, o = 400, l = 1600) from the *observed* performance
through the shared-memory library software: 35 cycles/byte for puts,
287 cycles/byte for gets, and a 25500-cycle 16-processor barrier.  The
difference is software: every remote word carries a control record,
marshalling copies data through buffers, and remote get requests pay a
service cost at the owning node.

:class:`SoftwareConfig` parameterises those costs.  The defaults are
calibrated so the *measured* Table 3 experiment of this reproduction
lands on the paper's observed values (see ``EXPERIMENTS.md``); the
calibration is two scalars (``get_service_cycles``,
``barrier_hop_cycles``) — everything else follows from first principles
(header sizes, copy costs through the cache model).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from repro.util.validation import check_nonnegative, check_positive


class SyncPath(str, Enum):
    """How ``sync()`` is priced in the simulator.

    Both paths are bit-identical in every observable timing (the
    equivalence and golden tests pin this); they differ only in how much
    Python the kernel executes per simulated message:

    * ``SLOW`` — the per-message oracle: every chunk is a full
      send-process/wire/receive-engine event chain.  Supports every
      feature (pacing, finite receive buffers, network faults, kernel
      step hooks).
    * ``EPOCH`` — the vectorized epoch kernel: a whole phase is priced
      with numpy array math plus one flat merge loop; the discrete-event
      simulator is only touched to advance the clock at the phase
      boundary.  Falls back to ``SLOW`` automatically whenever a feature
      needs per-message events (see docs/PERFORMANCE.md).
    """

    SLOW = "slow"
    EPOCH = "epoch"


def _resolve_sync_path(sync_path: Union[SyncPath, str, None]) -> SyncPath:
    """Resolve the configured path from the field and the environment.

    Precedence: explicit ``sync_path`` > ``QSM_SYNC_PATH`` env > the
    :attr:`SyncPath.EPOCH` default.  The env read lets whole experiment
    pipelines (including ``--jobs`` workers, which inherit the
    environment) be flipped onto the oracle without threading a config
    through every layer — the equivalence tests and benchmarks rely on
    this; see docs/CHECKING.md.
    """
    if sync_path is not None:
        return SyncPath(sync_path)
    env = os.environ.get("QSM_SYNC_PATH")  # qsmlint: disable=QL107
    if env is not None:
        name = env.strip().lower()
        try:
            return SyncPath(name)
        except ValueError:
            valid = ", ".join(m.value for m in SyncPath)
            raise ValueError(
                f"QSM_SYNC_PATH={env!r} is not a sync path (expected one of: {valid})"
            ) from None
    return SyncPath.EPOCH


@dataclass(frozen=True)
class SoftwareConfig:
    """Costs and formats of the bulk-synchronous library software."""

    #: Size of one shared-memory word.  All shared arrays use 64-bit
    #: elements; per-byte figures divide by this.
    word_bytes: int = 8

    #: Control record attached to every remote word (array id, global
    #: index, destination offset, flags).
    record_header_bytes: int = 16

    #: Fixed header on every aggregated network message.
    message_header_bytes: int = 32

    #: Data/reply messages are split into chunks of at most this many
    #: wire bytes so consecutive chunks pipeline through the send and
    #: receive NIC engines (real transports packetize; without this, a
    #: single huge message would serialise its full send *and* receive
    #: passes back to back).
    max_message_bytes: int = 16384

    #: Per-pair communication-plan entry exchanged before the data phase.
    plan_entry_bytes: int = 24

    #: CPU cycles to marshal one request record into a send buffer
    #: (excluding the payload copy, charged separately).
    marshal_record_cycles: float = 100.0

    #: CPU cycles to decode one record on the receiving side.
    unmarshal_record_cycles: float = 100.0

    #: Extra cycles at the owning node to service one get request:
    #: segment-table lookup, reply buffer management.
    get_service_cycles: float = 1770.0

    #: Software cycles added to each barrier-tree hop (interrupt +
    #: dispatch); calibrated so the 16-processor barrier measures near
    #: the paper's 25500 cycles.
    barrier_hop_cycles: float = 311.0

    #: Fixed per-sync bookkeeping at each node (entering/leaving the
    #: communication phase, resetting queues).
    sync_fixed_cycles: float = 500.0

    #: Idle cycles inserted between consecutive outgoing data/reply
    #: messages — §2's "limit the rate at which nodes send data so that
    #: they do not overrun receiving nodes" (Brewer & Kuszmaul).  0
    #: disables pacing; it only matters on networks with finite receive
    #: buffers (``NetworkConfig.recv_buffer_slots``).
    send_pacing_cycles: float = 0.0

    #: Order in which a node addresses its peers during the exchange.
    #: ``"staggered"`` is the library's contention-avoiding schedule
    #: (round r sends to (pid+r) mod p, so no two nodes target the same
    #: receiver in a round); ``"fixed"`` is the naive 0,1,2,... order
    #: every node shares, kept as an ablation — it funnels the early
    #: rounds into the low-numbered receive engines.
    exchange_schedule: str = "staggered"

    #: Which simulation path prices ``sync()`` — see :class:`SyncPath`.
    #: ``None`` (the default) resolves through the ``QSM_SYNC_PATH``
    #: environment variable, then :attr:`SyncPath.EPOCH`.  After
    #: ``__post_init__`` this is always a :class:`SyncPath` member.
    sync_path: Optional[Union[SyncPath, str]] = None

    def __post_init__(self) -> None:
        # Normalise through the frozen-dataclass wall so downstream code
        # (and repr/asdict) always sees a SyncPath member.
        object.__setattr__(self, "sync_path", _resolve_sync_path(self.sync_path))
        if self.exchange_schedule not in ("staggered", "fixed"):
            raise ValueError(
                f"exchange_schedule must be 'staggered' or 'fixed', "
                f"got {self.exchange_schedule!r}"
            )
        check_positive("word_bytes", self.word_bytes)
        check_positive("max_message_bytes", self.max_message_bytes)
        # check_nonnegative names the field and rejects NaN/inf, which a
        # bare `< 0` comparison would let through into every charge.
        for name in (
            "record_header_bytes",
            "message_header_bytes",
            "plan_entry_bytes",
            "marshal_record_cycles",
            "unmarshal_record_cycles",
            "get_service_cycles",
            "barrier_hop_cycles",
            "sync_fixed_cycles",
            "send_pacing_cycles",
        ):
            check_nonnegative(name, getattr(self, name))

    # -- wire sizing ----------------------------------------------------
    def put_wire_bytes(self, words: int) -> int:
        """Wire bytes for *words* put records including payload."""
        return words * (self.record_header_bytes + self.word_bytes)

    def get_request_wire_bytes(self, words: int) -> int:
        """Wire bytes for *words* get-request records (no payload)."""
        return words * self.record_header_bytes

    def get_reply_wire_bytes(self, words: int) -> int:
        """Wire bytes for *words* get-reply records (header + payload)."""
        return words * (self.record_header_bytes + self.word_bytes)

    def chunk_sizes(self, wire_bytes: int):
        """Split a message body into transport chunks (see
        ``max_message_bytes``); returns the list of chunk payload sizes."""
        if wire_bytes <= 0:
            return []
        full, rest = divmod(wire_bytes, self.max_message_bytes)
        sizes = [self.max_message_bytes] * full
        if rest:
            sizes.append(rest)
        return sizes
