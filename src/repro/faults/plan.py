"""The fault plan: a declarative, validated perturbation schedule.

A :class:`FaultPlan` describes *what* adversity to inject into a
simulated machine — message drops and delay jitter on the wires,
straggling processors, memory-bank stall bursts — without saying *how*:
the runtime side lives in :mod:`repro.faults.state`.  Plans are frozen
and validated at construction (named-field errors, same style as the
charge guards in :mod:`repro.qsmlib.costmodel`), and they round-trip
through a compact ``key=value`` spec string so the CLI ``--faults``
flag and the ``QSM_FAULTS`` environment variable can carry one plan
into every ``--jobs`` worker.

Everything is seeded: two runs with the same plan, machine and run seed
produce bit-identical fault schedules (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

__all__ = ["FaultPlan", "parse_fault_spec"]


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"FaultPlan.{name} must be finite, got {value!r}")


def _check_prob(name: str, value: float) -> None:
    _check_finite(name, value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"FaultPlan.{name} must be a probability in [0, 1), got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected machine faults.

    All fault processes draw from RNG streams derived from ``seed``
    plus the run's own seed, so a plan perturbs *reproducibly*: the
    same plan on the same machine with the same run seed yields the
    same drops, the same jitter, the same stragglers.
    """

    #: Base seed mixed into every fault RNG stream.
    seed: int = 0

    # -- network --------------------------------------------------------
    #: Probability that any one wire crossing is dropped (each
    #: retransmission attempt draws independently).
    drop_prob: float = 0.0

    #: Mean of the exponential extra latency added to each delivery
    #: (0 disables jitter).  Perturbs the paper's ``l`` directly.
    delay_jitter_cycles: float = 0.0

    #: Sender-side timeout before the first retransmission of a
    #: dropped message.
    retransmit_timeout_cycles: float = 4000.0

    #: Multiplier applied to the timeout after each failed attempt.
    retransmit_backoff_factor: float = 2.0

    #: Attempts after the original send before the message is declared
    #: lost and the run fails with :class:`~repro.faults.state.FaultError`.
    max_retransmits: int = 10

    # -- stragglers -----------------------------------------------------
    #: Number of processors to slow down (chosen seeded-uniformly when
    #: ``straggler_pids`` is not given).
    straggler_count: int = 0

    #: Explicit straggler pids (overrides ``straggler_count``).
    straggler_pids: Optional[Tuple[int, ...]] = None

    #: Compute-time multiplier applied to straggler processors
    #: (1.0 = no slowdown).
    straggler_slowdown: float = 1.0

    # -- memory banks (§4 microbenchmarks) ------------------------------
    #: Probability that any one bank access hits a stall burst.
    bank_stall_prob: float = 0.0

    #: Extra service cycles added to a stalled access.
    bank_stall_cycles: float = 5000.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"FaultPlan.seed must be >= 0, got {self.seed!r}")
        _check_prob("drop_prob", self.drop_prob)
        _check_prob("bank_stall_prob", self.bank_stall_prob)
        for name in ("delay_jitter_cycles", "bank_stall_cycles"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value < 0:
                raise ValueError(f"FaultPlan.{name} must be >= 0, got {value!r}")
        _check_finite("retransmit_timeout_cycles", self.retransmit_timeout_cycles)
        if self.retransmit_timeout_cycles <= 0:
            raise ValueError(
                f"FaultPlan.retransmit_timeout_cycles must be > 0, "
                f"got {self.retransmit_timeout_cycles!r}"
            )
        _check_finite("retransmit_backoff_factor", self.retransmit_backoff_factor)
        if self.retransmit_backoff_factor < 1.0:
            raise ValueError(
                f"FaultPlan.retransmit_backoff_factor must be >= 1, "
                f"got {self.retransmit_backoff_factor!r}"
            )
        if self.max_retransmits < 1:
            raise ValueError(
                f"FaultPlan.max_retransmits must be >= 1, got {self.max_retransmits!r}"
            )
        if self.straggler_count < 0:
            raise ValueError(
                f"FaultPlan.straggler_count must be >= 0, got {self.straggler_count!r}"
            )
        _check_finite("straggler_slowdown", self.straggler_slowdown)
        if self.straggler_slowdown < 1.0:
            raise ValueError(
                f"FaultPlan.straggler_slowdown must be >= 1, "
                f"got {self.straggler_slowdown!r}"
            )
        if self.straggler_pids is not None:
            object.__setattr__(self, "straggler_pids", tuple(self.straggler_pids))
            for pid in self.straggler_pids:
                if not isinstance(pid, int) or pid < 0:
                    raise ValueError(
                        f"FaultPlan.straggler_pids must be non-negative ints, "
                        f"got {self.straggler_pids!r}"
                    )

    # ------------------------------------------------------------------
    @property
    def perturbs_network(self) -> bool:
        """Whether this plan touches the wires.  Such a plan clears
        ``Network.ideal_delivery``, which sends every phase to the
        per-message oracle: the epoch kernel cannot model per-message
        random drops or jitter."""
        return self.drop_prob > 0.0 or self.delay_jitter_cycles > 0.0

    @property
    def perturbs_compute(self) -> bool:
        return self.straggler_slowdown > 1.0 and (
            self.straggler_count > 0 or bool(self.straggler_pids)
        )

    @property
    def perturbs_membank(self) -> bool:
        return self.bank_stall_prob > 0.0 and self.bank_stall_cycles > 0.0

    @property
    def is_noop(self) -> bool:
        return not (self.perturbs_network or self.perturbs_compute or self.perturbs_membank)

    # -- spec round-trip ------------------------------------------------
    def to_spec(self) -> str:
        """Canonical ``key=value,...`` form; ``parse_fault_spec``
        inverts it exactly (used to ship the armed plan to ``--jobs``
        workers through ``QSM_FAULTS``)."""
        parts = []
        defaults = {f.name: f.default for f in fields(FaultPlan)}
        for key, name in _SPEC_KEYS.items():
            value = getattr(self, name)
            if value == defaults[name] or (name == "straggler_pids" and value is None):
                continue
            if name == "straggler_pids":
                parts.append(f"{key}={'+'.join(str(pid) for pid in value)}")
            else:
                parts.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.to_spec() or "noop"


#: spec key -> FaultPlan field.
_SPEC_KEYS = {
    "seed": "seed",
    "drop": "drop_prob",
    "jitter": "delay_jitter_cycles",
    "timeout": "retransmit_timeout_cycles",
    "backoff": "retransmit_backoff_factor",
    "retries": "max_retransmits",
    "stragglers": "straggler_count",
    "pids": "straggler_pids",
    "slow": "straggler_slowdown",
    "bankstall": "bank_stall_prob",
    "stallcycles": "bank_stall_cycles",
}
_INT_FIELDS = {"seed", "max_retransmits", "straggler_count"}


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``--faults`` spec string into a validated plan.

    Examples::

        drop=0.05
        drop=0.02,jitter=400,seed=7
        stragglers=2,slow=1.5
        pids=0+3,slow=2.0,bankstall=0.01,stallcycles=8000
    """
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad fault spec item {item!r}: expected key=value "
                f"(keys: {', '.join(sorted(_SPEC_KEYS))})"
            )
        key, _, raw = item.partition("=")
        key = key.strip().lower()
        name = _SPEC_KEYS.get(key)
        if name is None:
            raise ValueError(
                f"unknown fault spec key {key!r} (keys: {', '.join(sorted(_SPEC_KEYS))})"
            )
        raw = raw.strip()
        try:
            if name == "straggler_pids":
                kwargs[name] = tuple(int(tok) for tok in raw.split("+") if tok)
            elif name in _INT_FIELDS:
                kwargs[name] = int(raw)
            else:
                kwargs[name] = float(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for fault spec key {key!r}: {raw!r}") from exc
    return FaultPlan(**kwargs)
