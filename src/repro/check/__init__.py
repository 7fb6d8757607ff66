"""``repro.check`` — correctness tooling for the QSM reproduction.

The paper's QSM contract (§2) only holds for programs that obey the
phase discipline: no shared cell is both read and written within one
phase, get results are consumed only after the owning ``sync()``, and
collective calls (``alloc``/``free``/``sync``) stay congruent across
processors.  §4's "ignore h_r, randomise the layout" argument assumes
the runtime can rely on that discipline.  Nothing in the measured
figures is meaningful for a program that silently violates it, so this
package enforces it twice:

* a **runtime phase-conflict sanitizer**
  (:mod:`repro.check.sanitizer`) that shadows every
  :class:`~repro.qsmlib.requests.RequestQueue` at sync time and raises
  (or warns) with per-pid provenance — the program ``file:line`` that
  enqueued each offending request;
* a **static determinism lint** (:mod:`repro.check.lint`, runnable as
  ``python -m repro.check.lint src/repro``) that flags wall-clock and
  global-RNG use in model code, unordered iteration feeding event
  ordering, premature get-handle reads, and general hygiene;
* a **static phase analyzer** (:mod:`repro.check.phases`, runnable as
  ``python -m repro.check.phases src/repro/algorithms``) that proves
  the same contract *symbolically for all p*: it splits each SPMD
  program into phases at ``yield ctx.sync()``, abstracts every index
  expression into an affine region over ``(p, pid, n, block)``, and
  emits ``QSA###`` findings plus symbolic per-phase cost profiles
  cross-checked against :mod:`repro.predict.sources`.

Overhead contract
-----------------
Like :mod:`repro.obs`, the sanitizer is **off by default** and must
stay near free when off: the qsmlib integration fetches the active
sanitizer once per machine/queue and guards with ``is not None`` — a
disarmed run pays one load + branch per *enqueue call site*, never per
simulated event.  The budget is enforced by
``benchmarks/bench_check.py`` (< 3% vs the committed baseline).

Usage
-----
::

    from repro import check

    check.arm("error")          # or QSM_SANITIZE=error in the environment
    run_sample_sort(...)        # raises SanitizerError on a QSM violation
    check.disarm()

``check.arm("warn")`` reports diagnostics on stderr (and through
``repro.obs`` counters when observability is enabled) without raising.
State is process-global (the ``QSM_OBS`` / ``QSM_SYNC_PATH`` idiom) so
``--jobs N`` worker processes inherit the armed mode through the
``QSM_SANITIZE`` environment variable.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.check.sanitizer import Diagnostic, PhaseSanitizer, SanitizerError

__all__ = [
    "Diagnostic",
    "PhaseSanitizer",
    "SanitizerError",
    "ENV_VAR",
    "MODES",
    "arm",
    "disarm",
    "armed",
    "active",
    "mode",
    "diagnostics",
    "drain_diagnostics",
    "merge_diagnostics",
]

#: Env var that arms the sanitizer for a whole process tree.
ENV_VAR = "QSM_SANITIZE"
#: Accepted sanitizer modes.
MODES = ("error", "warn")

_SANITIZER: Optional[PhaseSanitizer] = None


def arm(mode: str = "error", *, sanitizer: Optional[PhaseSanitizer] = None) -> PhaseSanitizer:
    """Arm the runtime sanitizer (fresh state).

    ``"error"`` raises :class:`SanitizerError` on the first
    error-severity diagnostic; ``"warn"`` records and reports every
    diagnostic without raising.  A custom *sanitizer* instance (e.g. a
    recording subclass, see :mod:`repro.check.validate`) may be
    installed instead of a fresh :class:`PhaseSanitizer`; its ``mode``
    is forced to *mode*.
    """
    global _SANITIZER
    if mode not in MODES:
        raise ValueError(f"sanitize mode must be one of {MODES}, got {mode!r}")
    if sanitizer is None:
        sanitizer = PhaseSanitizer(mode)
    else:
        sanitizer.mode = mode
    _SANITIZER = sanitizer
    os.environ[ENV_VAR] = mode
    return _SANITIZER


def disarm() -> None:
    """Disarm the sanitizer and drop any recorded diagnostics."""
    global _SANITIZER
    _SANITIZER = None
    os.environ[ENV_VAR] = "0"


def armed() -> bool:
    """Whether the sanitizer is currently armed."""
    return _SANITIZER is not None


def active() -> Optional[PhaseSanitizer]:
    """The armed sanitizer, or ``None`` — model code guards on this."""
    return _SANITIZER


def mode() -> Optional[str]:
    return _SANITIZER.mode if _SANITIZER is not None else None


def diagnostics() -> List[Diagnostic]:
    """Diagnostics recorded since :func:`arm` (empty when disarmed)."""
    if _SANITIZER is None:
        return []
    return list(_SANITIZER.diagnostics)


def drain_diagnostics() -> List[Diagnostic]:
    """Return and clear the recorded diagnostics (the worker side of
    the ``--jobs`` protocol, mirroring :func:`repro.obs.drain_payload`).

    :class:`Diagnostic` is a frozen dataclass of plain values, so the
    returned list pickles across the executor result channel.
    """
    if _SANITIZER is None:
        return []
    out = list(_SANITIZER.diagnostics)
    _SANITIZER.diagnostics.clear()
    return out


def merge_diagnostics(diags: List[Diagnostic]) -> None:
    """Fold drained worker diagnostics into this process's sanitizer
    (the parent side of the ``--jobs`` protocol).

    A no-op when disarmed — matching :func:`repro.obs.merge_payload`,
    which drops payloads once collection is off.
    """
    if _SANITIZER is None or not diags:
        return
    _SANITIZER.diagnostics.extend(diags)


# Honour QSM_SANITIZE at import so spawned worker processes (which
# re-import rather than fork) come up armed, mirroring repro.obs.
_env = os.environ.get(ENV_VAR, "").strip().lower()
if _env in MODES:
    arm(_env)
