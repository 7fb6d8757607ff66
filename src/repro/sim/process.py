"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects; the process sleeps until the
yielded event fires, at which point the event's value is sent back into
the generator.  A process is itself an event that fires (with the
generator's return value) when the generator finishes, so processes can
wait on each other.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


class Process(Event):
    """A running simulation process (also awaitable as an event)."""

    __slots__ = ("_gen", "name")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: start the generator at the current instant.  A bare
        # deferred callback costs one queue entry, same as the old
        # throwaway start Event, but no Event allocation.
        sim.defer(0, self._start)

    def _start(self) -> None:
        self._step(event=None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # ------------------------------------------------------------------
    def _step(self, event: Event | None = None) -> None:
        """Resume the generator with *event*'s outcome (``None``: start it)."""
        try:
            if event is not None and not event.ok:
                target = self._gen.throw(event._exc)  # type: ignore[arg-type]
            else:
                target = self._gen.send(event.value if event is not None else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
                )
            )
            return
        # Inlined target.add_callback(self._step): `callbacks is None`
        # means the event was already processed, so resume immediately.
        cbs = target.callbacks
        if cbs is None:
            self._step(target)
        else:
            cbs.append(self._step)
