"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based discrete-event engine in the
style of SimPy, specialised for this reproduction:

* virtual time is measured in **CPU cycles** (floats are accepted, the
  default workloads use integers),
* scheduling is fully deterministic: ties in time are broken by a
  monotone sequence number, so a run is a pure function of its inputs
  and seeds,
* processes are plain Python generators that ``yield`` :class:`Event`
  objects (timeouts, resource grants, store gets, other processes).

The multiprocessor network model (:mod:`repro.machine.network`) and the
message-passing layer (:mod:`repro.msg`) are built on this kernel.  The
memory-bank microbenchmark (:mod:`repro.membank`) replays its
processes in a flat heap that breaks ties the same way.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resource import Request, Resource
from repro.sim.store import Store
from repro.sim.monitor import TimeWeightedStat, TallyStat
from repro.sim.trace import TraceEntry, TraceRecorder

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Request",
    "Store",
    "TimeWeightedStat",
    "TallyStat",
    "TraceEntry",
    "TraceRecorder",
]
