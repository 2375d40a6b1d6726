"""Discrete-event simulation kernel for WS-Gossip experiments.

The simulator is deterministic: given the same seed and the same program it
produces the same event order, message interleaving, losses and failures.
All WS-Gossip experiments (DESIGN.md, E1-E9) run on this kernel; the
real-socket binding in :mod:`repro.transport.aio` runs the same stack live.

Layering:

* :mod:`repro.simnet.clock`    -- virtual time.
* :mod:`repro.simnet.events`   -- the event queue and :class:`Simulator`.
* :mod:`repro.simnet.rng`      -- named, independently seeded RNG streams.
* :mod:`repro.simnet.latency`  -- message latency models.
* :mod:`repro.simnet.network`  -- the network fabric: delivery, loss,
  partitions, per-link overrides.
* :mod:`repro.simnet.process`  -- the simulated process (node) base class.
* :mod:`repro.simnet.faults`   -- crash / recovery / churn / partition plans.
* :mod:`repro.simnet.trace`    -- structured event tracing.
* :mod:`repro.simnet.metrics`  -- counters, histograms and time series.
"""

from repro.simnet.clock import VirtualClock
from repro.simnet.events import Event, EventQueue, Simulator
from repro.simnet.faults import ChurnGenerator, FaultPlan
from repro.simnet.latency import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.simnet.metrics import Counter, Histogram, MetricsRegistry, TimeSeries
from repro.simnet.network import Network, NetworkMessage
from repro.simnet.process import Process, ProcessState
from repro.simnet.rng import RngStreams
from repro.simnet.trace import TraceEvent, TraceLog

__all__ = [
    "ChurnGenerator",
    "Counter",
    "Event",
    "EventQueue",
    "ExponentialLatency",
    "FaultPlan",
    "FixedLatency",
    "Histogram",
    "LatencyModel",
    "LogNormalLatency",
    "MetricsRegistry",
    "Network",
    "NetworkMessage",
    "Process",
    "ProcessState",
    "RngStreams",
    "Simulator",
    "TimeSeries",
    "TraceEvent",
    "TraceLog",
    "UniformLatency",
    "VirtualClock",
]
