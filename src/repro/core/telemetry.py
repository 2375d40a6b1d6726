"""Telemetry policy: the live trace-context plane's knobs.

``GossipConfig(telemetry=...)`` turns on wire-level trace context: every
published rumor may carry a compact ``Trace`` section (origin id, publish
timestamp, hop counter, sampling flag) that receivers use to reconstruct
per-hop latency and infection curves on *real* transports, the same way
the causal tracer does inside the simulator.

Everything here is strictly opt-in: with ``telemetry=None`` (the default)
no trace section is emitted and the wire trace stays byte-for-byte
identical (gated by ``tests/integration/test_trace_identity.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.message import TraceContext
from repro.core.params import Knobs, knob

#: Upper bound on the hop counter a receiver trusts; a sampled frame whose
#: path exceeds it is counted (``telemetry.path_clamped``) and skipped
#: rather than polluting the per-hop histogram with a runaway denominator.
MAX_PATH_LENGTH = 32
#: Seconds of *negative* end-to-end latency tolerated before a sample is
#: discarded as clock skew (``telemetry.skew_guarded``).  Small negative
#: readings inside the guard clamp to zero.
CLOCK_SKEW_GUARD = 2.0


@dataclass(frozen=True)
class TelemetryPolicy(Knobs):
    """Validated knobs for the live telemetry plane.

    The rollup cadence and the SLO the burn-rate monitor defends are
    constants of :mod:`repro.core.api` (``SLO_WINDOW``) and
    :mod:`repro.core.control` (``EPOCH``, ``SLO_DELIVERY``, shared with
    the adaptive controller so both planes judge the same signal).

    Attributes:
        sample_rate: probability that a publication is path-sampled (head
            sampling, decided once at publish).  Sampled publications carry
            the ``Trace`` section on every frame and are measured hop by
            hop; unsampled publications carry *no* trace section at all, so
            the wire and parse cost of telemetry scales with the sample
            rate.  The default 0.1 keeps the N=1000 drain overhead under
            the 5% budget ``make bench-telemetry-smoke`` gates; raise it to
            1.0 for full-fidelity runs (small meshes, tests).
    """

    sample_rate: float = knob(0.1, ge=0, le=1)


class TelemetryStage:
    """The engine stage under a :class:`TelemetryPolicy`; its hub
    histograms are bound once, so the receive path records dict-free.
    :data:`NO_TELEMETRY` draws nothing and traces nothing."""

    __slots__ = ("policy", "_hop_latency", "_e2e_latency", "_samples",
                 "_skew_guarded", "_path_clamped")

    def __init__(self, policy: TelemetryPolicy, hub) -> None:
        self.policy = policy
        self._hop_latency = hub.histogram("telemetry.hop_latency_ms")
        self._e2e_latency = hub.histogram("telemetry.e2e_latency_ms")
        self._samples = hub.counter("telemetry.samples")
        self._skew_guarded = hub.counter("telemetry.skew_guarded")
        self._path_clamped = hub.counter("telemetry.path_clamped")

    def trace(self, rng: random.Random, origin: str, now: float) -> Optional[TraceContext]:
        """Head sampling: the publish-time draw decides whether this
        publication carries a trace section at all, so telemetry's wire
        and parse cost scales with the sample rate."""
        sample_rate = self.policy.sample_rate
        if sample_rate >= 1.0 or rng.random() < sample_rate:
            return TraceContext(origin=origin, publish_ts=now, path=0, sampled=True)
        return None

    def observe(self, trace: Optional[TraceContext], now: float) -> None:
        """Account a first delivery against the frame's trace section.

        End-to-end latency is the gap between the origin's publish
        timestamp and ``now``; the per-hop figure divides it over the hops
        actually taken (``path + 1``: a freshly published frame has path 0
        and traveled one hop to reach us).  Only sampled frames are
        measured; :data:`CLOCK_SKEW_GUARD` discards readings more negative
        than it tolerates and the rest clamp to zero.
        """
        if trace is None or not trace.sampled:
            return
        hops_taken = trace.path + 1
        if hops_taken > MAX_PATH_LENGTH:
            self._path_clamped.inc()
            return
        latency = now - trace.publish_ts
        if latency < -CLOCK_SKEW_GUARD:
            self._skew_guarded.inc()
            return
        latency_ms = max(0.0, latency) * 1000.0
        self._e2e_latency.observe(latency_ms)
        self._hop_latency.observe(latency_ms / hops_taken)
        self._samples.inc()


class NoTelemetry:
    """The telemetry stage without a policy: no draw, no trace, no record."""

    __slots__ = ()

    def trace(self, rng: random.Random, origin: str, now: float) -> None:
        return None

    def observe(self, trace: Optional[TraceContext], now: float) -> None:
        pass


NO_TELEMETRY = NoTelemetry()
