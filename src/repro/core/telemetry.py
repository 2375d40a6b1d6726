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

from dataclasses import dataclass

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
