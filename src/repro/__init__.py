"""WS-Gossip: middleware for scalable service coordination.

A full reproduction of Campos & Pereira (Middleware '08): epidemic
dissemination layered over a from-scratch SOAP / WS-Coordination stack,
runnable on a deterministic discrete-event simulator or over real UDP or
HTTP sockets on one event loop.

Quickstart::

    from repro import GossipConfig, GossipGroup

    config = GossipConfig(n_disseminators=32, n_consumers=16, seed=7)
    group = GossipGroup(config=config)
    group.setup()
    message_id = group.publish({"symbol": "ACME", "price": 101.5})
    group.run_for(5.0)
    assert group.is_atomic(message_id)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    AdaptiveController,
    DecentralizedGroup,
    DurabilityPolicy,
    GossipConfig,
    GossipGroup,
    GossipLog,
    GossipParams,
    GossipStyle,
    HealthPolicy,
    OverloadPolicy,
    ParamError,
    PeerHealth,
    TelemetryPolicy,
    atomic_delivery_probability,
    expected_rounds,
    fanout_for_atomicity,
)
from repro.obs import MetricsHub, Profiler, RumorTracer, default_hub
from repro.simnet.events import Simulator
from repro.stats import summarize

__version__ = "7.0.0"

__all__ = [
    "AdaptiveController",
    "DecentralizedGroup",
    "DurabilityPolicy",
    "GossipConfig",
    "GossipGroup",
    "GossipLog",
    "GossipParams",
    "GossipStyle",
    "HealthPolicy",
    "OverloadPolicy",
    "MetricsHub",
    "Profiler",
    "RumorTracer",
    "default_hub",
    "ParamError",
    "PeerHealth",
    "TelemetryPolicy",
    "Simulator",
    "atomic_delivery_probability",
    "expected_rounds",
    "fanout_for_atomicity",
    "summarize",
    "__version__",
]
