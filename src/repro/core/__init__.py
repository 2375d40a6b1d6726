"""WS-Gossip: the paper's contribution.

The framework layers epidemic dissemination over the SOAP stack:

* :mod:`repro.core.params`       -- gossip parameters (fanout ``f``,
  rounds ``r``, period, style) and the ``Knobs`` base every validated
  knob set is declared through.
* :mod:`repro.core.analysis`     -- epidemic math used to configure ``f``
  and ``r`` for a target reliability (Eugster et al. 2004).
* :mod:`repro.core.message`      -- the ``Gossip`` SOAP header block.
* :mod:`repro.core.buffer`       -- per-activity message store and dedup.
* :mod:`repro.core.peers`        -- peer-selection strategies.
* :mod:`repro.core.health`       -- per-peer failure suspicion feeding
  degraded-mode selection and fanout compensation (docs/RESILIENCE.md).
* :mod:`repro.core.control`      -- the adaptive controller: self-tuning
  fanout/rounds/mode/batching against a delivery SLO (docs/RESILIENCE.md).
* :mod:`repro.core.engine`       -- node-local protocol engine implementing
  the gossip styles (push, pull, push-pull, anti-entropy).
* :mod:`repro.core.handler`      -- the gossip layer as a SOAP handler
  ("an additional handler in the middleware stack", paper Section 3).
* :mod:`repro.core.service`      -- the gossip port type (digest/pull ops).
* :mod:`repro.core.coordination` -- the gossip coordination type plugged
  into WS-Coordination.
* :mod:`repro.core.subscription` -- the coordinator's subscription list.
* :mod:`repro.core.roles`        -- Initiator / Disseminator / Consumer /
  Coordinator node classes (paper Figure 1).
* :mod:`repro.core.aggregation`  -- push-sum gossip aggregation.
* :mod:`repro.core.peersampling` -- Cyclon-style partial views for the
  distributed-coordinator mode.
* :mod:`repro.core.decentralized` -- the full distributed-coordinator
  deployment (WS-Membership views, no central subscriber list).
* :mod:`repro.core.ordering`     -- optional per-origin FIFO delivery.
* :mod:`repro.core.topics`       -- named topics over gossip activities.
* :mod:`repro.core.api`          -- the high-level ``GossipGroup`` facade.
"""

from repro.core.analysis import (
    atomic_delivery_probability,
    effective_fanout,
    expected_final_fraction,
    expected_rounds,
    fanout_for_atomicity,
    fanout_for_atomicity_under_faults,
    rounds_for_coverage,
)
from repro.core.api import GossipConfig, GossipGroup
from repro.core.control import AdaptiveController, ControlDecision
from repro.core.decentralized import DecentralizedGossipNode, DecentralizedGroup
from repro.core.engine import GossipEngine
from repro.core.health import HealthPolicy, PeerHealth
from repro.core.message import GossipHeader, GossipStyle
from repro.core.overload import OverloadPolicy
from repro.core.params import GossipParams, ParamError
from repro.core.peers import HealthAwareSelector
from repro.core.roles import (
    ConsumerNode,
    CoordinatorNode,
    DisseminatorNode,
    InitiatorNode,
)
from repro.core.store import (
    DurabilityPolicy,
    FileGossipLog,
    GossipLog,
    MemoryGossipLog,
    ReplayResult,
)
from repro.core.telemetry import TelemetryPolicy

__all__ = [
    "AdaptiveController",
    "ControlDecision",
    "ConsumerNode",
    "CoordinatorNode",
    "DecentralizedGossipNode",
    "DecentralizedGroup",
    "DisseminatorNode",
    "DurabilityPolicy",
    "FileGossipLog",
    "GossipConfig",
    "GossipEngine",
    "GossipLog",
    "MemoryGossipLog",
    "ReplayResult",
    "GossipGroup",
    "GossipHeader",
    "GossipParams",
    "GossipStyle",
    "HealthAwareSelector",
    "HealthPolicy",
    "InitiatorNode",
    "OverloadPolicy",
    "ParamError",
    "PeerHealth",
    "TelemetryPolicy",
    "atomic_delivery_probability",
    "effective_fanout",
    "expected_final_fraction",
    "expected_rounds",
    "fanout_for_atomicity",
    "fanout_for_atomicity_under_faults",
    "rounds_for_coverage",
]
