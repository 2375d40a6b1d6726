"""Transport bindings for the SOAP runtime.

* :mod:`repro.transport.inmem` -- binds runtimes to the discrete-event
  simulator (addresses ``sim://node/path``).
* :class:`LoopbackTransport`   -- delivers straight back to a registry of
  runtimes with no latency; used by unit tests.
* :mod:`repro.transport.aio`   -- the real-network binding, on one event
  loop: UDP datagrams (``udp://host:port/path``) and keep-alive
  pipelined HTTP (``http://host:port/path``), with
  :class:`AsyncUdpNode` / :class:`AsyncHttpNode` server edges so
  hundreds of nodes share one loop (see docs/DEPLOY.md).
* :mod:`repro.transport.edge`  -- the versioned ``/v1`` node-edge HTTP
  contract (paths, idempotent ingest, admission control) that
  :class:`AsyncHttpNode` serves (see docs/WIRE.md).
* :mod:`repro.transport.base`  -- the shared resilient send path: bounded
  retry (:class:`RetryPolicy`), per-destination circuit breakers
  (:class:`BreakerPolicy`, :class:`CircuitBreaker`), and structured
  :class:`SendOutcome` callbacks (see docs/RESILIENCE.md).
"""

from repro.transport.base import (
    BreakerPolicy,
    CircuitBreaker,
    LoopbackTransport,
    ResilientTransport,
    RetryPolicy,
    SendError,
    SendOutcome,
)
from repro.transport.inmem import SimTransport, WsProcess, sim_address
from repro.transport.aio import (
    AioHttpTransport,
    AioScheduler,
    AioUdpTransport,
    AsyncHttpNode,
    AsyncResilientTransport,
    AsyncUdpNode,
    shared_loop,
)
from repro.transport.edge import (
    API_VERSION,
    GOSSIP_PATH,
    HEALTH_PATH,
    METRICS_PATH,
    IdempotencyIndex,
)

__all__ = [
    "API_VERSION",
    "AioHttpTransport",
    "AioScheduler",
    "AioUdpTransport",
    "AsyncHttpNode",
    "AsyncResilientTransport",
    "AsyncUdpNode",
    "BreakerPolicy",
    "CircuitBreaker",
    "GOSSIP_PATH",
    "HEALTH_PATH",
    "IdempotencyIndex",
    "LoopbackTransport",
    "METRICS_PATH",
    "ResilientTransport",
    "RetryPolicy",
    "SendError",
    "SendOutcome",
    "SimTransport",
    "WsProcess",
    "shared_loop",
    "sim_address",
]
