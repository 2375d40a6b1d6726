"""Binding the SOAP runtime to the discrete-event simulator.

Each simulated WS node is a :class:`WsProcess`: a
:class:`~repro.simnet.process.Process` hosting a
:class:`~repro.soap.runtime.SoapRuntime`.  Wire messages are the actual
serialized envelope bytes travelling through :class:`~repro.simnet.network.Network`,
so the full SOAP encode/decode path is exercised in every experiment.

Addresses take the form ``sim://<node-name>/<service-path>``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.soap.runtime import SoapRuntime
from repro.transport.base import (
    BreakerPolicy,
    ResilientTransport,
    RetryPolicy,
    SendError,
    split_address,
)


def sim_address(node_name: str, path: str = "") -> str:
    """Build a ``sim://`` address for a node (and optional service path)."""
    if path and not path.startswith("/"):
        raise ValueError(f"path must start with '/': {path!r}")
    return f"sim://{node_name}{path}"


class SimTransport(ResilientTransport):
    """Sends envelope bytes from one simulated node over the network.

    Rides the shared resilient send path.  Synchronously observable
    failures -- a dead destination (connection refused in the real world)
    or a partition (no route) -- raise and feed retries, breakers and
    outcome listeners.  A random in-flight *loss* stays invisible to the
    sender, exactly like a datagram: gossip's redundancy covers it.

    Retry timers run on the node's simulated process, so pending retries
    die with the node on crash -- the right fault semantics for free.
    """

    #: Drop reasons a sender cannot observe synchronously.
    UNOBSERVABLE_DROPS = frozenset({"loss"})

    def __init__(
        self,
        node: Process,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
    ) -> None:
        super().__init__(
            retry=retry,
            breaker=breaker,
            clock=lambda: node.sim.now,
            hub=node.network.hub,
        )
        self._node = node

    def _retry_rng(self) -> random.Random:
        """The node's seeded ``transport:<name>`` stream, made on the
        first retry.  Streams are seeded by name, so it draws exactly what
        a stream made with the transport would."""
        return self._node.sim.rng.get(f"transport:{self._node.name}")

    def _send_once(self, address: str, data: bytes) -> None:
        """Send envelope bytes over the simulated network."""
        scheme, authority, _ = split_address(address)
        if scheme != "sim":
            raise ValueError(f"SimTransport cannot reach {address!r}")
        message = self._node.send(authority, data, size=len(data))
        if message is None:
            return  # we are crashed; no one to report to
        if message.dropped and message.drop_reason not in self.UNOBSERVABLE_DROPS:
            raise SendError(message.drop_reason, address)

    def _defer(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule the retry on the node (timer dies with a crash)."""
        self._node.set_timer(delay, callback)


class WsProcess(Process):
    """A simulated node running the SOAP middleware stack.

    The runtime's handler chain is where a "compliant middleware stack"
    (paper, Section 3) gets its gossip layer installed.

    Subclasses add services in :meth:`configure` (called once at
    construction) and may override the process lifecycle hooks as usual.
    """

    def __init__(self, name: str, network: Network) -> None:
        super().__init__(name, network)
        # Per-node metric attribution: the runtime's counters carry a
        # ``node`` label and aggregate into the network hub's unlabelled
        # counters, so whole-simulation reads are unchanged.
        self.runtime = SoapRuntime(
            sim_address(name),
            SimTransport(self),
            metrics=network.hub.node(name),
        )
        self.configure()

    def configure(self) -> None:
        """Mount services / install handlers.  Default: nothing."""

    def reset_state(self, amnesia: bool) -> None:
        """Crash-faithful restart support: drop the middleware stack's
        volatile state (pending reply callbacks, breaker memory).  The
        mounted services and handler chain are configuration, not state.
        Subclasses extend this with their own application state."""
        self.runtime.reset_volatile()
        self.runtime.transport.reset()

    def on_message(self, source: str, payload: bytes) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError(
                f"WsProcess {self.name!r} expects wire bytes, got "
                f"{type(payload).__name__}"
            )
        # Hand `bytes` payloads through untouched: with fan-out sharing one
        # buffer, copying here would re-introduce a per-delivery allocation.
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        self.runtime.receive(payload, source=sim_address(source))
