"""The simulated network fabric.

The network connects named :class:`~repro.simnet.process.Process` instances.
Sending draws a latency from the configured model, applies loss and
partition checks, and schedules delivery on the simulator.  Delivery is
per-message (datagram semantics): no ordering guarantee across messages,
which is the honest model for SOAP-over-HTTP between distinct connections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.simnet.events import Simulator
from repro.simnet.latency import FixedLatency, LatencyModel
from repro.simnet.metrics import MetricsRegistry
from repro.simnet.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simnet.process import Process


@dataclass
class NetworkMessage:
    """A message in flight (or delivered/dropped)."""

    source: str
    destination: str
    payload: Any
    send_time: float
    size: int = 0
    deliver_time: Optional[float] = None
    dropped: bool = False
    drop_reason: Optional[str] = None
    corrupted: bool = False


class Network:
    """Message fabric with latency, loss and partitions.

    Args:
        sim: the simulator events are scheduled on.
        latency: default latency model for all links.
        loss_rate: probability in ``[0, 1]`` that any message is dropped.
        trace: optional shared trace log.
        metrics: optional shared metrics sink; when omitted the network
            creates its own :class:`~repro.obs.hub.MetricsHub` chained to
            the default hub, so two networks in one process never share
            metric state.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        trace: Optional[TraceLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        rng: Optional[Any] = None,
    ) -> None:
        # Imported here, not at module top: obs.hub pulls in
        # simnet.metrics, whose package init reaches back to this module.
        from repro.obs.hub import MetricsHub, default_hub

        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1]: {loss_rate!r}")
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(0.001)
        self.loss_rate = loss_rate
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.metrics = (
            metrics if metrics is not None else MetricsHub(parent=default_hub())
        )
        # The observability hub scoping this network's simulation.  When a
        # plain registry was injected (tests asserting on bare counters)
        # the hub is a fresh sibling so counter groups still resolve somewhere.
        self.hub = (
            self.metrics
            if isinstance(self.metrics, MetricsHub)
            else MetricsHub(parent=default_hub())
        )
        self._processes: Dict[str, "Process"] = {}
        self._link_latency: Dict[Tuple[str, str], LatencyModel] = {}
        self._link_loss: Dict[Tuple[str, str], float] = {}
        self._partition_of: Dict[str, int] = {}
        # Wire corruption: probability that a delivered payload has one
        # byte flipped (fault injection for parser robustness).
        self.corruption_rate = 0.0
        # Optional egress bandwidth (bytes/second) per node: messages
        # serialize onto the wire, so a busy sender delays later sends.
        self._egress_bandwidth: Dict[str, float] = {}
        self._egress_busy_until: Dict[str, float] = {}
        # Loss/latency draws come from one stream.  A sharded worker
        # injects its per-shard stream here so shards stay independent; the
        # default is the simulator's "network" stream, unchanged.
        self._rng = rng if rng is not None else sim.rng.get("network")
        # Cross-shard egress hook (see repro.simnet.shard.ShardEgress):
        # when set, sends to a name the hook owns are buffered as envelopes
        # for the parent to route instead of being dropped as dead.
        self._egress: Optional[Any] = None
        # The per-message metric objects, bound once: send/_deliver run for
        # every simulated message, and the registry's name lookup is
        # measurable overhead at that call rate.
        self._sent = self.metrics.counter("net.sent")
        self._bytes = self.metrics.counter("net.bytes")
        self._dropped = self.metrics.counter("net.dropped")
        self._delivered = self.metrics.counter("net.delivered")
        self._latency_hist = self.metrics.histogram("net.latency")

    # -- membership of the fabric ------------------------------------------

    def attach(self, process: "Process") -> None:
        """Register a process under its name.

        Raises:
            ValueError: if the name is already taken by another process.
        """
        existing = self._processes.get(process.name)
        if existing is not None and existing is not process:
            raise ValueError(f"process name already attached: {process.name!r}")
        self._processes[process.name] = process

    def detach(self, name: str) -> None:
        """Remove a process; in-flight messages to it will be dropped."""
        self._processes.pop(name, None)

    def process(self, name: str) -> "Process":
        """Look up an attached process by name (KeyError if absent)."""
        return self._processes[name]

    def process_names(self) -> List[str]:
        """Names of every attached process."""
        return list(self._processes)

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    # -- link configuration -------------------------------------------------

    def set_link_latency(self, source: str, destination: str, model: LatencyModel) -> None:
        """Override latency on the directed link ``source -> destination``."""
        self._link_latency[(source, destination)] = model

    def set_link_loss(self, source: str, destination: str, loss_rate: float) -> None:
        """Override loss on the directed link ``source -> destination``."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1]: {loss_rate!r}")
        self._link_loss[(source, destination)] = loss_rate

    def set_egress_bandwidth(self, name: str, bytes_per_second: float) -> None:
        """Bound a node's transmit rate; messages queue behind each other.

        Models the serialization delay a real NIC/stack imposes: a message
        of ``size`` bytes occupies the sender's uplink for
        ``size / bytes_per_second`` before propagation latency starts.
        """
        if bytes_per_second <= 0:
            raise ValueError(
                f"bytes_per_second must be positive: {bytes_per_second!r}"
            )
        self._egress_bandwidth[name] = bytes_per_second

    def set_corruption_rate(self, rate: float) -> None:
        """Flip one byte of a delivered payload with probability ``rate``.

        Corruption happens at delivery on a private copy -- fan-out sends
        share one buffer, and the other recipients must see clean bytes.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1]: {rate!r}")
        self.corruption_rate = rate

    def _corrupt(self, payload: Any) -> Any:
        """One byte of ``payload`` flipped, on a copy (bytes only)."""
        if not isinstance(payload, (bytes, bytearray)) or len(payload) == 0:
            return payload
        mutated = bytearray(payload)
        index = self._rng.randrange(len(mutated))
        mutated[index] ^= 0xFF
        return bytes(mutated)

    def _transmission_delay(self, source: str, size: int) -> float:
        """Queueing + serialization delay at the sender (0 when unbounded)."""
        bandwidth = self._egress_bandwidth.get(source)
        if bandwidth is None or size <= 0:
            return 0.0
        start = max(self.sim.now, self._egress_busy_until.get(source, 0.0))
        departure = start + size / bandwidth
        self._egress_busy_until[source] = departure
        return departure - self.sim.now

    # -- partitions ----------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network: messages crossing group boundaries are dropped.

        Nodes not mentioned in any group remain mutually reachable (they
        implicitly form group ``-1``).
        """
        self._partition_of.clear()
        for index, group in enumerate(groups):
            for name in group:
                self._partition_of[name] = index

    def heal(self) -> None:
        """Remove all partitions."""
        self._partition_of.clear()

    def partitioned(self, source: str, destination: str) -> bool:
        """True when a partition separates the two nodes."""
        if not self._partition_of:
            return False
        group_a = self._partition_of.get(source, -1)
        group_b = self._partition_of.get(destination, -1)
        return group_a != group_b

    # -- sending -------------------------------------------------------------

    def send(self, source: str, destination: str, payload: Any, size: int = 0) -> NetworkMessage:
        """Send ``payload`` from ``source`` to ``destination``.

        The message may be dropped (loss, partition, dead destination); the
        returned :class:`NetworkMessage` records the outcome as it becomes
        known.  Sending to an unknown destination is a silent drop, matching
        a datagram to a host that is gone.
        """
        message = NetworkMessage(
            source=source,
            destination=destination,
            payload=payload,
            send_time=self.sim.now,
            size=size,
        )
        self._sent.inc()
        if size > 0:
            self._bytes.inc(size)
        if self.trace.enabled:
            self.trace.record(
                self.sim.now, "net.send", source, destination=destination
            )

        if self.partitioned(source, destination):
            self._drop(message, "partition")
            return message
        loss = self._link_loss.get((source, destination), self.loss_rate)
        if loss > 0.0 and self._rng.random() < loss:
            self._drop(message, "loss")
            return message
        # A dead destination refuses synchronously: SOAP-over-HTTP rides
        # TCP, so a crashed host means connection-refused at the sender --
        # observable failure evidence the health layer feeds on.  (A crash
        # while the message is in flight is still caught at delivery.)
        process = self._processes.get(destination)
        if process is None and self._egress is not None and self._egress.owns(destination):
            # The destination lives on another shard: draw the full delay
            # here (the sender's stream decides the arrival instant) and
            # hand the envelope to the egress buffer.  Liveness is checked
            # at the receiving shard on delivery, so a cross-shard send to
            # a dead node fails late (in-flight drop) rather than
            # synchronously -- the one sender-visible semantic difference.
            model = self._link_latency.get((source, destination), self.latency)
            delay = self._transmission_delay(source, size) + model.sample(self._rng)
            self._egress.emit(message, self.sim.now + delay)
            return message
        if process is None or not process.is_running:
            self._drop(message, "dead-destination")
            return message

        model = self._link_latency.get((source, destination), self.latency)
        delay = self._transmission_delay(source, size) + model.sample(self._rng)
        self.sim.call_after(delay, lambda: self._deliver(message))
        return message

    def set_egress(self, egress: Optional[Any]) -> None:
        """Install the cross-shard egress hook.

        ``egress`` must expose ``owns(name) -> bool`` (is this a node on a
        *remote* shard?) and ``emit(message, deliver_time)``.  ``None``
        uninstalls the hook, restoring single-process semantics.
        """
        self._egress = egress

    def inject_ingress(
        self,
        source: str,
        destination: str,
        payload: Any,
        size: int,
        send_time: float,
        deliver_time: float,
    ) -> NetworkMessage:
        """Schedule delivery of a message that originated on another shard.

        The sender's shard already charged loss and drew the latency; here
        the envelope only needs a delivery event.  ``deliver_time`` is
        clamped to ``sim.now`` so a float-rounding hair below the current
        barrier cannot schedule into the past.
        """
        message = NetworkMessage(
            source=source,
            destination=destination,
            payload=payload,
            send_time=send_time,
            size=size,
        )
        when = deliver_time if deliver_time > self.sim.now else self.sim.now
        self.sim.call_at(when, lambda: self._deliver(message))
        return message

    def _drop(self, message: NetworkMessage, reason: str) -> None:
        message.dropped = True
        message.drop_reason = reason
        self._dropped.inc()
        self.metrics.counter(f"net.dropped.{reason}").inc()
        if self.trace.enabled:
            self.trace.record(
                self.sim.now,
                "net.drop",
                message.source,
                destination=message.destination,
                reason=reason,
            )

    def _deliver(self, message: NetworkMessage) -> None:
        process = self._processes.get(message.destination)
        if process is None or not process.is_running:
            self._drop(message, "dead-destination")
            return
        # A partition raised while the message was in flight also cuts it.
        if self.partitioned(message.source, message.destination):
            self._drop(message, "partition")
            return
        if self.corruption_rate > 0.0 and self._rng.random() < self.corruption_rate:
            message.payload = self._corrupt(message.payload)
            message.corrupted = True
            self.metrics.counter("net.corrupted").inc()
        message.deliver_time = self.sim.now
        self._delivered.inc()
        self._latency_hist.observe(message.deliver_time - message.send_time)
        if self.trace.enabled:
            self.trace.record(
                self.sim.now,
                "net.deliver",
                message.destination,
                source=message.source,
            )
        process.deliver(message.source, message.payload)
