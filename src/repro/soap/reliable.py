"""WS-ReliableMessaging-style per-link reliability (ack + retransmit).

The 2008 WS-* answer to message loss was transport-layer reliability:
WS-ReliableMessaging numbers messages per destination, the receiver acks,
and the sender retransmits until acked (or gives up).  This module
implements that pattern as a SOAP handler pair in one
:class:`ReliableLayer`, so baselines can be made "reliable" the WS way --
and experiment E12 can measure what that costs compared with gossip's
protocol-level redundancy.

Semantics:

* outbound application messages gain a ``Sequence`` header
  ``(channel id, sequence number)`` and are retransmitted every
  ``retry_interval`` until acked, at most ``max_retries`` times;
* the receiving layer acks every sequenced message and consumes
  duplicates, so the application sees exactly-once per link (loss is
  repaired; a crashed receiver is NOT -- reliability is not resilience,
  which is precisely the distinction the experiment shows);
* acks and retransmissions bypass the outbound chain (they are the
  layer's own control traffic).
"""

from __future__ import annotations

import uuid
import xml.etree.ElementTree as ET
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.scheduling import Scheduler
from repro.obs.hub import hub_of
from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.soap.handler import Direction, Handler, MessageContext
from repro.soap.runtime import SoapRuntime
from repro.transport.base import split_address
from repro.xmlutil import qname

WSRM = "urn:ws-rm-lite:2008"
ACK_ACTION = f"{WSRM}/Ack"

_SEQUENCE_TAG = qname(WSRM, "Sequence")
_CHANNEL = qname(WSRM, "Channel")
_NUMBER = qname(WSRM, "Number")


def _sequence_header(channel: str, number: int) -> ET.Element:
    root = ET.Element(_SEQUENCE_TAG)
    channel_element = ET.SubElement(root, _CHANNEL)
    channel_element.text = channel
    number_element = ET.SubElement(root, _NUMBER)
    number_element.text = str(number)
    return root


def _parse_sequence(envelope: Envelope) -> Optional[Tuple[str, int]]:
    element = envelope.header(_SEQUENCE_TAG)
    if element is None:
        return None
    channel = element.findtext(_CHANNEL)
    number_text = element.findtext(_NUMBER)
    if channel is None or number_text is None:
        raise ValueError("malformed Sequence header")
    try:
        return channel, int(number_text)
    except ValueError:
        raise ValueError(f"malformed sequence number: {number_text!r}") from None


class ReliableLayer(Handler):
    """Ack/retransmit reliability as a middleware handler.

    Install with :func:`install_reliability`; every *application* message
    the node sends becomes reliable.  Control traffic (this layer's acks)
    and already-sequenced retransmissions are left alone.

    Args:
        runtime: the node's runtime.
        scheduler: timers for retransmission.
        retry_interval: seconds between retransmissions.
        max_retries: attempts before giving up (counted per message).
        on_dead_letter: optional callback ``(destination, number, data)``
            invoked when a message exhausts its retries unacked -- the
            abandonment is no longer silent (experiment E12 counts it).
    """

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        retry_interval: float = 0.5,
        max_retries: int = 8,
        on_dead_letter: Optional[Callable[[str, int, bytes], None]] = None,
    ) -> None:
        if retry_interval <= 0:
            raise ValueError(f"retry_interval must be positive: {retry_interval!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries!r}")
        self.runtime = runtime
        self.scheduler = scheduler
        self._health = hub_of(runtime.metrics).health
        self.retry_interval = retry_interval
        self.max_retries = max_retries
        self.on_dead_letter = on_dead_letter
        #: Messages abandoned after ``max_retries`` without an ack.
        self.dead_letters = 0
        self.channel_id = f"urn:ws-rm:channel:{uuid.uuid4()}"
        self._next_number = 0
        # In-flight: (destination, number) -> [bytes, retries_left]
        self._unacked: Dict[Tuple[str, int], list] = {}
        # Receiver-side dedup: channel -> delivered numbers.
        self._delivered: Dict[str, Set[int]] = {}

    # -- sender side -----------------------------------------------------------

    def on_outbound(self, context: MessageContext) -> bool:
        """Sequence the outgoing message and arm its retransmit timer."""
        if context.addressing.action == ACK_ACTION:
            return True  # our own control traffic
        if context.envelope.header(_SEQUENCE_TAG) is not None:
            return True  # already sequenced (retransmission path)
        destination = context.destination
        if destination is None:
            return True
        number = self._next_number
        self._next_number += 1
        context.envelope.add_header(_sequence_header(self.channel_id, number))
        # Serialize now (after the full chain will run, the runtime
        # re-applies addressing; capture bytes at delivery time instead).
        context.properties["rm.number"] = number
        self.runtime.metrics.counter("rm.sequenced").inc()
        # Defer capturing the wire bytes until the send completes: schedule
        # at time zero is unnecessary -- we rebuild the bytes here with the
        # current addressing state, which send() has already finalized.
        context.addressing.apply(context.envelope)
        data = context.envelope.to_bytes()
        key = (destination, number)
        self._unacked[key] = [data, self.max_retries]
        self.scheduler.call_after(
            self.retry_interval, lambda: self._retransmit(key)
        )
        return True

    def _retransmit(self, key: Tuple[str, int]) -> None:
        entry = self._unacked.get(key)
        if entry is None:
            return  # acked
        data, retries_left = entry
        if retries_left <= 0:
            del self._unacked[key]
            self.dead_letters += 1
            self._health.dead_letters.inc()
            if self.on_dead_letter is not None:
                destination, number = key
                self.on_dead_letter(destination, number, data)
            return
        entry[1] = retries_left - 1
        self.runtime.metrics.counter("rm.retransmit").inc()
        self.runtime.transport.send(key[0], data)
        self.scheduler.call_after(
            self.retry_interval, lambda: self._retransmit(key)
        )

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)

    # -- receiver side -----------------------------------------------------------

    def on_inbound(self, context: MessageContext) -> bool:
        """Ack sequenced arrivals, consume duplicates and acks."""
        if context.addressing.action == ACK_ACTION:
            self._handle_ack(context)
            return False
        try:
            sequence = _parse_sequence(context.envelope)
        except ValueError:
            self.runtime.metrics.counter("rm.malformed").inc()
            return False
        if sequence is None:
            return True  # unsequenced traffic passes through
        channel, number = sequence
        self._send_ack(context, channel, number)
        delivered = self._delivered.setdefault(channel, set())
        if number in delivered:
            self.runtime.metrics.counter("rm.duplicate").inc()
            return False
        delivered.add(number)
        return True

    def _send_ack(self, context: MessageContext, channel: str, number: int) -> None:
        source = context.source
        if source is None:
            return
        scheme, authority, _ = split_address(source)
        self.runtime.metrics.counter("rm.ack-sent").inc()
        self.runtime.send(
            f"{scheme}://{authority}/rm",
            ACK_ACTION,
            value={"channel": channel, "number": number,
                   "acker": self.runtime.base_address},
        )

    def _handle_ack(self, context: MessageContext) -> None:
        from repro.soap.serializer import from_element

        body = context.envelope.body
        if body is None or body.get("t") is None:
            return
        try:
            value = from_element(body)
        except Exception:
            self.runtime.metrics.counter("rm.malformed").inc()
            return
        if not isinstance(value, dict):
            return
        number = value.get("number")
        acker = value.get("acker")
        if not isinstance(number, int) or not isinstance(acker, str):
            return
        # The ack names the acker's base address; our in-flight keys are
        # full destination addresses on that authority.
        for key in [key for key in self._unacked if key[1] == number]:
            destination, _ = key
            if destination.startswith(acker):
                del self._unacked[key]
                self.runtime.metrics.counter("rm.acked").inc()


def install_reliability(
    runtime: SoapRuntime,
    scheduler: Scheduler,
    retry_interval: float = 0.5,
    max_retries: int = 8,
    on_dead_letter: Optional[Callable[[str, int, bytes], None]] = None,
) -> ReliableLayer:
    """Install a :class:`ReliableLayer` at the transport end of the stack."""
    layer = ReliableLayer(
        runtime, scheduler, retry_interval, max_retries,
        on_dead_letter=on_dead_letter,
    )
    runtime.chain.add_first(layer)
    return layer
