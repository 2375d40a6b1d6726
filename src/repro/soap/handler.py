"""The SOAP handler chain -- the paper's "middleware stack".

Figure 1 of the paper deploys gossip by *configuring an additional handler,
the gossip layer, in the middleware stack*.  This module provides that
stack: an ordered chain of :class:`Handler` objects through which every
message passes, outbound before hitting the transport and inbound before
dispatch.

A handler may mutate the context, pass the message on (return ``True``), or
consume it (return ``False``) -- consuming is how the gossip layer takes
over routing without the application noticing.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.soap.envelope import Envelope
from repro.wsa.addressing import AddressingHeaders

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soap.runtime import SoapRuntime


class Direction(enum.Enum):
    """Which way a message is travelling through the stack."""

    INBOUND = "inbound"
    OUTBOUND = "outbound"


class MessageContext:
    """Everything the stack knows about one message in flight.

    Attributes:
        envelope: the SOAP envelope (mutable).
        direction: inbound or outbound.
        addressing: the WS-A properties (kept in sync with the envelope by
            the runtime at chain boundaries).
        destination: transport address the message is going to (outbound).
        source: transport address it came from, if the transport knows.
        properties: scratch space for handlers (e.g. the gossip layer marks
            messages it has re-routed).
        runtime: the owning runtime, so handlers can send further messages.
    """

    def __init__(
        self,
        envelope: Envelope,
        direction: Direction,
        addressing: Optional[AddressingHeaders] = None,
        destination: Optional[str] = None,
        source: Optional[str] = None,
        runtime: Optional["SoapRuntime"] = None,
    ) -> None:
        self.envelope = envelope
        self.direction = direction
        self.addressing = addressing if addressing is not None else AddressingHeaders()
        self.destination = destination
        self.source = source
        self.properties: Dict[str, Any] = {}
        self.runtime = runtime

    def __repr__(self) -> str:
        return (
            f"MessageContext({self.direction.value}, "
            f"action={self.addressing.action!r}, to={self.destination!r})"
        )


class Handler:
    """Base handler.  Override one or both directions.

    Both hooks return ``True`` to continue the chain or ``False`` to consume
    the message (no further handlers, no dispatch / no transport send).
    """

    def on_outbound(self, context: MessageContext) -> bool:
        """Called before the transport send; False consumes the message."""
        return True

    def on_inbound(self, context: MessageContext) -> bool:
        """Called before dispatch; False consumes the message."""
        return True


class HandlerChain:
    """An ordered list of handlers.

    Outbound messages traverse the list front-to-back; inbound messages
    back-to-front (the conventional symmetric stack ordering: the handler
    closest to the transport sees inbound messages first).
    """

    def __init__(self, handlers: Optional[List[Handler]] = None) -> None:
        self._handlers: List[Handler] = list(handlers) if handlers else []

    def add(self, handler: Handler) -> None:
        """Append a handler at the application end of the stack."""
        self._handlers.append(handler)

    def add_first(self, handler: Handler) -> None:
        """Insert a handler at the transport end of the stack."""
        self._handlers.insert(0, handler)

    def remove(self, handler: Handler) -> None:
        """Remove a handler (ValueError if absent)."""
        self._handlers.remove(handler)

    @property
    def intercepts_outbound(self) -> bool:
        """True when some handler overrides ``on_outbound``.

        Such a handler may edit or consume an outgoing envelope, so the
        runtime has to build one for it; with none in the chain an
        originated message can be written straight to bytes.
        """
        return any(
            getattr(handler.on_outbound, "__func__", None) is not Handler.on_outbound
            for handler in self._handlers
        )

    def handlers(self) -> List[Handler]:
        """A copy of the chain, transport end first."""
        return list(self._handlers)

    def run_outbound(self, context: MessageContext) -> bool:
        """Run the outbound path; ``False`` when some handler consumed it."""
        for handler in self._handlers:
            if not handler.on_outbound(context):
                return False
        return True

    def run_inbound(self, context: MessageContext) -> bool:
        """Run the inbound path; ``False`` when some handler consumed it."""
        for handler in reversed(self._handlers):
            if not handler.on_inbound(context):
                return False
        return True

    def __len__(self) -> int:
        return len(self._handlers)
