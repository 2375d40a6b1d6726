"""Decentralized peer sampling (Cyclon-style view shuffling).

The paper notes that "a distributed Coordinator is supported [...] as the
list of subscribers can be maintained in a distributed fashion" (Section
3).  This module provides that fashion: every node keeps a small partial
view of ``(address, age)`` descriptors and periodically *shuffles* a
random slice of it with its oldest neighbour.  The resulting views are a
uniform-enough sample of the population for the epidemic analysis to hold,
with no central subscriber list.

Protocol (Voulgaris, Gavidia & van Steen, JNSM 2005 -- Cyclon):

1. age every descriptor; pick the oldest peer ``Q``; remove it from view;
2. send ``Q`` a slice of the view plus a fresh descriptor of ourselves;
3. ``Q`` replies with a slice of its own view;
4. both merge: prefer filling empty slots, then replace the entries that
   were sent, never duplicate, never self.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.scheduling import PeriodicLoop, Scheduler
from repro.soap import namespaces as ns
from repro.soap.fault import sender_fault
from repro.soap.handler import MessageContext
from repro.soap.runtime import SoapRuntime
from repro.soap.service import Reply, Service, operation

SHUFFLE_ACTION = f"{ns.WSGOSSIP}/sampling/Shuffle"
SHUFFLE_RESPONSE_ACTION = f"{ns.WSGOSSIP}/sampling/ShuffleResponse"
SAMPLING_SERVICE_PATH = "/sampling"


@dataclass
class Descriptor:
    """One partial-view entry."""

    address: str
    age: int = 0


class PartialView:
    """Bounded set of peer descriptors with Cyclon merge semantics."""

    def __init__(self, capacity: int, self_address: str) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self.self_address = self_address
        self._entries: Dict[str, Descriptor] = {}
        # The address list is consumed every gossip round (it is the
        # engine's peer view) but membership changes only on shuffles, so
        # it is cached until a mutation invalidates it.
        self._addresses_cache: Optional[List[str]] = None

    def addresses(self) -> List[str]:
        """Peer addresses currently in the view (cached; do not mutate)."""
        if self._addresses_cache is None:
            self._addresses_cache = list(self._entries)
        return self._addresses_cache

    def descriptors(self) -> List[Descriptor]:
        """The raw (address, age) entries."""
        return list(self._entries.values())

    def add_seed(self, address: str) -> None:
        """Bootstrap entry (age 0); ignored for self or when full."""
        if address == self.self_address or address in self._entries:
            return
        if len(self._entries) < self.capacity:
            self._entries[address] = Descriptor(address, 0)
            self._addresses_cache = None

    def age_all(self) -> None:
        """Increment every descriptor age by one round."""
        for descriptor in self._entries.values():
            descriptor.age += 1

    def oldest(self) -> Optional[Descriptor]:
        """The stalest descriptor, or ``None`` when empty."""
        if not self._entries:
            return None
        return max(self._entries.values(), key=lambda d: d.age)

    def remove(self, address: str) -> None:
        """Drop an address from the view (no-op if absent)."""
        if self._entries.pop(address, None) is not None:
            self._addresses_cache = None

    def sample(self, count: int, rng: random.Random, exclude: Sequence[str] = ()) -> List[Descriptor]:
        """Uniform sample of up to ``count`` descriptors."""
        excluded = set(exclude)
        candidates = [d for d in self._entries.values() if d.address not in excluded]
        if count >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, count)

    def merge(self, incoming: List[Descriptor], sent: List[Descriptor]) -> None:
        """Cyclon merge: fill empty slots first, then replace what we sent."""
        self._addresses_cache = None
        sent_addresses = [d.address for d in sent if d.address in self._entries]
        for descriptor in incoming:
            if descriptor.address == self.self_address:
                continue
            existing = self._entries.get(descriptor.address)
            if existing is not None:
                # Keep the younger information.
                if descriptor.age < existing.age:
                    existing.age = descriptor.age
                continue
            if len(self._entries) < self.capacity:
                self._entries[descriptor.address] = Descriptor(
                    descriptor.address, descriptor.age
                )
            elif sent_addresses:
                victim = sent_addresses.pop()
                self._entries.pop(victim, None)
                self._entries[descriptor.address] = Descriptor(
                    descriptor.address, descriptor.age
                )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: str) -> bool:
        return address in self._entries


def _descriptors_to_value(descriptors: List[Descriptor]) -> list:
    return [{"address": d.address, "age": d.age} for d in descriptors]


def _descriptors_from_value(value) -> List[Descriptor]:
    result = []
    if isinstance(value, list):
        for item in value:
            if isinstance(item, dict) and isinstance(item.get("address"), str):
                try:
                    age = int(item.get("age", 0))
                except (TypeError, ValueError):
                    age = 0
                result.append(Descriptor(item["address"], age))
    return result


class PeerSamplingEngine:
    """Runs the shuffle protocol for one node.

    The engine's :meth:`view_addresses` plugs straight into
    :class:`~repro.core.engine.GossipEngine` (as its ``view``) or into an
    :class:`~repro.core.aggregation.AggregationEngine` ``view_provider``,
    giving the fully decentralized deployment mode.
    """

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        self_address: str,
        capacity: int = 16,
        shuffle_length: int = 6,
        period: float = 1.0,
        rng: Optional[random.Random] = None,
        jitter: float = 0.1,
    ) -> None:
        if shuffle_length < 1 or shuffle_length > capacity:
            raise ValueError(
                f"need 1 <= shuffle_length <= capacity, got "
                f"{shuffle_length}/{capacity}"
            )
        self.runtime = runtime
        self.scheduler = scheduler
        self.self_address = self_address
        self.view = PartialView(capacity, self_address)
        self.shuffle_length = shuffle_length
        self.rng = rng if rng is not None else random.Random()
        self._loop = PeriodicLoop(
            scheduler, self.rng, lambda: (period, jitter), self._shuffle_once
        )

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Seed the view with known addresses (introducer list)."""
        for seed in seeds:
            self.view.add_seed(seed)

    def view_addresses(self) -> List[str]:
        """Current partial view, for use as a gossip peer view."""
        return self.view.addresses()

    def start(self) -> None:
        """Begin periodic shuffling."""
        self._loop.start()

    def stop(self) -> None:
        """Stop shuffling."""
        self._loop.stop()

    def rejoin(self, seeds: Sequence[str]) -> None:
        """Restart sampling after a crash-faithful process restart: the
        pre-crash partial view is discarded and rebuilt from ``seeds``
        through ordinary shuffles."""
        self.view = PartialView(self.view.capacity, self.view.self_address)
        self.bootstrap(seeds)
        self.stop()
        self.start()

    def _shuffle_once(self) -> None:
        self.view.age_all()
        oldest = self.view.oldest()
        if oldest is None:
            return
        target = oldest.address
        self.view.remove(target)
        slice_out = self.view.sample(
            self.shuffle_length - 1, self.rng, exclude=[target]
        )
        sent = list(slice_out) + [Descriptor(self.self_address, 0)]
        self.runtime.metrics.counter("sampling.shuffle").inc()
        self.runtime.send(
            self._sampling_address(target),
            SHUFFLE_ACTION,
            value={
                "from": self.self_address,
                "descriptors": _descriptors_to_value(sent),
            },
            on_reply=lambda context, value: self._on_shuffle_reply(value, sent),
        )

    def _on_shuffle_reply(self, value, sent: List[Descriptor]) -> None:
        if not isinstance(value, dict):
            return
        incoming = _descriptors_from_value(value.get("descriptors"))
        self.view.merge(incoming, sent)

    def handle_shuffle(self, incoming: List[Descriptor]) -> List[Descriptor]:
        """Passive side: merge the sender's slice, return our own."""
        reply = self.view.sample(self.shuffle_length, self.rng)
        self.view.merge(incoming, reply)
        return reply

    @staticmethod
    def _sampling_address(peer: str) -> str:
        from repro.transport.base import split_address

        scheme, authority, _ = split_address(peer)
        return f"{scheme}://{authority}{SAMPLING_SERVICE_PATH}"


class PeerSamplingService(Service):
    """The ``/sampling`` endpoint: passive side of the shuffle."""

    def __init__(self, engine: PeerSamplingEngine) -> None:
        super().__init__()
        self._engine = engine

    @operation(SHUFFLE_ACTION)
    def shuffle(self, context: MessageContext, value) -> Reply:
        """SOAP operation: merge the sender slice, reply with ours."""
        if not isinstance(value, dict):
            raise sender_fault("Shuffle requires a map payload")
        incoming = _descriptors_from_value(value.get("descriptors"))
        reply = self._engine.handle_shuffle(incoming)
        return Reply(
            value={"descriptors": _descriptors_to_value(reply)},
            action=SHUFFLE_RESPONSE_ACTION,
        )
