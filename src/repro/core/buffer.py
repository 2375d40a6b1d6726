"""Per-activity message store: dedup, retention and digests.

The store keeps the full wire bytes of each distinct data item so pull and
anti-entropy styles can re-transmit the *original* envelope (headers and
all) to lagging peers.  Capacity-bounded with FIFO eviction -- evicted
identities are remembered in the seen-set so re-receipt of an old message
does not count as fresh.

The seen-set itself is bounded by generation rotation: identities live in
a *current* set until it fills to ``seen_capacity``, then the whole set is
demoted to *previous* and a fresh current set starts; the demoted set is
dropped on the next rotation.  Membership checks consult both sets, so an
identity is remembered for at least ``seen_capacity`` further distinct
identities after it was recorded -- the retention window.  Anything still
retained as a payload is re-pinned into the new current set on rotation,
so a retained message can never be mistaken for new.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Set, Tuple


@dataclass
class StoredMessage:
    """One retained data item."""

    message_id: str
    data: bytes
    received_at: float
    origin: str


def id_hash(message_id: str) -> int:
    """The 64-bit hash one identity contributes to :meth:`MessageStore.summary`.

    A keyed-by-nothing ``blake2b`` so every process (and every
    implementation) computes the same value -- Python's ``hash()`` is
    salted per process and would never match across nodes.
    """
    digest = blake2b(message_id.encode("utf-8", "surrogatepass"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


_NONE_SEEN: AbstractSet[str] = frozenset()


class MessageStore:
    """Seen-set plus bounded payload retention for one activity.

    ``capacity`` bounds the retained payloads; ``seen_capacity`` bounds the
    dedup memory via two-set generation rotation (default
    ``max(1024, 4 * capacity)``, so small stores still remember identities
    long past eviction).  An identity is guaranteed to be remembered while
    fewer than ``seen_capacity`` *newer* distinct identities have been
    recorded -- outside that window, epidemic dedup upstream (peers that
    still remember) is the backstop, matching Demers-style death
    certificates aging out.

    :meth:`summary` condenses the *retained* identities -- exactly what
    :meth:`digest` lists, never the seen-set -- into a count and an
    order-independent hash, maintained incrementally on ``add`` and on
    eviction.  Two stores retaining the same identities agree whatever
    the arrival order; stores whose retention differs only by eviction
    skew (same history, different survivors) do not, by design: they can
    serve different payloads.
    """

    def __init__(self, capacity: int = 1024, seen_capacity: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        if seen_capacity is None:
            seen_capacity = max(1024, 4 * capacity)
        if seen_capacity < capacity:
            raise ValueError(
                f"seen_capacity must be >= capacity ({capacity}): {seen_capacity!r}"
            )
        self.capacity = capacity
        self.seen_capacity = seen_capacity
        self._messages: "OrderedDict[str, StoredMessage]" = OrderedDict()
        self._retained_hash = 0
        self._seen_current: Set[str] = set()
        # The older generation is only ever read; until the first
        # rotation every store shares one empty set.
        self._seen_previous: AbstractSet[str] = _NONE_SEEN
        self.rotations = 0

    # -- dedup --------------------------------------------------------------

    def is_new(self, message_id: str) -> bool:
        """True when this identity is not remembered (either generation)."""
        return (
            message_id not in self._seen_current
            and message_id not in self._seen_previous
        )

    def mark_seen(self, message_id: str) -> None:
        """Remember an identity without retaining a payload.

        Used by replay to restore dedup knowledge for messages whose
        payloads had already been evicted before the crash.
        """
        if not self.is_new(message_id):
            return
        self._rotate_if_full()
        self._seen_current.add(message_id)

    def _rotate_if_full(self) -> None:
        if len(self._seen_current) < self.seen_capacity:
            return
        self._seen_previous = self._seen_current
        self._seen_current = set()
        # Retained payloads must never be mistaken for new: re-pin them
        # into the fresh generation immediately.
        self._seen_current.update(self._messages)
        self.rotations += 1

    # -- retention ----------------------------------------------------------

    def add(self, message_id: str, data: bytes, received_at: float, origin: str) -> bool:
        """Record a message; returns True when it was new.

        Duplicate adds are no-ops (the first-received bytes are kept).
        """
        if not self.is_new(message_id):
            return False
        self._rotate_if_full()
        self._seen_current.add(message_id)
        self._messages[message_id] = StoredMessage(
            message_id=message_id,
            data=data,
            received_at=received_at,
            origin=origin,
        )
        self._retained_hash ^= id_hash(message_id)
        while len(self._messages) > self.capacity:
            evicted, _ = self._messages.popitem(last=False)
            self._retained_hash ^= id_hash(evicted)
        return True

    def get(self, message_id: str) -> Optional[StoredMessage]:
        """The retained message, or ``None`` if never seen or evicted."""
        return self._messages.get(message_id)

    def messages(self) -> Iterator[StoredMessage]:
        """Retained messages, oldest first (snapshot source for the WAL)."""
        return iter(self._messages.values())

    def digest(self) -> List[str]:
        """Identities currently retained, oldest first.

        This is what digest/anti-entropy exchanges advertise; evicted
        identities are deliberately excluded (they can no longer be served).
        """
        return list(self._messages)

    def summary(self) -> Tuple[int, int]:
        """``(count, hash)`` of the retained identities, in O(1).

        The hash is the XOR of :func:`id_hash` over what :meth:`digest`
        would list, so equal summaries mean equal digests up to a 64-bit
        collision -- what the batched pull round sends instead of the
        list (docs/WIRE.md, "Batched frames").
        """
        return len(self._messages), self._retained_hash

    def missing_from(self, remote_digest: Iterable[str]) -> List[str]:
        """Identities in ``remote_digest`` that this store does not remember."""
        current = self._seen_current
        previous = self._seen_previous
        return [
            message_id
            for message_id in remote_digest
            if message_id not in current and message_id not in previous
        ]

    def not_in(self, remote_digest: Iterable[str]) -> List[str]:
        """Retained identities absent from ``remote_digest``."""
        remote = set(remote_digest)
        return [message_id for message_id in self._messages if message_id not in remote]

    def seen_identities(self) -> List[str]:
        """Every identity currently remembered (both generations)."""
        return sorted(self._seen_current | self._seen_previous)

    @property
    def seen_count(self) -> int:
        # The generations are kept disjoint (an identity is only added to
        # current when absent from both), except for retained payloads
        # re-pinned across a rotation.
        return len(self._seen_current | self._seen_previous)

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message_id: str) -> bool:
        return not self.is_new(message_id)
