"""Overload protection: policy knobs, token buckets, and the shed ladder.

The paper positions WS-Gossip as middleware that must stay scalable "even
in large-scale settings"; device-scale deployments die not from steady
load but from bursts that exceed node capacity.  This module holds the
validated :class:`OverloadPolicy` (opt-in via
``GossipConfig(overload=...)``), the deterministic :class:`TokenBucket`
used by both the edge admission gate and the engine's ingest gate, and
:class:`OverloadError`, the backpressure signal raised at the hard limit.

The shed-priority ladder (cheapest first -- see docs/RESILIENCE.md,
"Overload and backpressure"):

1. **Digests / duplicate advertisements** (``shed_digest``) -- periodic
   pull digests and lazy-push ads are re-sent every period; dropping one
   costs a round of latency, never data.
2. **Feedback** (``shed_feedback``) -- feedback-style stop signals only
   modulate redundancy.
3. **Pull responses** (``shed_pull``) -- the requester re-pulls next
   period.
4. **Eager rumor payloads** -- only at the hard limit (pressure 1.0);
   shedding these costs actual dissemination work, so everything else
   goes first.

Each rung names the *pressure* (queue fill fraction, in ``[0, 1]``) at or
above which that class is shed; the ladder must be ordered
``shed_digest <= shed_feedback <= shed_pull <= 1.0``.  Hysteresis: once
pressure crosses ``high_watermark`` the node counts itself overloaded
until pressure falls back below ``low_watermark``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import Knobs, ParamError, knob


class OverloadError(RuntimeError):
    """Backpressure: the local node refused work because it is overloaded.

    Raised by ``GossipEngine.publish`` when the outbox hard limit is hit
    with an :class:`OverloadPolicy` active, and used by the edges to map
    admission refusals onto 429 responses.  Carries ``retry_after`` so
    callers can back off for the advertised interval instead of retrying
    into the storm.
    """

    def __init__(self, reason: str, *, pressure: float = 1.0,
                 retry_after: float = 1.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.pressure = pressure
        self.retry_after = retry_after


@dataclass(frozen=True)
class OverloadPolicy(Knobs):
    """Validated knobs of the overload-protection subsystem.

    Attributes:
        outbox_bound: max frames queued across a node's per-destination
            outboxes before the send path starts shedding; the *hard*
            limit at which even eager rumor payloads are refused.
        ingest_capacity: max undrained frames in the bounded ingest
            queue; arrivals past it are shed by the same ladder.
        high_watermark: queue fill fraction at which the node declares
            itself overloaded (pressure signal asserted, shedding per the
            ladder below).
        low_watermark: fill fraction pressure must fall below before the
            overloaded flag clears (hysteresis -- must be < high).
        shed_digest: pressure at which duplicate advertisements and
            periodic digests are shed (cheapest rung, shed first).
        shed_feedback: pressure at which feedback frames are shed.
        shed_pull: pressure at which pull responses are shed.  The
            ladder must be ordered ``shed_digest <= shed_feedback <=
            shed_pull <= 1.0``; eager rumor payloads only shed at 1.0.
        admission_rate: edge token-bucket refill, accepted
            ``POST /v1/gossip`` requests per second (per edge node).
        admission_burst: token-bucket depth -- how many back-to-back
            requests the edge absorbs before 429ing.
        retry_after: seconds advertised in the 429 ``Retry-After``
            header (and in :class:`OverloadError`).
    """

    outbox_bound: int = knob(256, ge=1)
    ingest_capacity: int = knob(256, ge=1)
    high_watermark: float = knob(0.8, gt=0, le=1)
    low_watermark: float = knob(0.5, gt=0)
    shed_digest: float = knob(0.6, gt=0, le=1)
    shed_feedback: float = knob(0.75, gt=0, le=1)
    shed_pull: float = knob(0.9, gt=0, le=1)
    admission_rate: float = knob(500.0, gt=0)
    admission_burst: int = knob(64, ge=1)
    retry_after: float = knob(1.0, gt=0)

    def _check(self) -> None:
        if not self.low_watermark < self.high_watermark:
            raise ParamError(
                "low_watermark",
                f"low_watermark must be < high_watermark: "
                f"{self.low_watermark!r} (high={self.high_watermark!r})",
            )
        if not self.shed_digest <= self.shed_feedback <= self.shed_pull:
            raise ParamError(
                "shed_feedback"
                if self.shed_feedback < self.shed_digest
                else "shed_pull",
                "shed ladder must be ordered shed_digest <= shed_feedback <= "
                f"shed_pull: {self.shed_digest!r}, {self.shed_feedback!r}, "
                f"{self.shed_pull!r}",
            )


#: The shed-ladder classes, cheapest first (docs/RESILIENCE.md).
SHED_CLASSES = ("digest", "feedback", "pull", "payload")


def threshold_for(policy: OverloadPolicy, shed_class: str) -> float:
    """The pressure at which ``shed_class`` traffic is shed under
    ``policy`` (payloads -- and any unknown class -- only at 1.0)."""
    if shed_class == "digest":
        return policy.shed_digest
    if shed_class == "feedback":
        return policy.shed_feedback
    if shed_class == "pull":
        return policy.shed_pull
    return 1.0


class TokenBucket:
    """A deterministic token bucket; the caller supplies the clock.

    Passing ``now`` explicitly keeps the bucket usable from both the
    discrete-event simulator (scheduler time) and the real-network edges
    (``time.monotonic``), and keeps seeded runs reproducible.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ParamError("admission_rate", f"rate must be positive: {rate!r}")
        if burst < 1:
            raise ParamError("admission_burst", f"burst must be >= 1: {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = None

    def _refill(self, now: float) -> None:
        if self._last is None:
            self._last = now
            return
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    #: Slack absorbing float rounding in refill arithmetic.  Without it a
    #: caller that sleeps exactly ``retry_after`` can wake to a balance of
    #: ``amount - 1e-16`` tokens, be refused again, and compute a next
    #: retry so small that ``now + retry == now`` -- a live-lock under a
    #: discrete-event clock.
    EPSILON = 1e-9

    def admit(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; ``False`` means shed."""
        self._refill(now)
        if self._tokens >= amount - self.EPSILON:
            self._tokens = max(0.0, self._tokens - amount)
            return True
        return False

    def retry_after(self, now: float, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will be available."""
        self._refill(now)
        deficit = amount - self._tokens
        if deficit <= self.EPSILON:
            return 0.0
        return deficit / self.rate

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate}, burst={self.burst}, "
            f"tokens={self._tokens:.2f})"
        )
