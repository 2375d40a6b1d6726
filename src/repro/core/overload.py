"""Overload protection: the policy, token buckets, and the shed ladder.

The paper positions WS-Gossip as middleware that must stay scalable "even
in large-scale settings"; device-scale deployments die not from steady
load but from bursts that exceed node capacity.  This module holds the
validated :class:`OverloadPolicy` (opt-in via
``GossipConfig(overload=...)``), the deterministic :class:`TokenBucket`
used by both the edge admission gate and the engine's ingest gate,
:class:`OverloadError`, the backpressure signal raised at the hard limit,
and :class:`OverloadStage`, the shed ladder both bounded queues run.

The shed-priority ladder (cheapest first -- see docs/RESILIENCE.md,
"Overload and backpressure"); :data:`SHED_THRESHOLDS` names the
*pressure* (queue fill fraction, in ``[0, 1]``) at or above which each
class is shed:

1. **Digests / duplicate advertisements** (0.6) -- periodic pull digests
   and lazy-push ads are re-sent every period; dropping one costs a round
   of latency, never data.
2. **Feedback** (0.75) -- feedback-style stop signals only modulate
   redundancy.
3. **Pull responses** (0.9) -- the requester re-pulls next period.
4. **Eager rumor payloads** -- only at the hard limit (pressure 1.0);
   shedding these costs actual dissemination work, so everything else
   goes first.

Hysteresis: once pressure crosses :data:`HIGH_WATERMARK` the node counts
itself overloaded until pressure falls back below :data:`LOW_WATERMARK`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.params import Knobs, ParamError, knob

#: Queue fill fraction at which a node declares itself overloaded
#: (pressure signal asserted, shedding per the ladder).
HIGH_WATERMARK = 0.8
#: Fill fraction pressure must fall below before the overloaded latch
#: clears (hysteresis: below :data:`HIGH_WATERMARK`).
LOW_WATERMARK = 0.5
#: Pressure at which each shed-ladder class is shed, cheapest first
#: (docs/RESILIENCE.md); eager rumor payloads only at the hard limit.
SHED_THRESHOLDS = {"digest": 0.6, "feedback": 0.75, "pull": 0.9, "payload": 1.0}
#: Edge token-bucket refill: accepted ``POST /v1/gossip`` requests per
#: second, per edge node.
ADMISSION_RATE = 500.0
#: Edge token-bucket depth: back-to-back requests absorbed before 429ing.
ADMISSION_BURST = 64
#: Seconds advertised in the 429 ``Retry-After`` header (and in
#: :class:`OverloadError`).
RETRY_AFTER = 1.0


class OverloadError(RuntimeError):
    """Backpressure: the local node refused work because it is overloaded.

    Raised by ``GossipEngine.publish`` when the outbox hard limit is hit
    with an :class:`OverloadPolicy` active, and used by the edges to map
    admission refusals onto 429 responses.  Carries ``retry_after`` so
    callers can back off for the advertised interval instead of retrying
    into the storm.
    """

    def __init__(self, reason: str, *, pressure: float = 1.0,
                 retry_after: float = RETRY_AFTER) -> None:
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
    """

    outbox_bound: int = knob(256, ge=1)
    ingest_capacity: int = knob(256, ge=1)


#: The overload counter each shed-ladder class is counted under.
SHED_COUNTERS = {
    "digest": "shed_digests",
    "feedback": "shed_feedback",
    "pull": "shed_pull",
    "payload": "shed_payloads",
}


def _no_pressure() -> float:
    return 0.0


class OverloadStage:
    """One bounded queue under an :class:`OverloadPolicy`, with its shed
    ladder.

    Its pressure is its fill, ``depth() / bound`` (at least ``floor()``;
    ``depth`` is a zero-arg callable, read only under a policy).
    :meth:`sheds` latches the queue ``overloaded`` when pressure reaches
    :data:`HIGH_WATERMARK` (counted once in ``overload.pressure_highs``)
    and holds the effective pressure at the watermark until raw pressure
    falls back below :data:`LOW_WATERMARK` -- so shedding does not flap at
    the boundary.  A shed is counted under :data:`SHED_COUNTERS`.

    A node runs one stage for its ingest queue and, from it, one per
    engine outbox (:meth:`outbox`: floored by the ingest pressure, so one
    signal covers both directions).  :data:`NO_OVERLOAD` stands in
    without a policy.
    """

    __slots__ = ("policy", "bound", "overloaded", "_counters", "_floor")

    def __init__(self, policy: OverloadPolicy, counters, bound: int,
                 floor: Callable[[], float] = _no_pressure) -> None:
        self.policy = policy
        self.bound = bound
        self.overloaded = False
        self._counters = counters
        self._floor = floor

    def outbox(self, floor: Callable[[], float]) -> "OverloadStage":
        """The stage of one engine's outbox, floored by ``floor``."""
        return OverloadStage(self.policy, self._counters,
                             self.policy.outbox_bound, floor)

    def pressure(self, depth: Callable[[], int]) -> float:
        return max(min(1.0, depth() / self.bound), self._floor())

    def sheds(self, depth: Callable[[], int], shed_class: str) -> bool:
        """True when ``shed_class`` traffic is dropped at this pressure."""
        pressure = self.pressure(depth)
        if not self.overloaded and pressure >= HIGH_WATERMARK:
            self.overloaded = True
            self._counters.pressure_highs.inc()
        elif self.overloaded and pressure < LOW_WATERMARK:
            self.overloaded = False
        if self.overloaded and pressure < HIGH_WATERMARK:
            pressure = HIGH_WATERMARK
        if pressure >= SHED_THRESHOLDS[shed_class]:
            getattr(self._counters, SHED_COUNTERS[shed_class]).inc()
            return True
        return False

    def refuses(self, depth: Callable[[], int], shed_class: str) -> bool:
        """The ingest gate's verdict on one more frame of ``shed_class``:
        shed by the ladder, or refused at the bound, which is absolute
        whatever the class (the memory guarantee)."""
        if self.sheds(depth, shed_class):
            return True
        if depth() >= self.bound:
            self._counters.shed_payloads.inc()
            return True
        return False

    def admitted(self) -> None:
        self._counters.admitted.inc()

    def reset(self) -> None:
        """A restart empties the queue; the latch clears with it."""
        self.overloaded = False


class NoOverload:
    """The overload stage without a policy: pressure 0.0, no bound, and
    nothing is shed or counted."""

    __slots__ = ()

    def outbox(self, floor: Callable[[], float]) -> "NoOverload":
        return self

    def pressure(self, depth: Callable[[], int]) -> float:
        return 0.0

    def sheds(self, depth: Callable[[], int], shed_class: str) -> bool:
        return False

    refuses = sheds

    def _nothing(self) -> None:
        pass

    admitted = reset = _nothing


NO_OVERLOAD = NoOverload()


class TokenBucket:
    """A deterministic token bucket; the caller supplies the clock.

    Passing ``now`` explicitly keeps the bucket usable from both the
    discrete-event simulator (scheduler time) and the real-network edges
    (``time.monotonic``), and keeps seeded runs reproducible.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ParamError("rate", f"rate must be positive: {rate!r}")
        if burst < 1:
            raise ParamError("burst", f"burst must be >= 1: {burst!r}")
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
