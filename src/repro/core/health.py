"""Peer-health: adaptive failure suspicion feeding degraded-mode gossip.

The epidemic analysis (paper, Section 2) assumes every selected target is
a live process; fanout spent on crashed peers is silently wasted and the
effective infection rate drops below the configured ``f``.  This module
closes that gap with a lightweight phi-accrual-style detector:

* every failed send adds :data:`FAILURE_WEIGHT` to the destination's
  *suspicion score*;
* the score decays exponentially with half-life ``half_life`` (absence of
  evidence slowly restores trust);
* any positive evidence -- a successful send, or gossip *received from*
  the peer -- subtracts :data:`SUCCESS_RELIEF` immediately;
* the membership detector's verdict (:class:`~repro.wsmembership.engine.
  MembershipEngine` ``on_failure``) pins the score above threshold at
  once (hard evidence beats accrual).

A peer whose score exceeds ``suspicion_threshold`` is *suspected*.
Degraded-mode gossip then (a) prefers unsuspected peers when selecting
targets (:class:`HealthAwareSelector`) and (b) raises the effective
fanout in proportion to the suspected fraction of the view, capped at
:data:`BOOST_CAP` (:meth:`PeerHealth.effective_fanout`) -- so the *expected
number of live infections per round* stays close to the configured
fanout even while a third of the population is down.

Scores are keyed by node base address (``scheme://authority``), the same
key the transport circuit breakers use: all services of one node share
one health record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.params import Knobs, knob
from repro.core.peers import HealthAwareSelector, PeerSelector
from repro.transport.base import (
    BreakerPolicy,
    RetryPolicy,
    SendOutcome,
    split_address,
)

if TYPE_CHECKING:
    from repro.obs.hub import MetricsHub


#: Suspicion score added per observed send failure.
FAILURE_WEIGHT = 1.0
#: Suspicion score subtracted per positive observation.
SUCCESS_RELIEF = 1.0
#: Maximum multiplier applied to the configured fanout when the healthy
#: pool shrinks (bounds the traffic blow-up).
BOOST_CAP = 2.0
#: Transport-level resend attempts per message.
MAX_RETRIES = 1
#: Initial backoff before the first retry (seconds).
RETRY_BACKOFF = 0.05
#: Seconds an open breaker waits before the half-open probe that tests
#: recovery.
BREAKER_RESET = 5.0


@dataclass(frozen=True)
class HealthPolicy(Knobs):
    """Validated knobs of the peer-health layer.

    Attributes:
        suspicion_threshold: score above which a peer counts as suspected.
        half_life: seconds for an untouched score to halve.
        breaker_threshold: consecutive failures that open a destination's
            circuit breaker.
    """

    suspicion_threshold: float = knob(1.5, gt=0)
    half_life: float = knob(10.0, gt=0)
    breaker_threshold: int = knob(3, ge=1)

    # -- derived transport policies -----------------------------------------

    def retry_policy(self) -> RetryPolicy:
        """The transport retry policy this health policy implies."""
        return RetryPolicy(max_retries=MAX_RETRIES, backoff=RETRY_BACKOFF)

    def breaker_policy(self) -> BreakerPolicy:
        """The per-destination circuit-breaker policy this implies."""
        return BreakerPolicy(
            failure_threshold=self.breaker_threshold,
            reset_timeout=BREAKER_RESET,
        )


def key_of(address: str) -> str:
    """Normalize any peer address to its health key.

    Full endpoint addresses collapse to the node base
    (``scheme://authority``); bare names pass through -- so membership
    addresses, gossip ports and app endpoints of one node all share one
    health record.
    """
    if "://" not in address:
        return address
    scheme, authority, _ = split_address(address)
    return f"{scheme}://{authority}"


class PeerHealth:
    """Per-peer suspicion scores with exponential decay.

    One instance per node.  Evidence flows in from three sources:

    * the transport's structured send outcomes
      (:meth:`record_outcome`, registered via
      ``transport.add_outcome_listener``);
    * any inbound gossip traffic (:meth:`observe_alive` -- hearing from a
      peer is proof of life);
    * the WS-Membership failure detector (:meth:`mark_failed`, wired to
      ``MembershipEngine.on_failure``).

    Args:
        policy: the knobs (defaults used when omitted).
        clock: monotonic time source; inject the simulator clock inside
            experiments (defaults to :func:`time.monotonic`).
        hub: the hub the ``health`` counters go to (defaults to the
            process-wide default hub).
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        hub: Optional["MetricsHub"] = None,
    ) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        self._clock = clock if clock is not None else time.monotonic
        if hub is None:
            from repro.obs.hub import default_hub

            hub = default_hub()
        self._health = hub.health
        # key -> (score at `stamp`, stamp)
        self._scores: Dict[str, Tuple[float, float]] = {}
        self._suspected: set = set()

    # -- evidence in ---------------------------------------------------------

    def record_outcome(self, outcome: SendOutcome) -> None:
        """Transport listener: fold one send outcome into the score."""
        if outcome.ok:
            self.observe_alive(outcome.destination)
        else:
            self._add(key_of(outcome.destination), FAILURE_WEIGHT)

    def observe_alive(self, peer: str) -> None:
        """Positive evidence: a send succeeded or the peer was heard from."""
        self._add(key_of(peer), -SUCCESS_RELIEF)

    def mark_failed(self, peer: str) -> None:
        """Hard verdict from a failure detector: suspect immediately."""
        key = key_of(peer)
        now = self._clock()
        floor = self.policy.suspicion_threshold + FAILURE_WEIGHT
        score = max(self._decayed(key, now), floor)
        self._scores[key] = (score, now)
        self._reclassify(key, score)

    def forget(self, peer: str) -> None:
        """Drop all state about a peer (it left the system for good)."""
        key = key_of(peer)
        self._scores.pop(key, None)
        self._suspected.discard(key)

    def reset(self) -> None:
        """Drop every score (an amnesia restart forgets its suspicions;
        see the crash-recovery section of docs/RESILIENCE.md)."""
        self._scores.clear()
        self._suspected.clear()

    # -- queries -------------------------------------------------------------

    def suspicion(self, peer: str) -> float:
        """The peer's current (decayed) suspicion score."""
        return self._decayed(key_of(peer), self._clock())

    def is_suspected(self, peer: str) -> bool:
        """True when the score exceeds the policy threshold."""
        return self.suspicion(peer) > self.policy.suspicion_threshold

    def partition(
        self, view: Sequence[str]
    ) -> Tuple[List[str], List[str]]:
        """Split a peer view into (healthy, suspected) sublists."""
        healthy: List[str] = []
        suspected: List[str] = []
        for peer in view:
            (suspected if self.is_suspected(peer) else healthy).append(peer)
        return healthy, suspected

    def effective_fanout(self, fanout: int, view: Sequence[str]) -> int:
        """Fanout compensated for the suspected fraction of the view.

        With ``s`` of ``n`` view members suspected, scaling fanout by
        ``n / (n - s)`` keeps the expected number of *live* targets per
        round at the configured ``f``; the multiplier is capped at
        :data:`BOOST_CAP` so a mostly-dead view cannot cause a send storm.
        """
        if not view:
            return fanout
        healthy, suspected = self.partition(view)
        if not suspected or not healthy:
            # Nothing to compensate -- or nothing healthy to compensate
            # *with* (the selector will fall back to suspected peers).
            return fanout
        multiplier = min(BOOST_CAP, len(view) / len(healthy))
        boosted = int(round(fanout * multiplier))
        if boosted > fanout:
            self._health.fanout_boosts.inc()
        return max(fanout, boosted)

    def selector(self, inner: PeerSelector) -> PeerSelector:
        """``inner`` in degraded mode: unsuspected peers first."""
        if isinstance(inner, HealthAwareSelector):
            return inner
        return HealthAwareSelector(self, inner)

    def suspected_peers(self) -> List[str]:
        """Every key currently over threshold (refreshes decayed entries)."""
        now = self._clock()
        for key in list(self._scores):
            self._reclassify(key, self._decayed(key, now))
        return sorted(self._suspected)

    def snapshot(self) -> Dict[str, float]:
        """Current decayed score per known peer (diagnostics)."""
        now = self._clock()
        return {key: self._decayed(key, now) for key in self._scores}

    # -- internals -----------------------------------------------------------

    def _decayed(self, key: str, now: float) -> float:
        entry = self._scores.get(key)
        if entry is None:
            return 0.0
        score, stamp = entry
        elapsed = max(0.0, now - stamp)
        if elapsed == 0.0:
            return score
        return score * 0.5 ** (elapsed / self.policy.half_life)

    def _add(self, key: str, delta: float) -> None:
        now = self._clock()
        score = max(0.0, self._decayed(key, now) + delta)
        if score == 0.0 and key not in self._suspected:
            # Keep the table tight: fully-recovered unsuspected peers need
            # no entry (absence already means "score 0").
            self._scores.pop(key, None)
        else:
            self._scores[key] = (score, now)
        self._reclassify(key, score)

    def _reclassify(self, key: str, score: float) -> None:
        suspected = score > self.policy.suspicion_threshold
        if suspected and key not in self._suspected:
            self._suspected.add(key)
            self._health.peers_suspected.inc()
        elif not suspected and key in self._suspected:
            self._suspected.discard(key)
            self._health.peers_restored.inc()

    def __repr__(self) -> str:
        return (
            f"PeerHealth(known={len(self._scores)}, "
            f"suspected={len(self._suspected)})"
        )


class NoHealth:
    """The health stage without the peer-health layer: every peer is
    healthy and no evidence is kept."""

    __slots__ = ()

    def _nothing(self, *_args) -> None:
        pass

    observe_alive = mark_failed = reset = _nothing

    def effective_fanout(self, fanout: int, view: Sequence[str]) -> int:
        return fanout

    def suspected_peers(self) -> List[str]:
        return []

    def selector(self, inner: PeerSelector) -> PeerSelector:
        return inner


NO_HEALTH = NoHealth()


def install_health(
    nodes: Iterable[Any],
    policy: HealthPolicy,
    clock: Callable[[], float],
    hub: "MetricsHub",
) -> None:
    """Put each gossip node of a simulated group under ``policy``.

    Every node gets its own :class:`PeerHealth`, fed by each send outcome
    of a transport that now retries and breaks per destination, and its
    gossip layer selects peers in degraded mode.
    """
    for node in nodes:
        health = PeerHealth(policy, clock=clock, hub=hub)
        node.runtime.transport.configure_resilience(
            retry=policy.retry_policy(), breaker=policy.breaker_policy()
        )
        node.runtime.transport.add_outcome_listener(health.record_outcome)
        node.gossip_layer.health = health
