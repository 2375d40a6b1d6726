"""Peer-selection strategies.

Epidemic reliability analysis assumes targets are chosen *uniformly at
random*; that strategy is the default.  The selector abstraction exists so
experiments can ablate alternatives (e.g. origin-avoiding selection) and so
the peer-sampling service can plug in partial views.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence


class PeerSelector:
    """Strategy interface: pick gossip targets from a view."""

    def select(
        self,
        view: Sequence[str],
        fanout: int,
        rng: random.Random,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Pick up to ``fanout`` distinct targets from ``view``."""
        raise NotImplementedError


class UniformSelector(PeerSelector):
    """Uniform sampling without replacement (the analysis-matching default)."""

    def select(
        self,
        view: Sequence[str],
        fanout: int,
        rng: random.Random,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Sample ``fanout`` peers uniformly without replacement.

        Large views take a rejection-sampling path: copying and filtering
        a 10k-entry view to pick 6 peers would make every gossip round
        O(N).  Both paths draw uniformly without replacement; they differ
        only in rng consumption.
        """
        excluded = set(exclude)
        size = len(view)
        if size >= 4 * (fanout + len(excluded)) and fanout > 0:
            chosen: List[str] = []
            seen = set(excluded)
            # Each draw hits an unseen peer with probability > 3/4, so
            # the attempt budget fails only with negligible probability;
            # the filtering path below remains the correctness backstop.
            attempts = 8 * fanout + 16
            while len(chosen) < fanout and attempts > 0:
                attempts -= 1
                peer = view[rng.randrange(size)]
                if peer in seen:
                    continue
                seen.add(peer)
                chosen.append(peer)
            if len(chosen) == fanout:
                return chosen
        candidates = [peer for peer in view if peer not in excluded]
        if fanout >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, fanout)


class LocalityAwareSelector(PeerSelector):
    """Prefer same-site peers, with a tunable trickle of remote choices.

    WAN deployments pay for every cross-site message; directing most
    fanout locally and only ``remote_probability`` of choices across
    sites cuts cross-DC traffic dramatically while the trickle keeps the
    epidemic bridged (experiment E13 quantifies the trade-off).

    Args:
        site_of: maps a peer address to its site name.
        self_site: the selecting node's own site.
        remote_probability: chance that each selected slot is filled from
            a remote site instead of the local one.
    """

    def __init__(self, site_of, self_site: str, remote_probability: float = 0.2) -> None:
        if not 0.0 <= remote_probability <= 1.0:
            raise ValueError(
                f"remote_probability must be in [0, 1]: {remote_probability!r}"
            )
        self._site_of = site_of
        self._self_site = self_site
        self._remote_probability = remote_probability
        self._uniform = UniformSelector()

    def select(
        self,
        view: Sequence[str],
        fanout: int,
        rng: random.Random,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Fill slots locally, crossing sites with ``remote_probability``."""
        excluded = set(exclude)
        local = [
            peer for peer in view
            if peer not in excluded and self._site_of(peer) == self._self_site
        ]
        remote = [
            peer for peer in view
            if peer not in excluded and self._site_of(peer) != self._self_site
        ]
        chosen: List[str] = []
        for _ in range(fanout):
            want_remote = remote and (
                not local or rng.random() < self._remote_probability
            )
            pool = remote if want_remote else local
            if not pool:
                break
            peer = rng.choice(pool)
            pool.remove(peer)
            chosen.append(peer)
        return chosen


class HealthAwareSelector(PeerSelector):
    """Down-weight suspected peers: healthy targets first, suspects last.

    Wraps any inner selector (uniform by default).  Slots are filled from
    the unsuspected part of the view; only when the healthy pool cannot
    satisfy the fanout are suspected peers admitted -- which doubles as
    the re-admission path: a recovered peer's score decays below the
    threshold and it silently rejoins the healthy pool.

    Args:
        health: the node's :class:`~repro.core.health.PeerHealth`.
        inner: the strategy applied within each pool.
    """

    def __init__(self, health, inner: Optional[PeerSelector] = None) -> None:
        self._health = health
        self._inner = inner if inner is not None else UniformSelector()

    def select(
        self,
        view: Sequence[str],
        fanout: int,
        rng: random.Random,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Fill from healthy peers; top up from suspected ones if short."""
        excluded = set(exclude)
        candidates = [peer for peer in view if peer not in excluded]
        healthy, suspected = self._health.partition(candidates)
        chosen = self._inner.select(healthy, fanout, rng)
        shortfall = fanout - len(chosen)
        if shortfall > 0 and suspected:
            chosen.extend(self._inner.select(suspected, shortfall, rng))
        return chosen


class RoundRobinSelector(PeerSelector):
    """Deterministic rotation through the view.

    Used by ablations: it removes randomization, demonstrating why the
    epidemic analysis requires uniform choice (correlated failures knock
    out fixed dissemination paths).
    """

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        view: Sequence[str],
        fanout: int,
        rng: random.Random,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Rotate deterministically through the (filtered) view."""
        excluded = set(exclude)
        candidates = [peer for peer in view if peer not in excluded]
        if not candidates:
            return []
        count = min(fanout, len(candidates))
        chosen = [
            candidates[(self._cursor + index) % len(candidates)]
            for index in range(count)
        ]
        self._cursor = (self._cursor + count) % len(candidates)
        return chosen


class CoordinatorView:
    """The default view stage: the peers the coordinator's
    RegisterResponse supplied (``engine.view``); joining is registering."""

    __slots__ = ()

    def peers(self, engine) -> List[str]:
        return list(engine.view)

    def ready(self, engine) -> bool:
        return engine.registered

    def join(self, engine, protocol: str) -> None:
        if not engine.registered and not engine.register_pending:
            engine.register(protocol)


COORDINATOR_VIEW = CoordinatorView()


class ProvidedView:
    """A view stage fed by ``provider`` (peer sampling, WS-Membership, a
    static list): no coordinator, so joining starts the periodic rounds."""

    __slots__ = ("provider",)

    def __init__(self, provider: Callable[[], Sequence[str]]) -> None:
        self.provider = provider

    def peers(self, engine) -> List[str]:
        return list(self.provider())

    def ready(self, engine) -> bool:
        return True

    def join(self, engine, protocol: str) -> None:
        engine.start_periodic_rounds()
