"""Heartbeat-gossip membership engine."""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.core.params import ParamError
from repro.core.scheduling import PeriodicLoop, Scheduler
from repro.soap import namespaces as ns
from repro.soap.runtime import SoapRuntime
from repro.transport.base import split_address
from repro.wsmembership.view import MemberStatus, MembershipView

UPDATE_ACTION = f"{ns.WSMEMBERSHIP}/Update"
MEMBERSHIP_SERVICE_PATH = "/membership"


def membership_address_of(address: str) -> str:
    """A node's membership endpoint, from any of its addresses."""
    scheme, authority, _ = split_address(address)
    return f"{scheme}://{authority}{MEMBERSHIP_SERVICE_PATH}"


class MembershipEngine:
    """Runs heartbeat gossip and the failure detector for one node.

    Args:
        runtime: the node's SOAP runtime.
        scheduler: timer source.
        self_address: identity gossiped to others (base or app address).
        period: gossip period (heartbeat + table exchange).
        fanout: how many members each round's table is sent to.
        t_fail: staleness (seconds) before a member is SUSPECT.
        t_cleanup: staleness before a member is FAILED; per Vogels & Re
            this should be well above ``t_fail`` (default 2x).
        on_failure: optional callback ``(address)`` on new failures.
    """

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        self_address: str,
        period: float = 1.0,
        fanout: int = 2,
        t_fail: float = 5.0,
        t_cleanup: Optional[float] = None,
        rng: Optional[random.Random] = None,
        jitter: float = 0.1,
        on_failure: Optional[Callable[[str], None]] = None,
    ) -> None:
        if period <= 0:
            raise ParamError("period", f"period must be positive: {period!r}")
        if fanout < 1:
            raise ParamError("fanout", f"fanout must be >= 1: {fanout!r}")
        if t_fail <= period:
            raise ParamError(
                "t_fail",
                f"t_fail ({t_fail}) must exceed the gossip period ({period})",
            )
        if t_cleanup is not None and t_cleanup < t_fail:
            raise ParamError(
                "t_cleanup",
                f"t_cleanup ({t_cleanup}) must be >= t_fail ({t_fail})",
            )
        if jitter < 0:
            raise ParamError("jitter", f"jitter must be non-negative: {jitter!r}")
        self.runtime = runtime
        self.scheduler = scheduler
        self.view = MembershipView(self_address)
        self.fanout = fanout
        self.t_fail = t_fail
        self.t_cleanup = t_cleanup if t_cleanup is not None else 2.0 * t_fail
        self.rng = rng if rng is not None else random.Random()
        self.on_failure = on_failure
        self._loop = PeriodicLoop(
            scheduler, self.rng, lambda: (period, jitter), self._round
        )

    @property
    def self_address(self) -> str:
        return self.view.self_address

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Introduce known members (their heartbeats start at 0)."""
        now = self.scheduler.now
        self.view.merge(
            [{"address": seed, "heartbeat": 0} for seed in seeds if seed], now
        )

    def start(self) -> None:
        """Begin heartbeating and gossiping the table."""
        self._loop.start()

    def stop(self) -> None:
        """Stop heartbeating."""
        self._loop.stop()

    def rejoin(self, seeds: Sequence[str]) -> None:
        """Restart membership after a crash-faithful process restart.

        The pre-crash table is process state and is discarded: the node
        comes back with a fresh view seeded only by ``seeds``, announces
        itself through normal heartbeat gossip, and relearns the group --
        peers meanwhile resolve the node's old incarnation through the
        ordinary SUSPECT/FAILED sweep and its new heartbeats.
        """
        self.view = MembershipView(self.view.self_address)
        self.bootstrap(seeds)
        self.runtime.metrics.counter("membership.rejoin").inc()
        self.stop()
        self.start()

    def _round(self) -> None:
        now = self.scheduler.now
        self.view.beat(now)
        self._gossip_table()
        newly_failed = self.view.sweep(now, self.t_fail, self.t_cleanup)
        for address in newly_failed:
            self.runtime.metrics.counter("membership.failed").inc()
            if self.on_failure is not None:
                self.on_failure(address)

    def _gossip_table(self) -> None:
        candidates = [
            address
            for address in self.view.members()
            if address != self.self_address
            and self.view.status_of(address) is not MemberStatus.SUSPECT
        ]
        if not candidates:
            return
        count = min(self.fanout, len(candidates))
        targets = self.rng.sample(candidates, count)
        snapshot = self.view.snapshot()
        for target in targets:
            self.runtime.metrics.counter("membership.gossip").inc()
            self.runtime.send(
                membership_address_of(target),
                UPDATE_ACTION,
                value={"from": self.self_address, "table": snapshot},
            )

    def receive_update(self, table: List[dict]) -> int:
        """Merge a gossiped table; returns rows progressed."""
        return self.view.merge(table, self.scheduler.now)

    def alive_members(self) -> List[str]:
        """Live membership view (plugs into gossip engines as peer view)."""
        return [
            address
            for address in self.view.alive_members()
            if address != self.self_address
        ]
