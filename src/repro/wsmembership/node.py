"""A simulated node running WS-Membership."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.scheduling import ProcessScheduler
from repro.simnet.network import Network
from repro.transport.inmem import WsProcess
from repro.wsmembership.engine import MembershipEngine
from repro.wsmembership.service import MembershipService


class MembershipNode(WsProcess):
    """Node hosting the membership engine and its endpoint.

    Also usable as a mixin-style base: any WsProcess subclass can host the
    same engine/service pair to add failure management to its stack.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        period: float = 1.0,
        fanout: int = 2,
        t_fail: float = 5.0,
        t_cleanup: Optional[float] = None,
    ) -> None:
        super().__init__(name, network)
        self.membership = MembershipEngine(
            runtime=self.runtime,
            scheduler=ProcessScheduler(self),
            self_address=self.runtime.base_address,
            period=period,
            fanout=fanout,
            t_fail=t_fail,
            t_cleanup=t_cleanup,
            rng=self.sim.rng.get(f"membership:{name}"),
        )
        self.runtime.add_service("/membership", MembershipService(self.membership))

    def on_start(self) -> None:
        self.membership.start()

    def on_recover(self) -> None:
        # Crash-recovery: resume heartbeating; peers will see the heartbeat
        # progress again and un-suspect us.
        self.membership.stop()
        self.membership.start()

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Introduce known members to this node's table."""
        self.membership.bootstrap(seeds)
