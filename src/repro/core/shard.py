"""Parent-side facade for a sharded gossip deployment.

:class:`ShardedGossipGroup` presents (a subset of) the
:class:`~repro.core.api.GossipGroup` surface -- ``setup`` / ``publish`` /
``run_for`` / the delivery measurements -- while the simulation itself runs
in K worker processes driven by a
:class:`~repro.simnet.shard.ShardCluster`.  The parent holds no simulator:
it orchestrates the Figure-1 handshake by command (activation on the
initiator's shard, subscription everywhere, eager join, view refresh) and
advances simulated time through the conservative barrier loop.

Use ``GossipConfig(shards=K).build()`` rather than instantiating this
directly; ``shards=1`` builds the plain single-process group, whose wire
behaviour is byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.message import GossipStyle
from repro.core.params import ParamError
from repro.core.shardworker import gossip_shard_worker, topology_names
from repro.obs.hub import MetricsHub, default_hub
from repro.simnet.latency import FixedLatency
from repro.simnet.shard import ShardCluster, ShardPlan, compute_lookahead


class ShardedGossipGroup:
    """One WS-Gossip deployment simulated across K worker processes."""

    def __init__(self, config: Any) -> None:
        if config.adaptive:
            raise ParamError(
                "shards",
                "adaptive control is not supported with shards > 1 (the "
                "controller reads one process-local hub); run adaptive "
                "scenarios with shards=1",
            )
        if config.telemetry is not None:
            raise ParamError(
                "shards",
                "telemetry is not supported with shards > 1 (the workers "
                "emit no trace sections and the rollups read one "
                "process-local hub); run telemetry scenarios with shards=1",
            )
        self.config = config
        try:
            self.plan = ShardPlan(
                topology_names(config.n_disseminators, config.n_consumers),
                config.shards,
            )
        except ValueError as exc:
            raise ParamError("shards", str(exc)) from exc
        latency = config.latency if config.latency is not None else FixedLatency(0.001)
        try:
            self.lookahead = compute_lookahead(latency)
        except ValueError as exc:
            raise ParamError("latency", str(exc)) from exc
        self.cluster = ShardCluster(
            self.plan,
            self.lookahead,
            gossip_shard_worker,
            (config.to_dict(),),
        )
        self._coord_shard = self.plan.shard_of("coordinator")
        self._init_shard = self.plan.shard_of("initiator")
        self.activity_id: Optional[str] = None
        self._setup_done = False

    # -- topology ------------------------------------------------------------

    @property
    def population(self) -> int:
        """Number of application endpoints (initiator + d* + c*)."""
        return 1 + self.config.n_disseminators + self.config.n_consumers

    @property
    def barriers(self) -> int:
        """Barrier windows executed so far (sync-overhead diagnostics)."""
        return self.cluster.barriers

    @property
    def now(self) -> float:
        return self.cluster.now

    def worker_busy(self) -> List[float]:
        """Cumulative per-shard window-execution CPU seconds.

        ``max(worker_busy())`` is the critical path: the wall-clock a
        strong-scaling run approaches when every shard has its own core.
        """
        return list(self.cluster.busy)

    # -- orchestration -------------------------------------------------------

    def _state(self, shard_index: int) -> Dict[str, Any]:
        return self.cluster.command(shard_index, {"op": "state"})

    def setup(self, settle: float = 2.0, eager_join: Optional[bool] = None) -> str:
        """Activate, subscribe and refresh -- GossipGroup.setup by command."""
        if self._setup_done:
            if self.activity_id is None:
                raise RuntimeError("previous setup did not complete")
            return self.activity_id
        self._setup_done = True

        addresses = self.cluster.command(self._coord_shard, {"op": "addresses"})

        for _ in range(5):  # activation is control traffic: retry on loss
            self.cluster.command(
                self._init_shard,
                {"op": "activate", "activation_address": addresses["activation"]},
            )
            self.run_for(settle)
            state = self._state(self._init_shard)
            if state["activity_id"] is not None:
                break
        if state["activity_id"] is None:
            raise RuntimeError("activation did not complete; is the coordinator up?")
        self.activity_id = state["activity_id"]

        for _ in range(5):  # subscriptions retried until acknowledged
            self.cluster.broadcast(
                {
                    "op": "subscribe",
                    "subscription_address": addresses["subscription"],
                    "activity_id": self.activity_id,
                }
            )
            self.run_for(settle)
            states = self.cluster.broadcast({"op": "state"})
            if not any(s["subscribe_pending"] for s in states):
                break

        style_name = self.config.params.get("style")
        style = GossipStyle(style_name) if style_name else GossipStyle.PUSH
        if eager_join is None:
            eager_join = style is not GossipStyle.PUSH
        if eager_join:
            context_xml = self._state(self._init_shard)["context"]
            self.cluster.broadcast({"op": "join", "context": context_xml})
            self.run_for(settle)

        for _ in range(5):  # the refresh reply rides the same lossy fabric
            self.cluster.command(self._init_shard, {"op": "refresh_view"})
            self.run_for(settle)
            if self._state(self._init_shard)["view_ready"]:
                break
        return self.activity_id

    def publish(self, value: Any) -> str:
        """Disseminate one data item from the initiator."""
        if self.activity_id is None:
            raise RuntimeError("call setup() before publish()")
        reply = self.cluster.command(
            self._init_shard, {"op": "publish", "value": value}
        )
        return reply["message_id"]

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds (barrier loop)."""
        self.cluster.run_until(self.cluster.now + duration)

    # -- measurements --------------------------------------------------------

    def _measure(self, gossip_id: str) -> Dict[str, Any]:
        receivers: List[str] = []
        times: List[float] = []
        for reply in self.cluster.broadcast(
            {"op": "measure", "message_ids": [gossip_id]}
        ):
            receivers.extend(reply["receivers"][gossip_id])
            times.extend(reply["times"][gossip_id])
        return {"receivers": receivers, "times": times}

    def receivers(self, gossip_id: str) -> List[str]:
        """Names of nodes (initiator excluded) whose app saw the item."""
        return self._measure(gossip_id)["receivers"]

    def delivered_fraction(self, gossip_id: str) -> float:
        """Fraction of non-initiator app endpoints that received the item."""
        others = self.population - 1
        if others <= 0:
            return 1.0
        return len(self.receivers(gossip_id)) / others

    def is_atomic(self, gossip_id: str) -> bool:
        return self.delivered_fraction(gossip_id) >= 1.0

    def delivery_times(self, gossip_id: str) -> List[float]:
        """First-delivery times across receiving nodes (all shards)."""
        return self._measure(gossip_id)["times"]

    def merged_hub(self) -> MetricsHub:
        """A fresh hub holding the K shard hubs merged (see
        :meth:`~repro.obs.hub.MetricsHub.merge_snapshot` for the rules)."""
        hub = MetricsHub(parent=default_hub(), name="sharded-gossip-group")
        for reply in self.cluster.broadcast({"op": "hub"}):
            hub.merge_snapshot(reply["state"])
        return hub

    @property
    def hub(self) -> MetricsHub:
        """Merged-at-call-time observability hub."""
        return self.merged_hub()

    def message_counts(self) -> Dict[str, int]:
        """Network-level counters summed across every shard."""
        return self.merged_hub().counters()

    def trace_digests(self) -> List[Dict[str, Any]]:
        """Per-shard run digests (determinism checks; needs ``trace=True``)."""
        return [
            {
                "digest": reply["digest"],
                "trace_events": reply["trace_events"],
                "events_executed": reply["events_executed"],
            }
            for reply in self.cluster.broadcast({"op": "trace_digest"})
        ]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.cluster.close()

    def __enter__(self) -> "ShardedGossipGroup":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedGossipGroup(n={self.population}, "
            f"shards={self.plan.shards}, now={self.cluster.now:.3f}, "
            f"barriers={self.cluster.barriers})"
        )
