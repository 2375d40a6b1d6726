"""Parent-side facade for a sharded gossip deployment.

:class:`ShardedGossipGroup` runs the same Figure-1 script as
:class:`~repro.core.api.GossipGroup` -- ``setup`` / ``publish`` / the
delivery measurements all come from their shared base,
:class:`~repro.core.api.GroupScript` -- while the simulation itself runs
in K worker processes driven by a
:class:`~repro.simnet.shard.ShardCluster`.  Each worker holds a
``GossipGroup`` slice (``GossipGroup(config=..., shard=i)``); the parent
holds no simulator, sends each setup step as a command to the slice
holding the node it acts on (or to every slice), and advances simulated
time through the conservative barrier loop.

Use ``GossipConfig(shards=K).build()`` rather than instantiating this
directly; ``shards=1`` builds the plain single-process group, whose wire
behaviour is byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.api import GroupScript, topology_names
from repro.core.params import ParamError
from repro.core.shardworker import gossip_shard_worker
from repro.obs.hub import MetricsHub
from repro.simnet.latency import FixedLatency
from repro.simnet.shard import ShardCluster, ShardPlan, compute_lookahead


class ShardedGossipGroup(GroupScript):
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

    # -- topology ------------------------------------------------------------

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

    # -- the GroupScript primitives -------------------------------------------

    def _on(self, node: str, step: str, **args: Any) -> Dict[str, Any]:
        return self.cluster.command(self.plan.shard_of(node), {"op": step, **args})

    def _each(self, step: str, **args: Any) -> List[Dict[str, Any]]:
        return self.cluster.broadcast({"op": step, **args})

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds (barrier loop)."""
        self.cluster.run_until(self.cluster.now + duration)

    # -- measurements --------------------------------------------------------

    def receivers(self, gossip_id: str) -> List[str]:
        """Names of nodes (initiator excluded) whose app saw the item."""
        return self._measure(gossip_id)["receivers"]

    def merged_hub(self) -> MetricsHub:
        """A fresh, detached hub holding the K shard hubs merged (see
        :meth:`~repro.obs.hub.MetricsHub.merge_snapshot` for the rules).

        Detached (``parent=None``): every read merges anew, so a parent
        would be handed the same totals again on each read."""
        return MetricsHub.merged(
            (reply["state"] for reply in self._each("hub")),
            name="sharded-gossip-group",
        )

    @property
    def hub(self) -> MetricsHub:
        """Merged-at-call-time observability hub."""
        return self.merged_hub()

    def message_counts(self) -> Dict[str, int]:
        """Network-level counters summed across every shard."""
        return self.merged_hub().counters()

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
