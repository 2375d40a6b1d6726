"""The worker-process side of a sharded gossip deployment.

:func:`gossip_shard_worker` is the module-level entry point
:class:`~repro.simnet.shard.ShardCluster` spawns (module-level so it is
picklable under every multiprocessing start method).  Each worker builds
a :class:`~repro.core.api.GossipGroup` *slice* -- ``GossipGroup(config=...,
shard=i)``, only the nodes its :class:`~repro.simnet.shard.ShardPlan`
assigns to it, on a private single-process simulator -- then serves the
parent's barrier windows and setup steps via
:func:`~repro.simnet.shard.shard_worker_loop`.

Determinism notes:

* Per-node RNG streams are derived from the master seed and the node
  name alone (``sim.rng.fork(name)`` inside the node stack), so a node
  makes the *same* protocol-level draws regardless of which shard it
  lands on or how many shards exist.
* The network's loss/latency stream is per-shard
  (``RngStreams.for_shard``): with K shards there are K independent
  fabric streams where a single-process run has one, which is why
  individual latency samples differ across shard counts while protocol
  behaviour does not.
* The coordination context crosses shard boundaries as its canonical
  XML (:meth:`~repro.wscoord.context.CoordinationContext.to_element`),
  the same encoding it has on the wire.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.api import GossipConfig, GossipGroup
from repro.simnet.shard import shard_worker_loop


def gossip_shard_worker(
    conn: Any, shard_index: int, config_dict: Dict[str, Any]
) -> None:
    """Process entry point: build the slice, report ready, serve commands."""
    try:
        group = GossipGroup(
            config=GossipConfig.from_dict(config_dict), shard=shard_index
        )
    except Exception as exc:
        try:
            conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            return
    conn.send(
        {
            "ok": True,
            "egress": group.egress.drain(),
            "next": group.sim._queue.peek_time(),
        }
    )
    shard_worker_loop(conn, group)
