"""Conservative parallel discrete-event simulation across processes.

The single-process :class:`~repro.simnet.events.Simulator` executes every
event on one core, which caps the reachable population size.  This module
shards a simulation across ``K`` worker processes, classic conservative-PDES
style:

* **Partitioning** -- every node name is assigned to exactly one shard,
  either by a stable hash (``crc32(name) % K``, independent of Python's
  randomized string hashing) or an explicit partition map
  (:class:`ShardPlan`).
* **Lookahead** -- all cross-shard messages travel through the latency
  model, whose :meth:`~repro.simnet.latency.LatencyModel.min_delay` bounds
  any delay from below.  A message sent at time ``t`` therefore cannot
  arrive before ``t + L`` where ``L`` is the lookahead, so shards may
  safely run ``L`` ahead of each other without ever receiving a message
  from their past.
* **Barriers** -- the parent drives all workers in lockstep windows.  Each
  round it computes ``m``, the minimum over every shard's next pending
  event time and every routed-but-undelivered arrival time, and advances
  every shard to ``T = min(deadline, m + L)``.  No shard can *send* before
  ``m`` (sending happens inside an event), and nothing sent at or after
  ``m`` can *arrive* before ``m + L``, so every event in ``(now, T]`` is
  safe to execute.  Cross-shard envelopes produced during the window are
  collected at the barrier and routed to their destination shards for the
  next window.
* **Determinism** -- each worker is a plain single-process ``Simulator``
  (same seed-derived streams as an unsharded run), and the parent sorts
  each shard's inbound envelopes by ``(deliver_time, source_shard,
  sequence)`` before injection.  Same seed + same shard count => identical
  per-shard event order, traces and delivery sets.  Across *different*
  shard counts the delivered rumor set and per-node delivery counts are
  preserved (the protocol's RNG streams are per-node, not per-shard), but
  same-instant ties may interleave differently and the network's
  loss/latency streams are per-shard -- see docs/ARCHITECTURE.md,
  "Parallel simulation".

The module is deployment-agnostic: :class:`ShardCluster` only knows how to
spawn workers, run the barrier loop and route envelopes.  What a worker
*builds* is supplied by the caller as a module-level worker function; the
gossip one (:mod:`repro.core.shardworker`) builds a
:class:`~repro.core.api.GossipGroup` slice and serves it through
:func:`shard_worker_loop`, so a sharded run executes the same node code and
the same setup steps as a single-process one.
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.simnet.latency import LatencyModel

#: A cross-shard message, parent-routable and picklable:
#: ``(deliver_time, source, destination, payload, size, send_time)``.
#: Payloads are the already-encoded wire bytes the sender put on the
#: simulated network, so no re-serialization happens at the boundary.
Envelope = Tuple[float, str, str, Any, int, float]


class ShardWorkerError(RuntimeError):
    """A worker process reported an exception (message carries its repr)."""


class ShardPlan:
    """The node -> shard assignment for one sharded simulation.

    Args:
        node_names: every node in the simulation (order is preserved and
            used for ``members()``).
        shards: number of shards, ``>= 1``.
        partition_map: optional explicit ``{name: shard_index}``; must
            cover every node.  When omitted, nodes are hashed with
            ``crc32`` (stable across processes and Python runs).

    Raises:
        ValueError: on ``shards < 1``, duplicate node names, a partition
            map that omits nodes, or an out-of-range shard index.
        (Deploy helpers translate these into
        :class:`~repro.core.params.ParamError` naming the config key.)
    """

    def __init__(
        self,
        node_names: Iterable[str],
        shards: int,
        partition_map: Optional[Mapping[str, int]] = None,
    ) -> None:
        names = list(node_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names in shard plan")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ValueError(f"shards must be an integer >= 1: {shards!r}")
        self.shards = shards
        self.names: List[str] = names
        if partition_map is not None:
            missing = [name for name in names if name not in partition_map]
            if missing:
                raise ValueError(
                    f"partition map omits {len(missing)} node(s): "
                    f"{', '.join(sorted(missing)[:5])}"
                    f"{'...' if len(missing) > 5 else ''}"
                )
            assignment = {}
            for name in names:
                index = partition_map[name]
                if not isinstance(index, int) or not 0 <= index < shards:
                    raise ValueError(
                        f"partition map assigns {name!r} to shard {index!r}, "
                        f"need an integer in [0, {shards})"
                    )
                assignment[name] = index
            self._assignment = assignment
        else:
            self._assignment = {
                name: zlib.crc32(name.encode("utf-8")) % shards for name in names
            }

    def shard_of(self, name: str) -> Optional[int]:
        """The shard owning ``name``, or ``None`` for an unknown node."""
        return self._assignment.get(name)

    def members(self, shard_index: int) -> List[str]:
        """The nodes assigned to ``shard_index``, in declaration order."""
        return [n for n in self.names if self._assignment[n] == shard_index]

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    def __repr__(self) -> str:
        sizes = [len(self.members(k)) for k in range(self.shards)]
        return f"ShardPlan(shards={self.shards}, members={sizes})"


def compute_lookahead(
    latency: LatencyModel, link_models: Iterable[LatencyModel] = ()
) -> float:
    """The conservative lookahead for a fabric: the smallest ``min_delay``
    over the default model and every per-link override.

    Raises:
        ValueError: when the bound is not strictly positive -- conservative
            sharding needs every cross-shard message to take *some* time,
            otherwise no shard could ever safely run ahead.
    """
    bounds = [latency.min_delay()]
    bounds.extend(model.min_delay() for model in link_models)
    lookahead = min(bounds)
    if lookahead <= 0.0:
        raise ValueError(
            "sharded simulation needs a latency model with a strictly "
            f"positive minimum delay (lookahead), got {lookahead!r}; use "
            "e.g. FixedLatency/UniformLatency(low>0) or a positive floor"
        )
    return lookahead


class ShardEgress:
    """The cross-shard egress buffer a worker installs on its Network.

    ``Network.send`` calls :meth:`owns` for destinations with no local
    process; when the destination is a known node on *another* shard the
    message (with its fully drawn delivery time) is buffered here instead
    of being dropped.  The worker drains the buffer into its barrier reply.
    """

    def __init__(self, plan: ShardPlan, shard_index: int) -> None:
        self._plan = plan
        self.shard_index = shard_index
        self._buffer: List[Envelope] = []

    def owns(self, name: str) -> bool:
        """True when ``name`` is a plan member living on another shard."""
        shard = self._plan.shard_of(name)
        return shard is not None and shard != self.shard_index

    def emit(self, message: Any, deliver_time: float) -> None:
        self._buffer.append(
            (
                deliver_time,
                message.source,
                message.destination,
                message.payload,
                message.size,
                message.send_time,
            )
        )

    def drain(self) -> List[Envelope]:
        """The buffered envelopes, clearing the buffer."""
        out = self._buffer
        self._buffer = []
        return out


def shard_worker_loop(conn: Any, runtime: Any) -> None:
    """The generic worker main loop: serve parent commands until "stop".

    ``runtime`` supplies the deployment specifics (for gossip, a
    :class:`~repro.core.api.GossipGroup` slice):

    * ``runtime.sim`` -- the worker's :class:`Simulator`.
    * ``runtime.network`` -- the worker's :class:`Network` (egress hook
      installed).
    * ``runtime.egress`` -- the :class:`ShardEgress` to drain into replies.
    * ``runtime.activate()`` -- a context manager making the worker's
      metrics hub current (``contextlib.nullcontext()`` if unused).
    * ``runtime.handle(msg)`` -- deployment commands (the group's setup
      steps); returns the reply dict (``"ok"``/``"egress"``/``"next"`` are
      filled in here).  An exception becomes an ``ok: False`` reply and
      the loop keeps serving.

    Every reply carries ``next`` (the worker's earliest pending event time)
    so the parent can compute the global minimum ``m`` for the next
    barrier, ``egress`` (envelopes produced since the last reply -- commands
    can send synchronously, e.g. an activation request, not just windows),
    and ``busy`` (cumulative CPU seconds this worker has spent executing
    windows: the per-shard critical-path number strong-scaling benchmarks
    report -- CPU time, not wall, so co-scheduled workers on an
    oversubscribed host do not count each other's timeslices).
    """
    busy = 0.0
    try:
        while True:
            msg = conn.recv()
            op = msg.get("op")
            if op == "stop":
                conn.send({"ok": True})
                return
            reply: Dict[str, Any]
            try:
                with runtime.activate():
                    if op == "advance":
                        started = time.process_time()
                        for envelope in msg["inbound"]:
                            deliver_time, source, destination, payload, size, send_time = envelope
                            runtime.network.inject_ingress(
                                source, destination, payload, size, send_time, deliver_time
                            )
                        runtime.sim.run_until(msg["until"])
                        busy += time.process_time() - started
                        reply = {}
                    else:
                        reply = dict(runtime.handle(msg) or {})
            except Exception as exc:  # surface, don't kill the pipe
                conn.send(
                    {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "egress": runtime.egress.drain(),
                        "next": runtime.sim._queue.peek_time(),
                        "busy": busy,
                    }
                )
                continue
            reply.setdefault("ok", True)
            reply["egress"] = runtime.egress.drain()
            reply["next"] = runtime.sim._queue.peek_time()
            reply["busy"] = busy
            conn.send(reply)
    except (EOFError, KeyboardInterrupt):
        return


class ShardCluster:
    """Parent-side driver: spawns K workers and runs the barrier loop.

    Args:
        plan: the node assignment (workers receive only its inputs and
            rebuild it, so the parent and workers always agree).
        lookahead: cross-shard lookahead ``L`` from
            :func:`compute_lookahead`.
        worker: module-level function ``worker(conn, shard_index, *args)``
            that builds the shard and calls :func:`shard_worker_loop`.  It
            must send one ready reply ``{"ok": True, "next": ...}`` on
            ``conn`` after building (or ``{"ok": False, "error": ...}``).
        worker_args: extra picklable arguments for ``worker``.
    """

    def __init__(
        self,
        plan: ShardPlan,
        lookahead: float,
        worker: Callable[..., None],
        worker_args: Sequence[Any] = (),
    ) -> None:
        if lookahead <= 0.0:
            raise ValueError(f"lookahead must be positive: {lookahead!r}")
        self.plan = plan
        self.lookahead = float(lookahead)
        self.now = 0.0
        self.barriers = 0
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self._nexts: List[Optional[float]] = [None] * plan.shards
        #: Cumulative per-worker window-execution CPU seconds; the max is
        #: the critical path a strong-scaling run is bounded by.
        self.busy: List[float] = [0.0] * plan.shards
        self._pending: List[List[Tuple[Envelope, int, int]]] = [
            [] for _ in range(plan.shards)
        ]
        self._egress_seq = [0] * plan.shards
        self._closed = False
        # "fork" where available (fast worker startup), else the platform
        # default; the worker is module-level, so either start method works.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        try:
            for index in range(plan.shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=worker,
                    args=(child_conn, index, *worker_args),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for index, conn in enumerate(self._conns):
                self._absorb(index, conn.recv())
        except BaseException:
            self.close()
            raise

    # -- plumbing ------------------------------------------------------------

    def _absorb(self, shard_index: int, reply: Mapping[str, Any]) -> Dict[str, Any]:
        """Fold one worker reply into parent state; raise on worker error."""
        if not reply.get("ok", False):
            raise ShardWorkerError(
                f"shard {shard_index}: {reply.get('error', 'unknown error')}"
            )
        self._nexts[shard_index] = reply.get("next")
        self.busy[shard_index] = reply.get("busy", self.busy[shard_index])
        for envelope in reply.get("egress", ()):
            dest_shard = self.plan.shard_of(envelope[2])
            if dest_shard is None:  # unroutable: destination left the plan
                continue
            seq = self._egress_seq[shard_index]
            self._egress_seq[shard_index] = seq + 1
            self._pending[dest_shard].append((envelope, shard_index, seq))
        return dict(reply)

    def command(self, shard_index: int, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one command to one shard and absorb its reply."""
        conn = self._conns[shard_index]
        conn.send(dict(msg))
        return self._absorb(shard_index, conn.recv())

    def broadcast(self, msg: Mapping[str, Any]) -> List[Dict[str, Any]]:
        """Send one command to every shard (all sends first, then all
        receives -- workers never block each other on a full pipe)."""
        payload = dict(msg)
        for conn in self._conns:
            conn.send(payload)
        return [
            self._absorb(index, conn.recv())
            for index, conn in enumerate(self._conns)
        ]

    # -- the barrier loop ----------------------------------------------------

    def _horizon(self) -> Optional[float]:
        """``m``: the earliest instant at which *anything* can happen --
        a pending local event on any shard or a routed in-flight arrival."""
        times = [t for t in self._nexts if t is not None]
        for batch in self._pending:
            times.extend(item[0][0] for item in batch)
        return min(times) if times else None

    def _advance(self, target: float) -> None:
        """One barrier window: deliver routed envelopes, run every shard to
        ``target``, collect new egress."""
        for conn, batch in zip(self._conns, self._pending):
            # (deliver_time, source_shard, per-shard seq): a total order
            # independent of worker reply timing, so injection order -- and
            # with it every downstream tie-break -- is deterministic.
            batch.sort(key=lambda item: (item[0][0], item[1], item[2]))
            conn.send(
                {
                    "op": "advance",
                    "until": target,
                    "inbound": [item[0] for item in batch],
                }
            )
        self._pending = [[] for _ in range(self.plan.shards)]
        for index, conn in enumerate(self._conns):
            self._absorb(index, conn.recv())
        self.barriers += 1

    def run_until(self, deadline: float) -> None:
        """Advance the whole cluster to ``deadline``.

        Window rule: ``T = min(deadline, m + L)`` where ``m`` is
        :meth:`_horizon` and ``L`` the lookahead.  Safe because no shard
        can send before ``m`` (sending happens inside an event at >= m)
        and anything sent at >= ``m`` arrives at >= ``m + L``; an arrival
        *exactly* at a barrier is exchanged at that barrier and injected
        before the next window, landing at its correct instant as a
        same-instant tie.  Jumping to ``m + L`` (rather than fixed ``L``
        steps) makes idle stretches cost one barrier instead of
        ``gap / L``.
        """
        if deadline < self.now:
            raise ValueError(
                f"cannot run backwards: {deadline!r} < {self.now!r}"
            )
        while True:
            horizon = self._horizon()
            if (
                self.now >= deadline
                and (horizon is None or horizon > deadline)
                and not any(self._pending)
            ):
                break
            if horizon is None:
                target = deadline
            else:
                target = min(deadline, horizon + self.lookahead)
            if target < self.now:
                target = self.now
            self._advance(target)
            self.now = target
            if target >= deadline and not any(self._pending):
                break

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send({"op": "stop"})
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (OSError, EOFError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardCluster(shards={self.plan.shards}, now={self.now!r}, "
            f"barriers={self.barriers}, lookahead={self.lookahead!r})"
        )
