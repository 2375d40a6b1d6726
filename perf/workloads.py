"""The four workloads: inputs from a seed, one measured episode each.

An *episode* builds a fresh system (timed: ``setup_s``), runs one
measured window and checks what came out.  A run repeats episodes with
derived seeds until its time budget is spent (see perf/run.py), so every
episode of a workload is statistically the same experiment and the
number that fit affects precision only.

The program is driven through its public entry points and receives only
the generated inputs: its own seed, the payloads, the publishers and the
publish schedule all come from ``make_inputs``.  Optional subsystems
(health, adaptive, overload, telemetry) stay off so the dormant-branch
cost is what is measured; durability is on only in ``sim_repair``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

from repro import GossipConfig
from repro.core.aiodeploy import AsyncGossipMesh, soak_params
from repro.core.store import DurabilityPolicy
from repro.obs.hub import default_hub
from repro.simnet.faults import FaultPlan
from repro.simnet.latency import UniformLatency
from repro.soap.envelope import clear_parse_cache

#: A rumor is a failed operation when fewer than this share of its
#: consumers deliver it by the deadline (the program's own default
#: ``target_reliability``); pure push promises no more.
RUMOR_SLO = 0.99

#: Scratch space for the WAL files; inside the checkout, git-ignored.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

SYMBOLS = ("QIM", "ACME", "GLOB", "INIT", "UMIN", "WSGP", "EPID", "RUMR")


@dataclass(frozen=True)
class Size:
    """How big one episode is.  ``full`` is what is measured; ``check``
    is the seconds-long toy that only proves the harness still works."""

    nodes: int
    rumors: int
    #: sim: simulated seconds run after the last publish; live: seconds
    #: slept after the last publish (steady) or the hard deadline (burst).
    drain: float
    #: seconds between publishes (0 = back to back).
    interval: float = 0.0
    warmup: float = 0.0


SIZES: Dict[str, Dict[str, Size]] = {
    "sim_burst": {
        "full": Size(nodes=1000, rumors=15, drain=3.0),
        "check": Size(nodes=40, rumors=5, drain=2.0),
    },
    "sim_repair": {
        "full": Size(nodes=200, rumors=10, drain=3.0, interval=0.1),
        "check": Size(nodes=30, rumors=8, drain=3.0, interval=0.125),
    },
    "live_steady": {
        "full": Size(nodes=100, rumors=20, drain=1.5, interval=0.2, warmup=0.5),
        "check": Size(nodes=20, rumors=10, drain=1.5, interval=0.1, warmup=0.3),
    },
    "live_burst": {
        "full": Size(nodes=100, rumors=60, drain=20.0, warmup=0.5),
        "check": Size(nodes=20, rumors=20, drain=10.0, warmup=0.3),
    },
}


@dataclass(frozen=True)
class Inputs:
    program_seed: int
    payloads: Tuple[dict, ...]
    publishers: Tuple[int, ...]


def make_inputs(workload: str, seed: int, episode: int, size: Size) -> Inputs:
    """Everything the program is given, derived from the benchmark seed."""
    rng = random.Random(f"{workload}/{seed}/{episode}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    payloads = tuple(
        {
            "symbol": rng.choice(SYMBOLS),
            "price": round(rng.uniform(1.0, 500.0), 2),
            "seq": index,
            "pad": "".join(rng.choice(letters) for _ in range(64)),
        }
        for index in range(size.rumors)
    )
    publishers = tuple(rng.randrange(size.nodes) for _ in range(size.rumors))
    return Inputs(rng.randrange(1 << 31), payloads, publishers)


@dataclass
class Episode:
    """What one episode measured and what it found wrong."""

    setup_s: float
    wall_s: float
    cpu_s: float
    #: ``deliveries_per_s`` is ``rate_deliveries / rate_window_s`` (the
    #: whole window, except on live_burst: 99% of the pairs over the
    #: time the 99th-percentile pair took).
    rate_deliveries: float
    rate_window_s: float
    deliveries: int
    expected: int
    #: Ascending, one per delivered pair.
    latencies_ms: List[float]
    #: What an undelivered pair reads as in the latency percentiles.
    deadline_ms: float
    rumors: int
    rumors_failed: int
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    publish_late_s: List[float] = field(default_factory=list)
    t100_s: float = 0.0


# -- the simulator plane ------------------------------------------------------

#: Mean 1 ms like the program's default fixed delay, but jittered: with a
#: fixed delay every latency is a whole number of milliseconds and reads
#: the same on every seed.  Still simulated time, deterministic per seed.
SIM_LINK = (0.0005, 0.0015)

BURST_PARAMS = {
    "fanout": 6, "rounds": 9, "peer_sample_size": 14, "max_batch_rumors": 64,
}
REPAIR_PARAMS = {
    "style": "push-pull", "fanout": 4, "rounds": 6, "period": 0.5,
    "peer_sample_size": 12, "max_batch_rumors": 1,
}
CRASH_FRACTION = 0.10
RESTART_AFTER = 0.4


def _stat_groups(hub, counters: Dict[str, float]) -> Dict[str, float]:
    for group in ("wire", "batch", "recovery", "health"):
        for name, value in getattr(hub, group).snapshot().items():
            counters[f"{group}.{name}"] = value
    return counters


def _sim_counters(group) -> Dict[str, float]:
    counters = dict(group.message_counts())
    counters["sim.events"] = group.sim.events_executed
    return _stat_groups(group.hub, counters)


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _build_sim(config: GossipConfig):
    clear_parse_cache()  # process-wide; an earlier episode must not leak in
    began = time.perf_counter()
    group = config.build()
    # Loss is for the gossip between nodes.  Registration is control
    # traffic to one coordinator; were it lossy too, whether a restarted
    # node rejoins inside the window would be a coin flip per seed.
    coordinator = group.coordinator.name
    for node in group.app_nodes():
        group.network.set_link_loss(node.name, coordinator, 0.0)
        group.network.set_link_loss(coordinator, node.name, 0.0)
    group.setup(settle=1.0, eager_join=True)
    return group, time.perf_counter() - began


def _publish_sim(group, payload, due: Dict[str, float], problems: List[str]) -> None:
    try:
        due[group.publish(payload)] = group.sim.now
    except Exception as exc:  # noqa: BLE001 - a refused publish is a failed operation
        problems.append(f"publish raised {type(exc).__name__}: {exc}")


def _sim_episode(
    group,
    size: Size,
    due: Dict[str, float],
    earlier: Dict[str, list],
    problems: List[str],
    deadline_s: float,
    **measured: float,
) -> Episode:
    """Count deliveries, latencies and failed rumors; check the outputs.

    ``earlier`` holds the delivery records of nodes that later crashed:
    a restart wipes ``node.deliveries`` (the process image is lost) while
    ``has_delivered`` is rebuilt from the WAL, so the times of pre-crash
    deliveries have to be read before the crash.
    """
    consumers = [node for node in group.app_nodes() if node is not group.initiator]
    latencies: List[float] = []
    reached = dict.fromkeys(due, 0)
    for node in consumers:
        records = [*earlier.get(node.name, ()), *node.deliveries]
        ids = [record.gossip_id for record in records if record.gossip_id is not None]
        if len(ids) != len(set(ids)):
            problems.append(f"{node.name} delivered an id more than once")
        if not set(ids) <= due.keys():
            problems.append(f"{node.name} delivered an id nobody published")
        latencies.extend(
            (record.time - due[record.gossip_id]) * 1000.0
            for record in records
            if record.gossip_id in due
        )
        for message_id in due:
            if node.has_delivered(message_id):
                reached[message_id] += 1
    deliveries = sum(reached.values())
    if len(latencies) != deliveries:
        problems.append(
            f"{deliveries - len(latencies)} deliveries have no recorded time"
        )
    return Episode(
        rate_deliveries=deliveries, rate_window_s=measured["wall_s"],
        deliveries=deliveries, expected=size.rumors * len(consumers),
        latencies_ms=sorted(latencies), deadline_ms=deadline_s * 1000.0,
        rumors=size.rumors,
        rumors_failed=(size.rumors - len(due)) + sum(
            1 for count in reached.values() if count < RUMOR_SLO * len(consumers)
        ),
        problems=problems, **measured,
    )


def sim_burst(size: Size, inputs: Inputs, tracer=None) -> Episode:
    """Pure-push batched burst: everything published back to back, then drained."""
    group, setup_s = _build_sim(GossipConfig(
        n_disseminators=size.nodes - 1,
        seed=inputs.program_seed,
        latency=UniformLatency(*SIM_LINK),
        params=BURST_PARAMS,
        auto_tune=False,
    ))
    problems: List[str] = []
    due: Dict[str, float] = {}
    before = _sim_counters(group)
    gc.collect()
    if tracer is not None:
        tracer.open_window()
    cpu, wall = time.process_time(), time.perf_counter()
    for payload in inputs.payloads:
        _publish_sim(group, payload, due, problems)
    group.run_for(size.drain)
    cpu_s, wall_s = time.process_time() - cpu, time.perf_counter() - wall
    if tracer is not None:
        tracer.close_window()
    return _sim_episode(
        group, size, due, {}, problems, size.drain,
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        counters=_delta(before, _sim_counters(group)),
    )


def sim_repair(size: Size, inputs: Inputs, tracer=None) -> Episode:
    """Paced push-pull over a lossy fabric with a WAL; a tenth of the
    disseminators crash mid-way and come back from their logs."""
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="wal-", dir=WORK_DIR)
    try:
        group, setup_s = _build_sim(GossipConfig(
            n_disseminators=size.nodes - 1,
            seed=inputs.program_seed,
            latency=UniformLatency(*SIM_LINK),
            loss_rate=0.10,
            params=REPAIR_PARAMS,
            auto_tune=False,
            durability=DurabilityPolicy(
                mode="file", directory=directory, fsync="never", snapshot_every=8
            ),
        ))
        problems: List[str] = []
        due: Dict[str, float] = {}
        before = _sim_counters(group)
        gc.collect()
        if tracer is not None:
            tracer.open_window()
        cpu, wall = time.process_time(), time.perf_counter()
        start = group.sim.now
        span = size.rumors * size.interval
        crash_at = start + span / 2
        plan = FaultPlan(group.network)
        plan.crash_fraction_at(
            crash_at, CRASH_FRACTION, [node.name for node in group.disseminators],
            restart_after=RESTART_AFTER, amnesia=False,
        )
        plan.apply()
        victims = set(plan.last_victims)
        earlier: Dict[str, list] = {}

        def advance(until: float) -> None:
            # Stop a hair before the crash to copy the victims' delivery
            # records, which the restart is about to wipe.
            if until >= crash_at and group.sim.now < crash_at:
                group.run_for(max(0.0, crash_at - 1e-9 - group.sim.now))
                for node in group.disseminators:
                    if node.name in victims:
                        earlier[node.name] = list(node.deliveries)
            group.run_for(until - group.sim.now)

        for index, payload in enumerate(inputs.payloads):
            advance(start + index * size.interval)
            _publish_sim(group, payload, due, problems)
        advance(start + span + size.drain)
        cpu_s, wall_s = time.process_time() - cpu, time.perf_counter() - wall
        if tracer is not None:
            tracer.close_window()
        counters = _delta(before, _sim_counters(group))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    restarts = counters["recovery.restarts"]
    if restarts != round(CRASH_FRACTION * len(group.disseminators)):
        problems.append(f"{restarts} restarts, expected a tenth of the disseminators")
    if counters["recovery.replayed_messages"] <= 0:
        problems.append("no message was replayed from a WAL")
    if counters["recovery.catch_ups_completed"] != restarts:
        problems.append(
            f"{counters['recovery.catch_ups_completed']} catch-ups completed "
            f"for {restarts} restarts"
        )
    return _sim_episode(
        group, size, due, earlier, problems, span + size.drain,
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s, counters=counters,
    )


# -- the socket plane ---------------------------------------------------------


async def open_loop(
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[None]],
    dues: Sequence[float],
    send: Callable[[int], Awaitable[None]],
) -> List[float]:
    """Await ``send(i)`` at each due time regardless of how the system is
    doing; returns how late each call was.  Latency is then taken from
    the *due* time, so a stall is charged to every request it delayed."""
    late = []
    for index, due in enumerate(dues):
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        late.append(max(0.0, clock() - due))
        await send(index)
    return late


def _live_counters(mesh) -> Dict[str, float]:
    counters: Dict[str, float] = {}
    for node in mesh.nodes:
        for name, value in node.edge.hub.counters().items():
            counters[name] = counters.get(name, 0) + value
    # Node hubs chain their stat groups into the default hub, and the
    # envelope codec (no hub argument) counts there directly.
    return _stat_groups(default_hub(), counters)


#: A 100-socket mesh is ready in ~20 ms, too short to time once: every
#: live episode sets up this many throwaway meshes first and keeps the
#: fastest set-up of all.
EXTRA_SETUPS = 4


async def _live(size: Size, inputs: Inputs, steady: bool, tracer) -> Episode:
    setups = []
    for attempt in range(EXTRA_SETUPS + 1):
        began = time.perf_counter()
        mesh = AsyncGossipMesh(
            size.nodes, transport="udp", params=soak_params("udp", period=0.5),
            view_size=8, seed=inputs.program_seed,
        )
        await mesh.astart()
        setups.append(time.perf_counter() - began)
        if attempt < EXTRA_SETUPS:
            await mesh.astop()
    setup_s = min(setups)
    loop = mesh.loop
    problems: List[str] = []
    due: Dict[str, float] = {}
    publisher_of: Dict[str, int] = {}
    consumers = size.nodes - 1
    expected = size.rumors * consumers
    if tracer is not None:
        tracer.attach_loop(loop)
    try:
        await asyncio.sleep(size.warmup)
        before = _live_counters(mesh)
        gc.collect()
        if tracer is not None:
            tracer.open_window()
        cpu, start = time.process_time(), loop.time()
        dues = [start + index * size.interval for index in range(size.rumors)]

        async def publish(index: int) -> None:
            publisher = inputs.publishers[index]
            try:
                message_id = await mesh.apublish(inputs.payloads[index], publisher)
            except Exception as exc:  # noqa: BLE001 - a refused publish is a failed operation
                problems.append(f"publish raised {type(exc).__name__}: {exc}")
                return
            due[message_id] = dues[index] if steady else loop.time()
            publisher_of[message_id] = publisher

        late = await open_loop(loop.time, asyncio.sleep, dues, publish)
        if steady:
            await asyncio.sleep(size.drain)
        else:
            # The burst is done when every pair is delivered (a publisher
            # never delivers its own rumor) or the hard deadline passes.
            while loop.time() - start < size.drain and (
                sum(len(node.delivered) for node in mesh.nodes) < expected
            ):
                await asyncio.sleep(0.05)
        cpu_s, wall_s = time.process_time() - cpu, loop.time() - start
        counters = _delta(before, _live_counters(mesh))
    finally:
        if tracer is not None:
            tracer.close_window()
            await tracer.detach_loop(loop)
        await mesh.astop()

    arrivals: List[float] = []
    latencies: List[float] = []
    reached = dict.fromkeys(due, 0)
    for index, node in enumerate(mesh.nodes):
        if node.delivery_count != len(node.delivered):
            problems.append(f"{node.name} delivered an id more than once")
        if not node.delivered.keys() <= due.keys():
            problems.append(f"{node.name} delivered an id nobody published")
        for message_id, when in node.delivered.items():
            if message_id in due and publisher_of[message_id] != index:
                reached[message_id] += 1
                arrivals.append(when - start)
                latencies.append((when - due[message_id]) * 1000.0)
    deliveries = len(latencies)
    failed = (size.rumors - len(due)) + sum(
        1 for count in reached.values() if count < RUMOR_SLO * consumers
    )
    episode = Episode(
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        rate_deliveries=deliveries, rate_window_s=wall_s,
        deliveries=deliveries, expected=expected, latencies_ms=sorted(latencies),
        deadline_ms=(size.rumors * size.interval + size.drain) * 1000.0,
        rumors=size.rumors, rumors_failed=failed, counters=counters,
        problems=problems,
    )
    if steady:
        episode.publish_late_s = late
        if late and sorted(late)[int(0.99 * (len(late) - 1))] > 0.100:
            problems.append("the open-loop generator ran more than 100 ms late")
    else:
        arrivals.sort()
        needed = -(-99 * expected // 100)  # ceil(0.99 * expected)
        if len(arrivals) >= needed:
            episode.rate_window_s = arrivals[needed - 1]
        else:
            problems.append("fewer than 99% of the pairs arrived by the deadline")
        episode.rate_deliveries = 0.99 * expected
        episode.t100_s = arrivals[-1] if len(arrivals) == expected else size.drain
    return episode


def live_steady(size: Size, inputs: Inputs, tracer=None) -> Episode:
    """Open loop on real UDP sockets: one publish per interval, on schedule."""
    return asyncio.run(_live(size, inputs, True, tracer))


def live_burst(size: Size, inputs: Inputs, tracer=None) -> Episode:
    """Saturating burst on real UDP sockets: timed to the 99th-percentile pair."""
    return asyncio.run(_live(size, inputs, False, tracer))


WORKLOADS: Dict[str, Callable[..., Episode]] = {
    "sim_burst": sim_burst,
    "sim_repair": sim_repair,
    "live_steady": live_steady,
    "live_burst": live_burst,
}

#: Counters that must repeat exactly for one seed on the simulator plane.
DETERMINISTIC = ("net.bytes", "wire.parse_count", "recovery.log_appends", "soap.sent")
