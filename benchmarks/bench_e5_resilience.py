"""E5 -- Resilience to process and network faults.

"The reliability of these algorithms is based on a pro-active mechanism
where redundancy and randomization are used to avoid potential process and
network link failures" (paper Section 2).  Sweep crash fraction and message
loss; compare delivery to surviving receivers across WS-Gossip, the k-ary
tree, and the WS-Notification broker.
"""

from _tables import emit, mean

from repro import DurabilityPolicy, GossipConfig
from repro.baselines.centralnotify import CentralNotifyGroup
from repro.baselines.tree import TreeGroup
from repro.simnet.faults import FaultPlan

N = 32
SEEDS = [1, 2]
CRASH_FRACTIONS = [0.0, 0.1, 0.3, 0.5]
LOSS_RATES = [0.0, 0.1, 0.3]
HEALTH_POLICY = {
    "suspicion_threshold": 0.9,
    "half_life": 60.0,
    "max_retries": 1,
    "breaker_threshold": 2,
    "breaker_reset": 5.0,
}


def gossip_run(crash_fraction=0.0, loss_rate=0.0, seed=1):
    group = GossipConfig(
        n_disseminators=N - 1,
        seed=seed,
        loss_rate=loss_rate,
        params={"fanout": 6, "rounds": 8, "peer_sample_size": 16},
        auto_tune=False,
    ).build()
    group.setup(settle=1.5, eager_join=True)
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now, crash_fraction, [node.name for node in group.disseminators]
    )
    plan.apply()
    group.run_for(0.05)
    gossip_id = group.publish({"exp": "e5"})
    group.run_for(10.0)
    survivors = [
        node
        for node in group.disseminators
        if group.network.process(node.name).is_running
    ]
    if not survivors:
        return 1.0
    return mean(
        1.0 if node.has_delivered(gossip_id) else 0.0 for node in survivors
    )


def health_run(health, crash_fraction=0.3, loss_rate=0.1, seed=1):
    """Combined crash + loss run with the peer-health layer on or off."""
    group = GossipConfig(
        n_disseminators=N - 1,
        seed=seed,
        loss_rate=loss_rate,
        params={"fanout": 6, "rounds": 8, "peer_sample_size": 16},
        auto_tune=False,
        health=HEALTH_POLICY if health else None,
    ).build()
    group.setup(settle=1.5, eager_join=True)
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now, crash_fraction, [node.name for node in group.disseminators]
    )
    plan.apply()
    group.run_for(0.05)
    # Warmup traffic teaches the health layer who is down before measuring.
    for _ in range(2):
        group.publish({"warmup": True})
        group.run_for(3.0)
    gossip_id = group.publish({"exp": "e5-health"})
    group.run_for(10.0)
    survivors = [
        node
        for node in group.disseminators
        if group.network.process(node.name).is_running
    ]
    if not survivors:
        return 1.0
    return mean(
        1.0 if node.has_delivered(gossip_id) else 0.0 for node in survivors
    )


def health_rows():
    rows = []
    for label, crashes, loss in (
        ("30% crashes", 0.3, 0.0),
        ("10% loss", 0.0, 0.1),
        ("30% crashes + 10% loss", 0.3, 0.1),
    ):
        on = mean(health_run(True, crashes, loss, seed=s) for s in SEEDS)
        off = mean(health_run(False, crashes, loss, seed=s) for s in SEEDS)
        rows.append((label, on, off))
    return rows


def recovery_run(amnesia, catch_up, crash_fraction=0.2, seed=1):
    """Crash-restart run: delivery over the WHOLE group, restarted nodes
    included.  Push style so no periodic repair masks the recovery path:
    a restarted node gets old messages back from its WAL (durable), from
    rejoin catch-up (amnesia + catch-up), or never (the ablation arm)."""
    group = GossipConfig(
        n_disseminators=N - 1,
        seed=seed,
        durability=DurabilityPolicy(catch_up=catch_up),
        params={"style": "push", "fanout": 6, "rounds": 8, "peer_sample_size": 16},
        auto_tune=False,
    ).build()
    group.setup(settle=1.5, eager_join=True)
    gossip_id = group.publish({"exp": "e5-recovery"})
    group.run_for(5.0)
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now,
        crash_fraction,
        [node.name for node in group.disseminators],
        restart_after=2.0,
        amnesia=amnesia,
    )
    plan.apply()
    group.run_for(12.0)
    return mean(
        1.0 if node.has_delivered(gossip_id) else 0.0
        for node in group.disseminators
    )


def recovery_rows():
    rows = []
    for label, amnesia, catch_up in (
        ("durable replay (WAL)", False, True),
        ("amnesia + catch-up", True, True),
        ("amnesia, no catch-up", True, False),
    ):
        delivery = mean(
            recovery_run(amnesia, catch_up, seed=s) for s in SEEDS
        )
        rows.append((label, delivery))
    return rows


def tree_run(crash_fraction=0.0, loss_rate=0.0, seed=1):
    group = TreeGroup(N, seed=seed, arity=2, loss_rate=loss_rate)
    group.setup()
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now, crash_fraction, [node.name for node in group.receivers[1:]]
    )
    plan.apply()
    group.run_for(0.05)
    mid = group.publish({"exp": "e5"})
    group.run_for(10.0)
    survivors = [node for node in group.receivers if node.is_running]
    return mean(1.0 if node.has_delivered(mid) else 0.0 for node in survivors)


def broker_run(crash_fraction=0.0, loss_rate=0.0, seed=1, crash_broker=False):
    group = CentralNotifyGroup(N, seed=seed, loss_rate=loss_rate)
    group.setup()
    plan = FaultPlan(group.network)
    plan.crash_fraction_at(
        group.sim.now, crash_fraction, [node.name for node in group.receivers]
    )
    plan.apply()
    if crash_broker:
        group.broker.crash()
    group.run_for(0.05)
    mid = group.publish({"exp": "e5"})
    group.run_for(10.0)
    survivors = [node for node in group.receivers if node.is_running]
    return mean(1.0 if node.has_delivered(mid) else 0.0 for node in survivors)


def crash_rows():
    rows = []
    for fraction in CRASH_FRACTIONS:
        gossip = mean(gossip_run(crash_fraction=fraction, seed=s) for s in SEEDS)
        tree = mean(tree_run(crash_fraction=fraction, seed=s) for s in SEEDS)
        broker = mean(broker_run(crash_fraction=fraction, seed=s) for s in SEEDS)
        rows.append((f"{fraction:.0%}", gossip, tree, broker))
    return rows


def loss_rows():
    rows = []
    for loss in LOSS_RATES:
        gossip = mean(gossip_run(loss_rate=loss, seed=s) for s in SEEDS)
        tree = mean(tree_run(loss_rate=loss, seed=s) for s in SEEDS)
        broker = mean(broker_run(loss_rate=loss, seed=s) for s in SEEDS)
        rows.append((f"{loss:.0%}", gossip, tree, broker))
    return rows


def test_e5_crash_resilience(benchmark):
    rows = crash_rows()
    emit(
        "e5_crashes",
        "E5a: delivery to survivors vs crash fraction (N=32)",
        ["crashed", "WS-Gossip", "tree", "broker"],
        rows,
    )
    # Gossip stays near-perfect; the tree degrades with every interior crash.
    for label, gossip, tree, broker in rows:
        assert gossip >= 0.9
    assert rows[-1][2] < 0.8, "tree should lose subtrees at 50% crashes"

    broker_out = broker_run(crash_broker=True)
    emit(
        "e5_broker_spof",
        "E5b: the broker is a single point of failure",
        ["scenario", "delivery"],
        [("broker up", broker_run()), ("broker crashed", broker_out)],
    )
    assert broker_out == 0.0

    benchmark.pedantic(lambda: gossip_run(crash_fraction=0.3), rounds=1, iterations=1)


def test_e5_health_ablation(benchmark):
    rows = health_rows()
    emit(
        "e5_health",
        "E5d: delivery to survivors, peer-health layer on vs off (N=32)",
        ["faults", "health on", "health off"],
        rows,
    )
    # Suspicion + degraded-mode selection never hurts and helps under
    # combined faults, where dead peers waste a fixed fanout budget.
    for label, on, off in rows:
        assert on >= off - 1e-9, f"health layer regressed delivery: {label}"
        assert on >= 0.95
    benchmark.pedantic(lambda: health_run(True), rounds=1, iterations=1)


def test_e5_crash_recovery(benchmark):
    rows = recovery_rows()
    emit(
        "e5_recovery",
        "E5e: delivery across 20% crash-restart, by recovery path (N=32)",
        ["recovery path", "delivery"],
        rows,
    )
    by_label = dict(rows)
    # Both recovery paths restore full (or near-full) delivery; the
    # ablation arm loses roughly the crashed fraction for good.
    assert by_label["durable replay (WAL)"] >= 0.99
    assert by_label["amnesia + catch-up"] >= 0.99
    assert by_label["amnesia, no catch-up"] < 0.9
    benchmark.pedantic(
        lambda: recovery_run(amnesia=True, catch_up=True), rounds=1, iterations=1
    )


def test_e5_loss_resilience(benchmark):
    rows = loss_rows()
    emit(
        "e5_loss",
        "E5c: delivery vs message-loss rate (N=32)",
        ["loss", "WS-Gossip", "tree", "broker"],
        rows,
    )
    for label, gossip, tree, broker in rows:
        assert gossip >= 0.95, "redundancy should mask loss"
    # Single-path systems track (1 - loss) while gossip stays flat.
    assert rows[-1][3] < 0.85
    benchmark.pedantic(lambda: gossip_run(loss_rate=0.3), rounds=1, iterations=1)


if __name__ == "__main__":
    emit("e5_crashes", "E5a: delivery vs crash fraction",
         ["crashed", "WS-Gossip", "tree", "broker"], crash_rows())
    emit("e5_loss", "E5c: delivery vs loss",
         ["loss", "WS-Gossip", "tree", "broker"], loss_rows())
    emit("e5_health", "E5d: delivery, health layer on vs off",
         ["faults", "health on", "health off"], health_rows())
    emit("e5_recovery", "E5e: delivery across 20% crash-restart, by recovery path",
         ["recovery path", "delivery"], recovery_rows())
