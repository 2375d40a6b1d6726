"""The seeded overload gate (``make test-overload``).

The scenario the overload subsystem exists for: every disseminator is a
slow consumer (``FaultPlan.throttle_at`` caps inbound processing at 20
frames/s while the periodic push-pull background alone is ~8 frames/s),
and the initiator publishes at roughly 3x the remaining capacity.  With
``overload=...`` on, the bounded ingest queue plus the shed ladder must

* keep every admitted rumor delivered (mean delivered fraction >= 0.99),
* keep peak queue depth at or under ``ingest_capacity`` (the memory
  guarantee), and
* shed the cheap classes (digests) ahead of rumor payloads.

The shed-off ablation -- same seed, same load, ``overload=None`` -- must
show the collapse the subsystem prevents: unbounded queue growth and
degraded delivery.  Group size scales with ``REPRO_OVERLOAD_N`` (default
60; the make target runs 500).

The composition test drives ``adaptive=True`` and ``overload=...``
together: the controller must read the pressure signal and *narrow*
(pressure-relief shrinks batching/fanout) instead of boosting into the
collapsing network -- the two subsystems cooperate, they do not fight.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro import GossipConfig
from repro.core.control import PRESSURE_HIGH
from repro.core.overload import OverloadError
from repro.simnet.faults import FaultPlan

pytestmark = pytest.mark.gate  # run by `make test-overload` (pyproject.toml, markers)

SEED = 19

#: Fixed push-pull parameters: period 1.0 keeps the periodic background
#: around 8 frames/s/node, so the 20 frames/s throttle leaves ~12 frames/s
#: of headroom -- about 4 publishes/s of capacity at the measured ~2.8
#: marginal frames per publish per node.
PARAMS = {
    "style": "push-pull",
    "fanout": 4,
    "rounds": 5,
    "period": 1.0,
    "peer_sample_size": 12,
    "max_batch_rumors": 8,
}

#: Slow-consumer cap on every disseminator (frames/second).
THROTTLE_RATE = 20.0
#: Offered publish load, ~3x the throttled capacity headroom.
PUBLISH_RATE = 12.0
STRESS_SECONDS = 12
SETTLE_SECONDS = 15

OVERLOAD = {"ingest_capacity": 128, "outbox_bound": 128}


def group_size() -> int:
    return int(os.environ.get("REPRO_OVERLOAD_N", "60"))


def run_overloaded(n_nodes, overload, adaptive=False, seed=SEED):
    """Throttle every disseminator, publish at ~3x capacity, settle.

    Returns ``(published_gossip_ids, rejected_count, group)``.
    """
    config = GossipConfig(
        n_disseminators=n_nodes - 1,
        seed=seed,
        auto_tune=False,
        params=dict(PARAMS),
        overload=overload,
        adaptive=adaptive,
    )
    group = config.build()
    group.setup(settle=1.5, eager_join=True)
    names = [node.name for node in group.disseminators]
    FaultPlan(group.network).throttle_at(
        group.network.sim.now + 0.01, names, THROTTLE_RATE
    ).apply()
    group.run_for(0.05)

    published = []
    rejected = 0
    sequence = itertools.count()
    for _ in range(STRESS_SECONDS * int(PUBLISH_RATE)):
        try:
            published.append(group.publish({"seq": next(sequence)}))
        except OverloadError:
            rejected += 1
        group.run_for(1.0 / PUBLISH_RATE)
    group.run_for(float(SETTLE_SECONDS))
    return published, rejected, group


def mean_delivered(group, published) -> float:
    fractions = [group.delivered_fraction(gid) for gid in published]
    return sum(fractions) / max(1, len(fractions))


def peak_queue(group) -> float:
    return group.hub.gauge("overload.ingest-queue-peak").value


def test_overload_bounds_queues_and_holds_admitted_delivery():
    """At 3x capacity, shedding holds delivery and bounds queue memory;
    the shed-off ablation collapses."""
    n_nodes = group_size()

    published, _, group = run_overloaded(n_nodes, overload=dict(OVERLOAD))
    delivered = mean_delivered(group, published)
    assert published, "no rumors admitted under overload"
    assert delivered >= 0.99, (
        f"admitted-rumor delivery {delivered:.4f} < 0.99 with shedding on"
    )
    capacity = OVERLOAD["ingest_capacity"]
    assert peak_queue(group) <= capacity, (
        f"ingest queue peaked at {peak_queue(group)} > bound {capacity}"
    )
    overload = group.hub.overload
    assert overload.shed_digests > 0, "no digests shed under 3x overload"
    assert overload.shed_digests >= overload.shed_payloads, (
        "shed ladder inverted: payloads shed more often than digests "
        f"({overload.shed_payloads} > {overload.shed_digests})"
    )
    assert overload.pressure_highs > 0, "high watermark never crossed"

    # Ablation: same seed, same load, no policy -- the queue grows far
    # past the bound (unbounded memory) and delivery degrades.
    ab_published, _, ab_group = run_overloaded(n_nodes, overload=None)
    ab_delivered = mean_delivered(ab_group, ab_published)
    assert peak_queue(ab_group) > 3 * capacity, (
        f"ablation queue peaked at only {peak_queue(ab_group)}; "
        "the scenario no longer overloads the nodes"
    )
    assert ab_delivered < 0.99, (
        f"ablation delivered {ab_delivered:.4f}; overload protection "
        "shows no benefit in this scenario"
    )
    assert delivered > ab_delivered, (
        f"shedding on ({delivered:.4f}) did not beat the ablation "
        f"({ab_delivered:.4f})"
    )
    assert ab_group.hub.overload.shed_digests == 0, (
        "ablation run shed traffic despite overload=None"
    )


def test_publisher_backpressure_at_hard_limit():
    """A publisher whose own node is saturated gets OverloadError, not an
    unbounded outbox."""
    config = GossipConfig(
        n_disseminators=7, seed=SEED, auto_tune=False, params=dict(PARAMS),
        overload={"outbox_bound": 4, "ingest_capacity": 64},
    )
    group = config.build()
    group.setup(settle=1.5, eager_join=True)
    rejected = 0
    for index in range(64):
        # No run_for between publishes: the outbox cannot flush, so the
        # hard limit must engage.
        try:
            group.publish({"seq": index})
        except OverloadError as exc:
            rejected += 1
            assert exc.retry_after > 0
            assert exc.pressure >= 1.0
    assert rejected > 0, "hard outbox limit never rejected a publish"
    assert group.hub.overload.publish_rejected == rejected
    # Once drained, publishing works again (backpressure, not a latch).
    group.run_for(5.0)
    assert group.publish({"seq": "after"}) is not None


def test_controller_reacts_to_pressure_without_fighting_the_shedder():
    """``adaptive=True`` + ``overload=...`` compose: the controller sees the
    pressure signal, takes the pressure-relief path (narrowing batch and
    fanout), and never boosts while pressure is at or above its
    ``PRESSURE_HIGH`` threshold."""
    published, _, group = run_overloaded(
        40,
        overload=dict(OVERLOAD),
        adaptive=True,
    )
    control = group.hub.control
    assert control.pressure_reliefs > 0, (
        "controller never took the pressure-relief path under overload"
    )
    pressured = [
        decision for decision in group.hub.decisions
        if decision.signals.pressure >= PRESSURE_HIGH
    ]
    assert pressured, "no decision epoch observed overload pressure"
    for decision in pressured:
        assert decision.action != "boost", (
            f"controller boosted into an overloaded network: {decision!r}"
        )
    # The composed run still delivers what it admitted.
    assert mean_delivered(group, published) >= 0.99
