"""Seeded telemetry gate (``make test-telemetry``).

Two claims the live telemetry plane must hold (docs/OBSERVABILITY.md,
"Live telemetry"):

* **Reconstruction over real sockets** -- a loopback UDP mesh (N from
  ``REPRO_TELEMETRY_N``, default 60; the make gate runs 120) with full
  path sampling must reconstruct, purely from merged per-node hubs and
  the sampled wire trace context, what ``repro obs report`` reads off
  the simulator: delivery >= 0.99, a non-empty per-hop latency
  histogram, infection curves, and rounds-to-99%.
* **Burn-rate alerting** -- in the simulator, a loss ramp must push the
  windowed delivery SLO burn rate over 1.0 (a ``firing`` edge on
  ``hub.alerts``), and healing the network must clear it (hysteresis at
  0.5).  The controller and the report read the same timeline.
"""

import os
import time

import pytest

from repro.core.aiodeploy import AsyncGossipMesh, soak_params
from repro.core.api import GossipConfig
from repro.core.telemetry import TelemetryPolicy
from repro.simnet.faults import FaultPlan

pytestmark = pytest.mark.gate  # run by `make test-telemetry` (pyproject.toml, markers)

MESH_N = int(os.environ.get("REPRO_TELEMETRY_N", "60"))
DELIVERY_FLOOR = 0.99


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_live_mesh_reconstructs_dissemination_from_wire_trace():
    """Real UDP loopback: merged hubs + sampled trace context rebuild the
    infection story end to end."""
    mesh = AsyncGossipMesh(
        MESH_N,
        transport="udp",
        params=soak_params("udp", period=0.3),
        seed=11,
        telemetry=TelemetryPolicy(sample_rate=1.0),
    )
    with mesh:
        published = [
            mesh.publish({"tick": index}, publisher_index=index % MESH_N)
            for index in range(3)
        ]
        assert wait_for(
            lambda: all(
                mesh.delivered_fraction(gossip_id, index % MESH_N)
                >= DELIVERY_FLOOR
                for index, gossip_id in enumerate(published)
            )
        ), "mesh did not reach the delivery floor in time"
        # Let trailing forwards land before freezing the hubs.
        time.sleep(0.5)
        summary = mesh.telemetry_summary()

    assert summary["population"] == MESH_N
    assert summary["delivered_fraction"] >= DELIVERY_FLOOR

    # Per-hop latency percentiles exist and came from sampled wire frames.
    hop = summary["hop_latency_ms"]
    assert hop and hop["count"] > 0
    assert hop["p50"] >= 0.0 and hop["max"] >= hop["p50"]
    assert summary["samples"] > 0

    # Every rumor's causal story is reconstructable: infection curve and
    # rounds-to-99% -- the numbers `repro obs report` derives in-simulator.
    assert len(summary["rumors"]) == len(published)
    for rumor in summary["rumors"]:
        assert rumor["rounds_to_99"] is not None
        curve = rumor["infection_curve"]
        assert curve, "empty infection curve"
        counts = [count for _, count in curve]
        assert counts == sorted(counts)
        assert counts[-1] >= int(DELIVERY_FLOOR * (MESH_N - 1))


def test_burn_rate_alert_fires_under_loss_and_clears_after_heal():
    """Simulator: a loss ramp breaches the delivery SLO window (firing
    edge), healing clears it (hysteresis)."""
    n = 60
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=5,
        # Enough redundancy to deliver every rumor on a calm network (so
        # the healed tail burns nothing), not enough to shrug off the loss
        # ramp below: push dies out once loss eats most of the fanout.
        params={"style": "push", "fanout": 6, "rounds": 8, "period": 0.5},
        auto_tune=False,
        telemetry={"sample_rate": 1.0},
    ).build()
    group.setup()
    assert group.burn_monitor is not None

    # The burn-rate window spans SLO_WINDOW (30 s): the ramp and the
    # healed tail each last about as long.
    plan = FaultPlan(group.network)
    ramp_start, heal_at, end = 10.0, 40.0, 90.0
    plan.loss_ramp_at(ramp_start, 0.5, 0.92, heal_at - ramp_start)
    plan.loss_at(heal_at, 0.0)
    plan.apply()

    # Steady publish load so the SLO window always has fresh spans to judge.
    while group.sim.now < end:
        group.publish({"at": group.sim.now})
        group.run_for(1.0)
    group.run_for(10.0)  # drain + let the monitor observe the healed phase

    alerts = group.hub.alerts
    assert alerts, "no alert edges recorded"
    firing = [alert for alert in alerts if alert.state == "firing"]
    assert firing, "loss ramp never fired the burn-rate alert"
    assert all(alert.burn >= 1.0 for alert in firing)
    assert min(alert.time for alert in firing) >= ramp_start

    assert alerts[-1].state == "cleared", (
        "alert did not clear after the network healed: "
        f"{[(a.state, round(a.time, 1)) for a in alerts]}"
    )
    assert alerts[-1].time > heal_at

    # The adaptive controller reads the same timeline (read-only access).
    from repro.core.control import AdaptiveController

    controller = AdaptiveController(
        group.hub, population=n, engines=lambda: []
    )
    assert controller.alert_timeline() == alerts
    assert controller.slo_alert_firing() is False
