"""Overload sweep: goodput and queue memory vs offered load, shed on/off.

The claim behind the overload subsystem (docs/RESILIENCE.md, "Overload
and backpressure"): with the bounded ingest queue and the shed-priority
ladder on, a node driven past capacity degrades *gracefully* -- goodput
plateaus near capacity and queue memory stays bounded -- where the
unprotected node exhibits congestion collapse: unbounded queue growth
and rumors that never finish disseminating inside the horizon.

Scenario (the ``make test-overload`` gate shares it): every disseminator
is a slow consumer (``FaultPlan.throttle_at`` caps inbound processing at
``THROTTLE_RATE`` frames/s) and the initiator publishes at ``multiplier``
x the throttled capacity, for multipliers 0.5..4.  Capacity is
calibrated per run: a calm window measures the periodic background frame
rate and the marginal frames each publish costs per node, and

    capacity [publishes/s] = (throttle - background) / marginal.

Each row reports *goodput* -- rumors fully delivered (>= 99% of nodes)
inside the fixed horizon, per second -- plus the peak ingest-queue depth
and the shed counters.

Full sweep (writes rows under the ``"overload"`` key of BENCH_core.json)::

    PYTHONPATH=src python benchmarks/bench_overload.py

``--smoke`` (used by ``make bench-overload-smoke``) runs a small group
over multipliers {1, 3} and asserts the headline claims.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tables import emit

from repro import GossipConfig
from repro.core.overload import OverloadError
from repro.simnet.faults import FaultPlan

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

PARAMS = {
    "style": "push-pull",
    "fanout": 4,
    "rounds": 5,
    "period": 1.0,
    "peer_sample_size": 12,
    "max_batch_rumors": 8,
}

THROTTLE_RATE = 20.0
OVERLOAD = {"ingest_capacity": 128, "outbox_bound": 128}
MULTIPLIERS = [0.5, 1.0, 2.0, 3.0, 4.0]


def build_group(n_nodes: int, overload: Optional[dict], seed: int):
    config = GossipConfig(
        n_disseminators=n_nodes - 1,
        seed=seed,
        auto_tune=False,
        params=dict(PARAMS),
        overload=dict(overload) if overload else None,
    )
    group = config.build()
    group.setup(settle=1.5, eager_join=True)
    return group


def calibrate(n_nodes: int, seed: int) -> Dict[str, float]:
    """Measure background frames/s/node and marginal frames/publish/node
    on a calm (unthrottled) group, and derive the throttled capacity."""
    group = build_group(n_nodes, None, seed)
    sent = group.message_counts().get("net.sent", 0)
    group.run_for(8.0)
    background = (group.message_counts().get("net.sent", 0) - sent) / 8.0 / n_nodes
    sent = group.message_counts().get("net.sent", 0)
    publishes = 8
    for index in range(publishes):
        group.publish({"calibrate": index})
        group.run_for(2.0)
    extra = group.message_counts().get("net.sent", 0) - sent
    marginal = max(0.5, (extra / n_nodes - background * 2.0 * publishes) / publishes)
    capacity = max(0.5, (THROTTLE_RATE - background) / marginal)
    return {
        "background_frames_per_s_node": round(background, 3),
        "marginal_frames_per_publish_node": round(marginal, 3),
        "capacity_publishes_per_s": round(capacity, 3),
    }


def run_arm(
    n_nodes: int,
    overload: Optional[dict],
    offered_rate: float,
    multiplier: float,
    seed: int,
    stress: float = 10.0,
    settle: float = 10.0,
) -> Dict[str, Any]:
    group = build_group(n_nodes, overload, seed)
    names = [node.name for node in group.disseminators]
    FaultPlan(group.network).throttle_at(
        group.network.sim.now + 0.01, names, THROTTLE_RATE
    ).apply()
    group.run_for(0.05)

    wall_start = time.time()
    published: List[str] = []
    rejected = 0
    sequence = itertools.count()
    for _ in range(max(1, int(stress * offered_rate))):
        try:
            published.append(group.publish({"seq": next(sequence)}))
        except OverloadError:
            rejected += 1
        group.run_for(1.0 / offered_rate)
    group.run_for(settle)
    wall = time.time() - wall_start

    horizon = stress + settle
    fractions = [group.delivered_fraction(gid) for gid in published]
    complete = sum(1 for fraction in fractions if fraction >= 0.99)
    overload_stats = group.hub.overload
    return {
        "arm": "shed-on" if overload else "shed-off",
        "multiplier": multiplier,
        "offered_rate": round(offered_rate, 3),
        "published": len(published),
        "rejected": rejected,
        "mean_delivered": round(
            sum(fractions) / max(1, len(fractions)), 4
        ),
        "goodput_rumors_per_s": round(complete / horizon, 3),
        "peak_queue": group.hub.gauge("overload.ingest-queue-peak").value,
        "shed_digests": overload_stats.shed_digests,
        "shed_feedback": overload_stats.shed_feedback,
        "shed_pull": overload_stats.shed_pull,
        "shed_payloads": overload_stats.shed_payloads,
        "wall_s": round(wall, 2),
    }


def check_claims(rows: List[Dict[str, Any]]) -> List[str]:
    """The headline assertions ``--smoke`` enforces."""
    failures: List[str] = []
    on = {row["multiplier"]: row for row in rows if row["arm"] == "shed-on"}
    off = {row["multiplier"]: row for row in rows if row["arm"] == "shed-off"}
    capacity = OVERLOAD["ingest_capacity"]
    for row in on.values():
        if row["peak_queue"] > capacity:
            failures.append(
                f"shed-on x{row['multiplier']}: queue {row['peak_queue']} "
                f"exceeded bound {capacity}"
            )
    saturated = [m for m in on if m >= 3.0]
    for m in saturated:
        if 1.0 in on and on[m]["goodput_rumors_per_s"] < (
            0.7 * on[1.0]["goodput_rumors_per_s"]
        ):
            failures.append(
                f"shed-on goodput collapsed at x{m}: "
                f"{on[m]['goodput_rumors_per_s']} vs "
                f"{on[1.0]['goodput_rumors_per_s']} at x1"
            )
        if m in off and off[m]["peak_queue"] <= 3 * capacity:
            failures.append(
                f"shed-off x{m} queue only reached {off[m]['peak_queue']}; "
                "the ablation is not overloaded"
            )
        if m in off and on[m]["mean_delivered"] < off[m]["mean_delivered"]:
            failures.append(
                f"shed-on delivered less than shed-off at x{m}"
            )
    return failures


def save_rows(rows, calibration, config) -> None:
    """Write the sweep under BENCH_core.json's ``overload`` section,
    leaving every other section untouched."""
    data = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    data["overload"] = {
        "benchmark": "goodput-vs-offered-load-shed-on-off",
        "description": (
            "Every disseminator throttled to a slow consumer while the "
            "initiator publishes at 0.5x-4x the calibrated capacity "
            "(benchmarks/bench_overload.py).  With the shed ladder on, "
            "goodput plateaus and ingest-queue memory stays bounded; the "
            "shed-off ablation grows its queues without bound and loses "
            "in-horizon delivery."
        ),
        "calibration": calibration,
        "config": config,
        "runs": rows,
    }
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=120)
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--no-save", action="store_true",
                        help="print rows without touching BENCH_core.json")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: small group, multipliers {1, 3}, assert the claims",
    )
    args = parser.parse_args(argv)

    multipliers = MULTIPLIERS
    if args.smoke:
        args.nodes = 40
        multipliers = [1.0, 3.0]

    calibration = calibrate(args.nodes, args.seed)
    capacity = calibration["capacity_publishes_per_s"]
    rows: List[Dict[str, Any]] = []
    for multiplier in multipliers:
        offered = max(0.5, capacity * multiplier)
        for overload in (OVERLOAD, None):
            rows.append(
                run_arm(
                    args.nodes, overload, offered, multiplier, args.seed
                )
            )

    emit(
        "bench_overload",
        f"Overload sweep, N={args.nodes} (capacity ~{capacity}/s)",
        ["arm", "x", "offered/s", "published", "delivered",
         "goodput/s", "peak queue", "shed dig/fb/pull/payload"],
        [
            [
                row["arm"], row["multiplier"], row["offered_rate"],
                row["published"], row["mean_delivered"],
                row["goodput_rumors_per_s"], row["peak_queue"],
                f"{row['shed_digests']}/{row['shed_feedback']}"
                f"/{row['shed_pull']}/{row['shed_payloads']}",
            ]
            for row in rows
        ],
        save=not args.smoke,
    )

    failures = check_claims(rows)
    if args.smoke:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}")
        if failures:
            return 1
        print("smoke ok: queue bounded, goodput plateau, ablation collapses")
    elif failures:
        for failure in failures:
            print(f"note: {failure}")

    if not args.no_save and not args.smoke:
        save_rows(
            rows,
            calibration,
            {
                "nodes": args.nodes,
                "seed": args.seed,
                "throttle_rate": THROTTLE_RATE,
                "overload": OVERLOAD,
                "params": PARAMS,
            },
        )
        print(f"wrote BENCH_core.json 'overload' section ({RESULTS_PATH})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
