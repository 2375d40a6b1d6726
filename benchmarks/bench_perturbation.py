"""Adaptive control under perturbation: self-tuning vs static knobs.

Four back-to-back phases stress one simulated group -- calm steady
publishing, 30% crash-restart churn (amnesia), a 10->20% loss ramp, and
a 5x publish burst -- while a :class:`~repro.core.control.AdaptiveController`
re-tunes fanout / rounds / gossip mode / batching each epoch.  The same
schedule then runs against a grid of static ``(fanout, rounds)`` push-pull
configurations.  The claim under test: the controller holds the >= 0.99
delivery SLO through every phase while spending *less* traffic per
delivered rumor than any static configuration that also meets the SLO
(static knobs must be provisioned for the worst phase; the controller only
pays for the phase it is in).

Full sweep (writes rows under the ``"perturbation"`` key of BENCH_core.json):

    PYTHONPATH=src python benchmarks/bench_perturbation.py

CI gate (smaller group, shorter phases, asserts the claim):

    PYTHONPATH=src python benchmarks/bench_perturbation.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import GossipConfig
from repro.simnet.faults import FaultPlan
from repro.workloads import PublishDriver, churn_plan

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

PHASES = ("calm", "churn", "loss", "burst")

# The controller's starting point: frugal push gossip.  Everything beyond
# this -- more fanout, more rounds, push-pull repair, batching -- must be
# *earned* by an observed stress signal.
ADAPTIVE_BASE_PARAMS = {
    "style": "push",
    "fanout": 3,
    "rounds": 5,
    "period": 0.5,
    "peer_sample_size": 12,
}


def run_arm(
    label: str,
    n_nodes: int,
    phase_len: float,
    publish_rate: float,
    seed: int,
    *,
    adaptive: bool = False,
    static_fanout: Optional[int] = None,
    static_rounds: Optional[int] = None,
    churn_fraction: float = 0.30,
    loss_start: float = 0.10,
    loss_end: float = 0.20,
    burst_multiplier: float = 5.0,
    drain: float = 12.0,
) -> Dict[str, Any]:
    """Run one arm (adaptive or one static grid point) through the
    calm -> churn -> loss -> burst schedule; return its result row."""
    wall_start = time.monotonic()
    if adaptive:
        params = dict(ADAPTIVE_BASE_PARAMS)
        config = GossipConfig(
            n_disseminators=n_nodes - 1,
            seed=seed,
            params=params,
            auto_tune=False,
            health=True,
            adaptive=True,
        )
    else:
        params = {
            "style": "push-pull",
            "fanout": static_fanout,
            "rounds": static_rounds,
            "period": 0.5,
            "peer_sample_size": max(12, static_fanout),
        }
        config = GossipConfig(
            n_disseminators=n_nodes - 1,
            seed=seed,
            params=params,
            auto_tune=False,
            health=True,
        )
    group = config.build()
    # Eager join for every arm: each disseminator owns an engine from the
    # start, so pull-family repair (static push-pull, or the controller's
    # escalated mode) can reach nodes that never saw the first push.
    group.setup(settle=1.5, eager_join=True)

    t0 = group.sim.now
    bounds = [t0 + index * phase_len for index in range(len(PHASES) + 1)]

    # Phase 2: continuous crash-restart churn (amnesia) over ~30% of the
    # group.  The generator starts immediately, so its birth is scheduled.
    names = [node.name for node in group.disseminators]
    churn_rate = churn_fraction * n_nodes / phase_len
    group.sim.call_at(
        bounds[1],
        lambda: churn_plan(
            group.network,
            names,
            rate=churn_rate,
            recover_delay=1.0,
            until=bounds[2],
            restart=True,
        ),
    )

    # Phase 3: loss ramps 10% -> 20%, then the fabric heals.
    fault_plan = FaultPlan(group.network)
    fault_plan.loss_ramp_at(bounds[2], loss_start, loss_end, phase_len)
    fault_plan.loss_at(bounds[3], 0.0)
    fault_plan.apply()

    # Steady Poisson publishes all the way through; phase 4 is a burst.
    driver = PublishDriver(
        group.sim,
        lambda sequence: group.publish({"seq": sequence}),
        rate=publish_rate,
    )
    driver.burst_publish_at(bounds[3], burst_multiplier, phase_len)
    driver.start(until=bounds[4])

    sent_marks = [group.message_counts().get("net.sent", 0)]
    for bound in bounds[1:]:
        group.run_for(bound - group.sim.now)
        sent_marks.append(group.message_counts().get("net.sent", 0))
    group.run_for(drain)
    total_sent = group.message_counts().get("net.sent", 0) - sent_marks[0]

    # Per-phase delivery, judged after the drain over nodes that are up
    # (post-churn everyone has restarted; amnesiac rejoiners must have
    # been healed by gossip repair to count).
    up_nodes = [
        node
        for node in group.disseminators
        if group.network.process(node.name).is_running
    ]
    phase_ids: Dict[str, List[str]] = {phase: [] for phase in PHASES}
    for when, gossip_id in driver.published:
        for index, phase in enumerate(PHASES):
            if bounds[index] <= when < bounds[index + 1]:
                phase_ids[phase].append(gossip_id)
                break
    delivered_total = 0
    phase_delivery: Dict[str, Optional[float]] = {}
    for phase in PHASES:
        fractions = []
        for gossip_id in phase_ids[phase]:
            delivered = sum(
                1 for node in up_nodes if node.has_delivered(gossip_id)
            )
            delivered_total += delivered
            fractions.append(delivered / len(up_nodes))
        phase_delivery[phase] = (
            round(sum(fractions) / len(fractions), 6) if fractions else None
        )

    row: Dict[str, Any] = {
        "arm": label,
        "n_nodes": n_nodes,
        "seed": seed,
        "phase_len_s": phase_len,
        "publish_rate": publish_rate,
        "params": {
            key: params[key] for key in ("style", "fanout", "rounds")
        },
        "published": len(driver.published),
        "phase_published": {
            phase: len(phase_ids[phase]) for phase in PHASES
        },
        "phase_delivery": phase_delivery,
        "min_phase_delivery": min(
            value for value in phase_delivery.values() if value is not None
        ),
        "messages_sent": total_sent,
        "phase_sent": {
            PHASES[index]: sent_marks[index + 1] - sent_marks[index]
            for index in range(len(PHASES))
        },
        "deliveries": delivered_total,
        "traffic_per_delivery": round(total_sent / max(1, delivered_total), 3),
        "wall_s": round(time.monotonic() - wall_start, 1),
    }
    if adaptive:
        control = group.hub.control.snapshot()
        row["control"] = {
            key: control[key]
            for key in ("epochs", "boosts", "shrinks", "escalations",
                        "deescalations", "ceiling_clamps")
        }
        targets = group.controller.targets
        row["final_params"] = {
            key: targets[key] for key in ("fanout", "rounds", "max_batch_rumors")
        }
    return row


def run_sweep(
    n_nodes: int,
    phase_len: float,
    publish_rate: float,
    seed: int,
    grid: List[tuple],
) -> List[Dict[str, Any]]:
    rows = [
        run_arm(
            "adaptive", n_nodes, phase_len, publish_rate, seed, adaptive=True
        )
    ]
    print(_summary_line(rows[0]), flush=True)
    for fanout, rounds in grid:
        row = run_arm(
            f"static-f{fanout}-r{rounds}",
            n_nodes, phase_len, publish_rate, seed,
            static_fanout=fanout, static_rounds=rounds,
        )
        rows.append(row)
        print(_summary_line(row), flush=True)
    return rows


def _summary_line(row: Dict[str, Any]) -> str:
    delivery = " ".join(
        f"{phase}={row['phase_delivery'][phase]}"
        for phase in PHASES
        if row["phase_delivery"][phase] is not None
    )
    return (
        f"{row['arm']:>16}: sent={row['messages_sent']:>7} "
        f"traffic/delivery={row['traffic_per_delivery']:>7} "
        f"min_delivery={row['min_phase_delivery']}  [{delivery}]"
    )


def check_claim(rows: List[Dict[str, Any]], slo: float = 0.99) -> List[str]:
    """The gate: adaptive meets the SLO in every phase and beats every
    SLO-meeting static point on traffic per delivery."""
    failures = []
    adaptive_row = rows[0]
    for phase in PHASES:
        delivery = adaptive_row["phase_delivery"][phase]
        if delivery is None:
            failures.append(f"adaptive published nothing in phase {phase}")
        elif delivery < slo:
            failures.append(
                f"adaptive delivery {delivery} < {slo} in phase {phase}"
            )
    meeting = [
        row for row in rows[1:] if row["min_phase_delivery"] >= slo
    ]
    if not meeting:
        failures.append(
            "no static grid point met the SLO -- the comparison is vacuous; "
            "widen the grid"
        )
    for row in meeting:
        if adaptive_row["traffic_per_delivery"] >= row["traffic_per_delivery"]:
            failures.append(
                f"adaptive traffic/delivery "
                f"{adaptive_row['traffic_per_delivery']} not below "
                f"{row['arm']}'s {row['traffic_per_delivery']}"
            )
    return failures


def save_rows(rows: List[Dict[str, Any]], config: Dict[str, Any]) -> None:
    """Write the sweep under BENCH_core.json's ``perturbation`` section,
    leaving every other section untouched."""
    data = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    data["perturbation"] = {
        "benchmark": "adaptive-vs-static-under-perturbation",
        "description": (
            "One group through calm -> 30% crash-restart churn -> 10-20% "
            "loss ramp -> 5x publish burst "
            "(benchmarks/bench_perturbation.py).  The adaptive controller "
            "(start: frugal push) vs a static push-pull (fanout, rounds) "
            "grid; traffic per delivered rumor at >= 0.99 per-phase "
            "delivery."
        ),
        "config": config,
        "runs": rows,
    }
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=120)
    parser.add_argument("--phase-len", type=float, default=30.0)
    parser.add_argument("--rate", type=float, default=0.5,
                        help="base publishes per simulated second")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-save", action="store_true",
                        help="print rows without touching BENCH_core.json")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: smaller group, shorter phases, assert the claim",
    )
    args = parser.parse_args(argv)

    grid = [(4, 6), (6, 8), (8, 10)]
    if args.smoke:
        args.nodes, args.phase_len, args.rate = 60, 20.0, 0.4
        grid = [(4, 6), (6, 8), (8, 10)]

    print(
        f"perturbation: N={args.nodes}, 4x{args.phase_len:.0f}s phases at "
        f"{args.rate}/s, adaptive vs {len(grid)} static points ...",
        flush=True,
    )
    rows = run_sweep(args.nodes, args.phase_len, args.rate, args.seed, grid)

    failures = check_claim(rows)
    if args.smoke:
        if failures:
            print("PERTURBATION SMOKE FAILED: " + "; ".join(failures))
            return 1
        print(
            "perturbation smoke ok: adaptive min delivery "
            f"{rows[0]['min_phase_delivery']}, traffic/delivery "
            f"{rows[0]['traffic_per_delivery']} vs best static "
            f"{min(r['traffic_per_delivery'] for r in rows[1:] if r['min_phase_delivery'] >= 0.99)}"
        )
        return 0

    print(json.dumps(rows, indent=2))
    if failures:
        print("CLAIM NOT MET: " + "; ".join(failures))
    if not args.no_save:
        save_rows(rows, {
            "n_nodes": args.nodes,
            "phase_len_s": args.phase_len,
            "publish_rate": args.rate,
            "seed": args.seed,
            "adaptive": True,
            "grid": grid,
        })
        print(f"saved to {RESULTS_PATH} under 'perturbation'")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
