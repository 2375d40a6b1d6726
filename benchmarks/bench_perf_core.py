"""Core wire-path performance: batched dissemination scaling.

Measures the multi-rumor batched wire path end to end at N in
{100, 1000, 5000} endpoints with a *constant-total-work* burst workload:
each size publishes ``~TOTAL_DELIVERIES / N`` rumors in one burst, so
every row performs roughly the same number of application deliveries and
wall-clock differences isolate per-node overhead (near-linear scaling
shows up as a flat wall-clock column).

Phases are timed separately (S2 of the perf issue):

* ``publish_wall_s`` -- wall time of the ``publish()`` calls alone, and
  ``publishes_per_s`` derived from it (the old benchmark divided by the
  whole run including the drain, which under-reported throughput ~100x).
* ``drain_wall_s`` -- wall time to run the simulator until the burst has
  disseminated.

Delivery latency is reported in *simulated* time percentiles
(``latency_p50/p95/p99_s``) across every (message, consumer) delivery.

The headline numbers (asserted by ``--smoke`` / ``make bench-smoke``):

* ``envelope_reduction_n1000`` -- envelopes per delivery, unbatched
  reference over batched run, at N=1000.  Must be >= 5.
* ``wall_ratio_5000_vs_1000`` -- batched drain wall at N=5000 over
  N=1000.  Constant total work, so near-linear scaling keeps this ~1;
  must be <= 3.
* ``scaling_exponent`` -- slope of log(drain wall) vs log(N) across the
  batched rows (0 = perfectly flat, 1 = linear per-node blowup).
* ``delivered_fraction`` >= 0.99 on every batched row.

Run directly to (re)generate ``BENCH_core.json``::

    PYTHONPATH=src python benchmarks/bench_perf_core.py

or ``--smoke`` (used by ``make bench-smoke``) to run N=100 live and
validate the checked-in headline numbers without the multi-minute sizes.
Under pytest only the N=100 row runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from _tables import emit

from repro import GossipConfig
from repro.obs.profiler import Profiler

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_core.json"
)
SIZES = [100, 1000, 5000]
SMOKE_SIZE = 100
# Every size performs ~this many application deliveries in total, so the
# rows are comparable: publications(n) = TOTAL_DELIVERIES / n.
TOTAL_DELIVERIES = 50_000
MAX_BATCH_RUMORS = 64
DRAIN_SIM_S = 12.0
DELIVERED_FLOOR = 0.99
ENVELOPE_REDUCTION_FLOOR = 5.0
WALL_RATIO_CEILING = 3.0
PARAMS = {"fanout": 6, "rounds": 9, "peer_sample_size": 14}


def publications_for(n: int) -> int:
    return max(1, round(TOTAL_DELIVERIES / n))


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def run_size(n: int, seed: int = 3, max_batch_rumors: int = MAX_BATCH_RUMORS) -> dict:
    """One measured burst dissemination with ``n`` application endpoints."""
    publications = publications_for(n)
    params = dict(PARAMS, max_batch_rumors=max_batch_rumors)
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        # Pure push: the dissemination wire path is the thing measured, so
        # periodic digest styles (whose control traffic would swamp the
        # envelope counts) stay out of the picture.
        params=params,
        auto_tune=False,
    ).build()
    profiler = Profiler(sim_clock=lambda: group.sim.now)
    # Eager join: every node registers during setup, so the burst measures
    # dissemination, not the one-time join handshake -- and no node parks
    # rumors in the bounded pending-forward buffer waiting for a view.
    with profiler.section("setup"):
        group.setup(settle=1.0, eager_join=True)

    # Counts at the end of setup: the burst's counts are the difference.
    wire_at_setup = group.hub.wire.snapshot()
    batch_at_setup = group.hub.batch.snapshot()
    sent_at_setup = group.metrics.counter("soap.sent").value
    shared_at_setup = group.metrics.counter("soap.sent-shared").value

    publish_started = time.perf_counter()
    published_at = group.sim.now
    with profiler.section("publish"):
        message_ids = [
            group.publish({"tick": index}) for index in range(publications)
        ]
    publish_wall = time.perf_counter() - publish_started

    drain_started = time.perf_counter()
    with profiler.section("drain"):
        group.run_for(DRAIN_SIM_S)
    drain_wall = time.perf_counter() - drain_started

    fractions = [group.delivered_fraction(mid) for mid in message_ids]
    deliveries = sum(round(fraction * (n - 1)) for fraction in fractions)
    latencies = sorted(
        delivery_time - published_at
        for mid in message_ids
        for delivery_time in group.delivery_times(mid)
    )
    stats = {
        field: value - wire_at_setup[field]
        for field, value in group.hub.wire.snapshot().items()
    }
    batch = {
        field: value - batch_at_setup[field]
        for field, value in group.hub.batch.snapshot().items()
    }
    counts = group.message_counts()
    sent = counts.get("soap.sent", 0) - sent_at_setup
    shared = counts.get("soap.sent-shared", 0) - shared_at_setup
    serialize = max(stats["serialize_count"], 1)
    return {
        "n": n,
        "publications": publications,
        "max_batch_rumors": max_batch_rumors,
        "publish_wall_s": round(publish_wall, 4),
        "drain_wall_s": round(drain_wall, 4),
        "publishes_per_s": round(publications / publish_wall, 1)
        if publish_wall
        else None,
        "delivered_fraction": round(min(fractions), 5),
        "mean_delivered_fraction": round(sum(fractions) / len(fractions), 5),
        "deliveries": deliveries,
        "latency_p50_s": round(_percentile(latencies, 0.50), 4),
        "latency_p95_s": round(_percentile(latencies, 0.95), 4),
        "latency_p99_s": round(_percentile(latencies, 0.99), 4),
        "serialize_count": stats["serialize_count"],
        "serialize_reused": stats["serialize_reused"],
        "parse_count": stats["parse_count"],
        "dedup_preparse_hits": stats["dedup_preparse_hits"],
        "soap_sent": sent,
        "soap_sent_shared": shared,
        "envelopes_per_delivery": round(sent / max(deliveries, 1), 4),
        "naive_to_bytes_ratio": round(sent / serialize, 2),
        "parses_per_delivery": round(stats["parse_count"] / max(deliveries, 1), 3),
        "batches_sent": batch["batches_sent"],
        "rumors_batched": batch["rumors_batched"],
        "batches_skipped_preparse": batch["batches_skipped_preparse"],
        "phases": profiler.report(),
    }


def fit_scaling_exponent(rows) -> float:
    """Least-squares slope of log(drain wall) vs log(N)."""
    points = [
        (math.log(row["n"]), math.log(row["drain_wall_s"]))
        for row in rows
        if row["drain_wall_s"] > 0
    ]
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    if denominator == 0:
        return 0.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / denominator
    return round(slope, 4)


def run_all(sizes=SIZES) -> dict:
    rows = [run_size(n) for n in sizes]
    # Unbatched reference at N=1000 only: same burst, max_batch_rumors=1,
    # for the envelope-reduction headline.
    reference = run_size(1000, max_batch_rumors=1) if 1000 in sizes else None
    emit(
        "perf_core",
        "Batched wire path: constant-total-work burst scaling",
        [
            "N",
            "pubs",
            "publish s",
            "drain s",
            "delivered",
            "env/delivery",
            "p50 s",
            "p99 s",
            "batches",
            "preparse hits",
        ],
        [
            [
                row["n"],
                row["publications"],
                row["publish_wall_s"],
                row["drain_wall_s"],
                row["delivered_fraction"],
                row["envelopes_per_delivery"],
                row["latency_p50_s"],
                row["latency_p99_s"],
                row["batches_sent"],
                row["dedup_preparse_hits"],
            ]
            for row in rows + ([reference] if reference else [])
        ],
    )
    headline = {"scaling_exponent": fit_scaling_exponent(rows)}
    by_n = {row["n"]: row for row in rows}
    if reference and 1000 in by_n:
        headline["envelope_reduction_n1000"] = round(
            reference["envelopes_per_delivery"]
            / max(by_n[1000]["envelopes_per_delivery"], 1e-9),
            2,
        )
    if 1000 in by_n and 5000 in by_n:
        headline["wall_ratio_5000_vs_1000"] = round(
            by_n[5000]["drain_wall_s"] / max(by_n[1000]["drain_wall_s"], 1e-9), 3
        )
    return {
        "benchmark": "bench_perf_core",
        "description": (
            "Multi-rumor batched gossip wire path: constant-total-work burst "
            "dissemination at several population sizes, plus an unbatched "
            "reference run at N=1000"
        ),
        "config": {
            "params": PARAMS,
            "max_batch_rumors": MAX_BATCH_RUMORS,
            "total_deliveries_target": TOTAL_DELIVERIES,
            "drain_sim_s": DRAIN_SIM_S,
            "seed": 3,
        },
        "headline": headline,
        "runs": rows,
        "unbatched_reference": reference,
    }


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def smoke() -> int:
    """Live N=100 run plus headline validation of the checked-in baseline."""
    failures = []

    current = run_size(SMOKE_SIZE)
    print(
        f"live N={SMOKE_SIZE}: delivered {current['delivered_fraction']}, "
        f"{current['envelopes_per_delivery']} envelopes/delivery, "
        f"{current['batches_sent']} batches"
    )
    if current["delivered_fraction"] < DELIVERED_FLOOR:
        failures.append(
            f"live delivery below floor: {current['delivered_fraction']} "
            f"< {DELIVERED_FLOOR}"
        )
    if current["batches_sent"] <= 0:
        failures.append("live run never sent a batch")
    if current["dedup_preparse_hits"] <= 0:
        failures.append("pre-parse dedup gate never fired")

    baseline = load_baseline()
    headline = baseline.get("headline", {})
    reduction = headline.get("envelope_reduction_n1000")
    ratio = headline.get("wall_ratio_5000_vs_1000")
    exponent = headline.get("scaling_exponent")
    print(
        f"baseline headline: envelope reduction {reduction}x, "
        f"5k/1k wall ratio {ratio}, scaling exponent {exponent}"
    )
    if reduction is None or reduction < ENVELOPE_REDUCTION_FLOOR:
        failures.append(
            f"envelope reduction below floor: {reduction} "
            f"< {ENVELOPE_REDUCTION_FLOOR}"
        )
    if ratio is None or ratio > WALL_RATIO_CEILING:
        failures.append(
            f"5k/1k wall ratio above ceiling: {ratio} > {WALL_RATIO_CEILING}"
        )
    for row in baseline.get("runs", []):
        if row["delivered_fraction"] < DELIVERED_FLOOR:
            failures.append(
                f"baseline N={row['n']} delivery below floor: "
                f"{row['delivered_fraction']} < {DELIVERED_FLOOR}"
            )

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: batched wire path within budget")
    return 1 if failures else 0


def test_perf_core_smoke():
    """Pytest entry point: the N=100 row only, asserting the fast path."""
    row = run_size(SMOKE_SIZE)
    emit(
        "perf_core_smoke",
        "Batched wire path (smoke, N=100)",
        [
            "N",
            "pubs",
            "delivered",
            "env/delivery",
            "batches",
            "preparse hits",
            "publishes/s",
        ],
        [[
            row["n"],
            row["publications"],
            row["delivered_fraction"],
            row["envelopes_per_delivery"],
            row["batches_sent"],
            row["dedup_preparse_hits"],
            row["publishes_per_s"],
        ]],
        save=False,
    )
    assert row["delivered_fraction"] >= DELIVERED_FLOOR
    assert row["batches_sent"] > 0
    assert row["dedup_preparse_hits"] > 0
    assert row["serialize_reused"] > 0
    # Batching must beat one-envelope-per-delivery by a wide margin.
    assert row["envelopes_per_delivery"] < 1.0


def profile(n: int = 1000) -> int:
    """cProfile one batched burst run; print the top 25 by cumulative time."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    row = run_size(n)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    print(
        f"N={n}: publish {row['publish_wall_s']}s, drain {row['drain_wall_s']}s, "
        f"delivered {row['delivered_fraction']}"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run N=100 live and validate the checked-in headline numbers",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile a single N=1000 run (top 25 by cumulative time)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=SIZES,
        help="population sizes to measure",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run the burst through the K-process sharded simulator "
             "instead (each size measured at K=1 and K for the speedup; "
             "see bench_shard.py)",
    )
    parser.add_argument(
        "--output",
        default=BASELINE_PATH,
        help="where to write the JSON results",
    )
    arguments = parser.parse_args()
    if arguments.profile:
        return profile()
    if arguments.smoke:
        return smoke()
    if arguments.shards > 1:
        from bench_shard import _emit_table, add_speedups, run_row

        rows = []
        for n in arguments.sizes:
            for shards in (1, arguments.shards):
                rows.append(run_row(n, shards))
        add_speedups(rows)
        _emit_table(rows)
        return 0
    results = run_all(arguments.sizes)
    with open(arguments.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
