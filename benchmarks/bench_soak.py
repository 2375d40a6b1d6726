"""Live soak: the stock workload through a real-socket gossip mesh.

Where ``bench_perf_core`` measures the *simulated* stack, this benchmark
stands up an actual deployment -- hundreds of full middleware stacks,
each on its own UDP (or keep-alive HTTP) socket, all on one event loop --
and pumps stock ticks through it for minutes while scraping the
aggregated ``GET /v1/metrics`` edge throughout, exactly how an operator
would watch it.  Results (sustained publishes/s, delivery fraction,
p50/p95/p99 end-to-end latency) land under the ``"soak"`` key of
BENCH_core.json.

Run the full soak (300 nodes, 3 minutes):

    PYTHONPATH=src python benchmarks/bench_soak.py

CI gate (small mesh, seconds, asserts delivery and latency):

    PYTHONPATH=src python benchmarks/bench_soak.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path

from repro.core.aiodeploy import AsyncGossipMesh, soak_params
from repro.obs.hub import default_hub
from repro.transport.aio import AioHttpTransport, AsyncHttpNode
from repro.workloads import StockFeed

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


async def run_soak(
    n_nodes: int,
    duration: float,
    rate: float,
    transport: str = "udp",
    view_size: int = 8,
    seed: int = 0,
    scrape_period: float = 2.0,
    settle: float = 6.0,
    period: float = 0.5,
) -> dict:
    """One soak run; returns the result row."""
    wall_start = time.monotonic()
    mesh = AsyncGossipMesh(
        n_nodes,
        transport=transport,
        params=soak_params(transport, period=period),
        view_size=view_size,
        seed=seed,
    )
    loop = mesh.loop
    await mesh.astart()
    # The operator's window into the run: one HTTP edge serving the
    # *default* hub, i.e. every node's stat groups aggregated.
    metrics_edge = AsyncHttpNode(hub=default_hub())
    await metrics_edge.astart()
    scraper = AioHttpTransport()
    metrics_url = f"{metrics_edge.base_address}/v1/metrics"

    feed = StockFeed(rate=rate, seed=seed)
    rng = random.Random(seed + 1)
    published = {}  # gossip id -> (publisher index, publish time)
    scrapes_ok = 0
    scrape_bytes = 0
    start = loop.time()
    next_scrape = start + scrape_period
    try:
        for tick in feed.ticks(duration):
            lag = tick.time - (loop.time() - start)
            if lag > 0:
                await asyncio.sleep(lag)
            publisher = rng.randrange(n_nodes)
            gossip_id = await mesh.apublish(tick.to_value(), publisher)
            published[gossip_id] = (publisher, loop.time())
            if loop.time() >= next_scrape:
                status, _, body = await scraper.get(metrics_url)
                if status == 200 and body:
                    scrapes_ok += 1
                    scrape_bytes += len(body)
                next_scrape = loop.time() + scrape_period
        publish_span = loop.time() - start
        await asyncio.sleep(settle)
        status, _, body = await scraper.get(metrics_url)
        if status == 200 and body:
            scrapes_ok += 1
            scrape_bytes += len(body)
    finally:
        await scraper.aclose()
        await metrics_edge.astop()
        await mesh.astop()

    fractions = [
        mesh.delivered_fraction(gossip_id, publisher)
        for gossip_id, (publisher, _) in published.items()
    ]
    latencies = mesh.delivery_latencies(
        {gossip_id: when for gossip_id, (_, when) in published.items()}
    )
    hub = default_hub()
    return {
        "n_nodes": n_nodes,
        "transport": transport,
        "view_size": view_size,
        "seed": seed,
        "period_s": period,
        "duration_s": round(duration, 3),
        "ticks_published": len(published),
        "publishes_per_s": round(len(published) / publish_span, 2),
        "delivered_fraction": round(sum(fractions) / len(fractions), 6),
        "min_delivered_fraction": round(min(fractions), 6),
        "deliveries": mesh.total_deliveries(),
        "latency_p50_ms": round(percentile(latencies, 50) * 1000, 2),
        "latency_p95_ms": round(percentile(latencies, 95) * 1000, 2),
        "latency_p99_ms": round(percentile(latencies, 99) * 1000, 2),
        "metrics_scrapes": scrapes_ok,
        "metrics_scrape_bytes": scrape_bytes,
        "wire_parse_count": hub.wire.parse_count.value,
        "dedup_preparse_hits": hub.wire.dedup_preparse_hits.value,
        "wall_s": round(time.monotonic() - wall_start, 1),
    }


def save_row(row: dict) -> None:
    """Append the row under BENCH_core.json's ``soak`` section.

    The simulator sections (``headline``, ``runs``...) are left exactly
    as they are -- ``bench_perf_core --smoke`` validates those.
    """
    data = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    soak = data.setdefault("soak", {
        "benchmark": "live-soak",
        "description": (
            "Real-socket mesh on one event loop (benchmarks/bench_soak.py): "
            "stock ticks through N full middleware stacks, GET /v1/metrics "
            "scraped throughout; per-(message,node) end-to-end latency."
        ),
        "runs": [],
    })
    soak["runs"] = [
        existing for existing in soak["runs"]
        if (existing["n_nodes"], existing["transport"])
        != (row["n_nodes"], row["transport"])
    ] + [row]
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--duration", type=float, default=180.0)
    parser.add_argument("--rate", type=float, default=10.0,
                        help="mean stock ticks per second")
    parser.add_argument("--transport", choices=("udp", "http"), default="udp")
    parser.add_argument("--view-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settle", type=float, default=6.0,
                        help="seconds to let the tail disseminate")
    parser.add_argument("--period", type=float, default=0.5,
                        help="gossip round period (pull-digest cadence)")
    parser.add_argument("--no-save", action="store_true",
                        help="print the row without touching BENCH_core.json")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: small mesh, short run, assert delivery and p99",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes, args.duration, args.rate = 40, 6.0, 10.0
        args.settle = 4.0

    print(
        f"soak: {args.nodes} nodes over {args.transport}, "
        f"{args.duration:.0f}s at {args.rate:.0f} ticks/s ...",
        flush=True,
    )
    row = asyncio.run(run_soak(
        args.nodes, args.duration, args.rate,
        transport=args.transport, view_size=args.view_size,
        seed=args.seed, settle=args.settle, period=args.period,
    ))
    print(json.dumps(row, indent=2))

    if args.smoke:
        failures = []
        if row["delivered_fraction"] < 0.99:
            failures.append(
                f"delivered_fraction {row['delivered_fraction']} < 0.99"
            )
        if row["latency_p99_ms"] > 5000.0:
            failures.append(f"latency_p99_ms {row['latency_p99_ms']} > 5000")
        if row["metrics_scrapes"] < 1:
            failures.append("no successful /v1/metrics scrape")
        if failures:
            print("SOAK SMOKE FAILED: " + "; ".join(failures))
            return 1
        print("soak smoke ok: delivery "
              f"{row['delivered_fraction']}, p99 {row['latency_p99_ms']}ms, "
              f"{row['metrics_scrapes']} metrics scrapes")
        return 0

    if not args.no_save:
        save_row(row)
        print(f"saved to {RESULTS_PATH} under 'soak'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
