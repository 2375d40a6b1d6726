"""Telemetry overhead: the N=1000 drain with wire trace context on vs off.

The live telemetry plane must be cheap enough to leave on.  A *sampled*
publication carries one ``<g:Trace>`` element on every frame, every
forward splices its hop path, and every delivery records two histogram
samples; head sampling (``TelemetryPolicy.sample_rate``, default 0.1)
keeps that cost proportional to the sample rate because unsampled
publications carry no trace section at all.

Methodology: the same constant-work burst as ``bench_perf_core`` at
N=1000, telemetry off and on *interleaved* (one warm-up run first, GC
collected-then-disabled around each timed drain), compared on the
minimum process CPU time over the repeats.  CPU time is immune to the
scheduler noise that dominates wall clock on shared hosts; min-of-N
discards the remaining allocator jitter.

The headline (asserted by ``--smoke`` / ``make bench-telemetry-smoke``):

* ``overhead_ratio`` -- telemetry-on drain CPU over telemetry-off, at
  the default policy.  Must be <= 1.05 (or within an absolute 0.15s
  slack for hosts where the baseline drain is all noise).
* Both runs must still deliver >= 0.99, and the telemetry run must
  actually sample (``telemetry.samples > 0``) -- a zero-cost run that
  traced nothing proves nothing.

Run directly to merge a ``telemetry`` section into ``BENCH_core.json``::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from _tables import emit

from repro import GossipConfig

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_core.json"
)
N = 1000
REPEATS = 3
PUBLICATIONS = 50
DRAIN_SIM_S = 12.0
DELIVERED_FLOOR = 0.99
OVERHEAD_CEILING = 1.05
#: Absolute slack: below this CPU delta the ratio is allocator noise.
ABSOLUTE_SLACK_S = 0.15
#: Sample rate the telemetry runs use.  None = the policy default.
SAMPLE_RATE = None
PARAMS = {
    "fanout": 6,
    "rounds": 9,
    "peer_sample_size": 14,
    "max_batch_rumors": 64,
}


def run_once(n: int, telemetry, seed: int = 3) -> dict:
    """One burst dissemination; returns drain CPU/wall and delivery facts."""
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        params=dict(PARAMS),
        auto_tune=False,
        telemetry=telemetry,
    ).build()
    group.setup(settle=1.0, eager_join=True)
    message_ids = [group.publish({"tick": i}) for i in range(PUBLICATIONS)]
    gc.collect()
    gc.disable()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    group.run_for(DRAIN_SIM_S)
    drain_cpu = time.process_time() - cpu_started
    drain_wall = time.perf_counter() - wall_started
    gc.enable()
    counters = group.hub.counters()
    return {
        "drain_cpu_s": round(drain_cpu, 4),
        "drain_wall_s": round(drain_wall, 4),
        "delivered_fraction": round(
            min(group.delivered_fraction(mid) for mid in message_ids), 5
        ),
        "telemetry_samples": counters.get("telemetry.samples", 0),
        "net_sent": counters.get("net.sent", 0),
    }


def measure(n: int = N, repeats: int = REPEATS) -> dict:
    """Min-of-``repeats`` drain CPU, telemetry off vs on, interleaved."""
    telemetry = {"sample_rate": SAMPLE_RATE} if SAMPLE_RATE is not None else True
    run_once(n, None)  # warm-up: allocator pools, import costs (discarded)
    off_runs, on_runs = [], []
    for _ in range(repeats):
        off_runs.append(run_once(n, None))
        on_runs.append(run_once(n, telemetry))
    off_cpu = min(run["drain_cpu_s"] for run in off_runs)
    on_cpu = min(run["drain_cpu_s"] for run in on_runs)
    return {
        "n": n,
        "repeats": repeats,
        "publications": PUBLICATIONS,
        "sample_rate": SAMPLE_RATE if SAMPLE_RATE is not None else "default",
        "drain_cpu_off_s": off_cpu,
        "drain_cpu_on_s": on_cpu,
        "drain_wall_off_s": min(run["drain_wall_s"] for run in off_runs),
        "drain_wall_on_s": min(run["drain_wall_s"] for run in on_runs),
        "overhead_ratio": round(on_cpu / max(off_cpu, 1e-9), 4),
        "overhead_delta_s": round(on_cpu - off_cpu, 4),
        "delivered_off": min(run["delivered_fraction"] for run in off_runs),
        "delivered_on": min(run["delivered_fraction"] for run in on_runs),
        "telemetry_samples": on_runs[-1]["telemetry_samples"],
        "net_sent_off": off_runs[-1]["net_sent"],
        "net_sent_on": on_runs[-1]["net_sent"],
    }


def _check(row: dict) -> list:
    failures = []
    if row["delivered_off"] < DELIVERED_FLOOR:
        failures.append(
            f"baseline delivery below floor: {row['delivered_off']}"
        )
    if row["delivered_on"] < DELIVERED_FLOOR:
        failures.append(
            f"telemetry delivery below floor: {row['delivered_on']}"
        )
    if row["telemetry_samples"] <= 0:
        failures.append("telemetry run recorded no trace samples")
    if (
        row["overhead_ratio"] > OVERHEAD_CEILING
        and row["overhead_delta_s"] > ABSOLUTE_SLACK_S
    ):
        failures.append(
            f"telemetry overhead above ceiling: ratio "
            f"{row['overhead_ratio']} > {OVERHEAD_CEILING} "
            f"(delta {row['overhead_delta_s']}s CPU)"
        )
    return failures


def _emit_table(row: dict, save: bool = True) -> None:
    emit(
        "telemetry_overhead",
        "Wire trace context overhead on the N=1000 drain (min CPU of repeats)",
        [
            "N",
            "cpu off s",
            "cpu on s",
            "ratio",
            "delivered on",
            "trace samples",
        ],
        [[
            row["n"],
            row["drain_cpu_off_s"],
            row["drain_cpu_on_s"],
            row["overhead_ratio"],
            row["delivered_on"],
            row["telemetry_samples"],
        ]],
        save=save,
    )


def smoke(n: int = N) -> int:
    row = measure(n)
    _emit_table(row, save=False)
    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"OK: telemetry overhead {row['overhead_ratio']}x "
            f"({row['overhead_delta_s']}s CPU) within "
            f"{OVERHEAD_CEILING}x budget"
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="measure and assert the <= 5% overhead ceiling (no JSON write)",
    )
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument(
        "--output", default=BASELINE_PATH,
        help="BENCH_core.json to merge the telemetry section into",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        return smoke(arguments.n)
    row = measure(arguments.n)
    _emit_table(row)
    failures = _check(row)
    try:
        with open(arguments.output) as handle:
            results = json.load(handle)
    except (OSError, ValueError):
        results = {}
    results["telemetry"] = row
    with open(arguments.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"merged telemetry section into {arguments.output}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
