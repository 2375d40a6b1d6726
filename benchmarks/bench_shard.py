"""Sharded simulator strong scaling: K worker processes, one deployment.

Runs the constant-total-work burst of ``bench_perf_core`` (same params,
same ``publications(n) = TOTAL_DELIVERIES / n`` workload) through
``GossipConfig(shards=K).build()`` at N in {1000, 5000, 20000} and
K in {1, 2, 4, 8}, and records two speedups per row:

* ``wall_speedup`` -- K=1 drain wall over this row's drain wall.  Only
  meaningful when the host actually has >= K cores; on a single-core
  container the workers timeslice one CPU and the wall *regresses*.
* ``critical_path_speedup`` -- K=1 drain wall over the row's critical
  path: the parent's own drain CPU plus ``max(worker busy CPU)``.  The
  workers run concurrently, so with one core per shard the drain wall
  approaches exactly this sum; it is the honest projection of the
  multi-core wall from a core-starved measurement host.  Per-worker busy
  is CPU time (``time.process_time`` in the worker), not wall, so
  co-scheduled siblings don't inflate it.

The determinism contract (also asserted by ``--smoke`` /
``make bench-shard-smoke``):

* same seed and same K, run twice -> byte-identical per-shard trace
  digests (event-by-event);
* K=1 vs K>1 at the same seed -> the *delivered rumor sets are
  identical per publication* once the protocol converges (the gate uses
  push-pull, whose anti-entropy repair reaches delivery 1.0; pure push
  below 1.0 admits same-instant tie reorderings that legitimately change
  peer draws -- see docs/ARCHITECTURE.md, "Parallel simulation").

Run directly to (re)write the ``"shard"`` section of ``BENCH_core.json``
(the other sections are preserved)::

    PYTHONPATH=src python benchmarks/bench_shard.py

or ``--smoke`` for the fast K=2/N=1000 gate used by ``make test``.
Under pytest only the smoke gate runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from _tables import emit

from bench_perf_core import (
    BASELINE_PATH,
    DRAIN_SIM_S,
    MAX_BATCH_RUMORS,
    PARAMS,
    publications_for,
)

from repro import GossipConfig

SIZES = [1000, 5000, 20000]
SHARD_COUNTS = [1, 2, 4, 8]
SEED = 3
DELIVERED_FLOOR = 0.99
SPEEDUP_FLOOR_K4 = 2.0
SMOKE_SPEEDUP_FLOOR = 1.3
SMOKE_N = 1000
SMOKE_K = 2
# Determinism-contract scenario: small enough to be fast, push-pull so
# anti-entropy repair converges to delivery 1.0 (below 1.0 the delivered
# set is not invariant across K -- that's the documented contract).
CONTRACT_N = 60
CONTRACT_SEEDS = [11, 23, 37]
CONTRACT_PARAMS = {"style": "push-pull", "fanout": 4, "rounds": 8}
CONTRACT_RUN_S = 10.0
CONTRACT_PUBLICATIONS = 3


def run_row(
    n: int,
    shards: int,
    seed: int = SEED,
    max_batch_rumors: int = MAX_BATCH_RUMORS,
) -> dict:
    """One measured burst dissemination, simulated across ``shards``."""
    publications = publications_for(n)
    params = dict(PARAMS, max_batch_rumors=max_batch_rumors)
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        params=params,
        auto_tune=False,
        shards=shards,
    ).build()
    try:
        started = time.perf_counter()
        group.setup(settle=1.0, eager_join=True)
        setup_wall = time.perf_counter() - started

        started = time.perf_counter()
        message_ids = [
            group.publish({"tick": index}) for index in range(publications)
        ]
        publish_wall = time.perf_counter() - started

        # Parent CPU during the drain: for K=1 this is the whole
        # simulation; for K>1 it is routing/pickling only, and it is the
        # serial leg of the critical path.  Worker busy is cumulative, so
        # snapshot it around the drain -- the speedup compares drain
        # against drain, not against setup (whose join/subscribe work
        # dwarfs a small burst at large N).
        busy_before = group.worker_busy() if shards > 1 else []
        started = time.perf_counter()
        cpu_started = time.process_time()
        group.run_for(DRAIN_SIM_S)
        drain_cpu = time.process_time() - cpu_started
        drain_wall = time.perf_counter() - started

        fractions = [group.delivered_fraction(mid) for mid in message_ids]
        row = {
            "n": n,
            "shards": shards,
            "publications": publications,
            "setup_wall_s": round(setup_wall, 4),
            "publish_wall_s": round(publish_wall, 4),
            "drain_wall_s": round(drain_wall, 4),
            "drain_parent_cpu_s": round(drain_cpu, 4),
            "delivered_fraction": round(min(fractions), 5),
            "mean_delivered_fraction": round(
                sum(fractions) / len(fractions), 5
            ),
            "cpu_count": os.cpu_count(),
        }
        if shards > 1:
            busy = [
                after - before
                for after, before in zip(group.worker_busy(), busy_before)
            ]
            row["worker_busy_s"] = [round(b, 4) for b in busy]
            row["max_worker_busy_s"] = round(max(busy), 4)
            row["barriers"] = group.barriers
            # Parent serial work + the slowest shard, run concurrently:
            # the drain wall this row approaches given one core/shard.
            row["critical_path_s"] = round(drain_cpu + max(busy), 4)
        else:
            row["critical_path_s"] = round(drain_wall, 4)
        return row
    finally:
        if hasattr(group, "close"):
            group.close()


def add_speedups(rows) -> None:
    """Annotate each row with speedups against its size's K=1 row."""
    baselines = {
        row["n"]: row["drain_wall_s"] for row in rows if row["shards"] == 1
    }
    for row in rows:
        base = baselines.get(row["n"])
        if base is None:
            continue
        row["wall_speedup"] = round(base / max(row["drain_wall_s"], 1e-9), 3)
        row["critical_path_speedup"] = round(
            base / max(row["critical_path_s"], 1e-9), 3
        )


def delivered_sets(n: int, shards: int, seed: int):
    """Receiver sets per publication index for the contract scenario."""
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        params=dict(CONTRACT_PARAMS),
        auto_tune=False,
        shards=shards,
    ).build()
    try:
        group.setup(settle=1.0, eager_join=True)
        message_ids = [
            group.publish({"tick": index})
            for index in range(CONTRACT_PUBLICATIONS)
        ]
        group.run_for(CONTRACT_RUN_S)
        # GossipGroup.receivers returns node objects; the sharded group
        # returns names (nodes live in worker processes).  Compare names.
        return [
            frozenset(
                node if isinstance(node, str) else node.name
                for node in group.receivers(mid)
            )
            for mid in message_ids
        ]
    finally:
        if hasattr(group, "close"):
            group.close()


def repeat_digests(n: int, shards: int, seed: int):
    """Per-shard trace digests of one traced contract run."""
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        params=dict(CONTRACT_PARAMS),
        auto_tune=False,
        trace=True,
        shards=shards,
    ).build()
    try:
        group.setup(settle=1.0, eager_join=True)
        for index in range(CONTRACT_PUBLICATIONS):
            group.publish({"tick": index})
        group.run_for(CONTRACT_RUN_S)
        return group.trace_digests()
    finally:
        group.close()


def check_contract(shard_counts, seeds=CONTRACT_SEEDS) -> list:
    """Delivered-set equality K=1 vs each K, per seed.  Returns failures."""
    failures = []
    for seed in seeds:
        reference = delivered_sets(CONTRACT_N, 1, seed)
        population = CONTRACT_N - 1
        for index, receivers in enumerate(reference):
            if len(receivers) != population:
                failures.append(
                    f"seed {seed} K=1 publication {index} did not converge: "
                    f"{len(receivers)}/{population} delivered"
                )
        for shards in shard_counts:
            candidate = delivered_sets(CONTRACT_N, shards, seed)
            if candidate != reference:
                diffs = [
                    index
                    for index, (a, b) in enumerate(zip(reference, candidate))
                    if a != b
                ]
                failures.append(
                    f"seed {seed}: delivered sets K={shards} differ from K=1 "
                    f"at publication(s) {diffs}"
                )
    return failures


def check_repeatability(shards: int, seed: int) -> list:
    """Same seed, same K, twice: per-shard digests must be identical."""
    first = repeat_digests(CONTRACT_N, shards, seed)
    second = repeat_digests(CONTRACT_N, shards, seed)
    failures = []
    if first != second:
        failures.append(
            f"seed {seed} K={shards}: repeat run diverged "
            f"(digests {[d['digest'][:12] for d in first]} vs "
            f"{[d['digest'][:12] for d in second]})"
        )
    return failures


def _emit_table(rows, save: bool = True) -> None:
    emit(
        "shard",
        "Sharded simulator strong scaling (constant-total-work burst)",
        [
            "N",
            "K",
            "drain s",
            "parent cpu s",
            "max busy s",
            "barriers",
            "delivered",
            "wall x",
            "critical-path x",
        ],
        [
            [
                row["n"],
                row["shards"],
                row["drain_wall_s"],
                row["drain_parent_cpu_s"],
                row.get("max_worker_busy_s", "-"),
                row.get("barriers", "-"),
                row["delivered_fraction"],
                row.get("wall_speedup", "-"),
                row.get("critical_path_speedup", "-"),
            ]
            for row in rows
        ],
        save=save,
    )


def run_all(sizes=SIZES, shard_counts=SHARD_COUNTS) -> dict:
    rows = []
    for n in sizes:
        for shards in shard_counts:
            rows.append(run_row(n, shards))
            print(
                f"n={n} K={shards}: drain {rows[-1]['drain_wall_s']}s, "
                f"critical path {rows[-1]['critical_path_s']}s, "
                f"delivered {rows[-1]['delivered_fraction']}"
            )
    add_speedups(rows)
    _emit_table(rows)

    contract_failures = check_contract([k for k in shard_counts if k > 1])
    contract_failures += check_repeatability(max(shard_counts), CONTRACT_SEEDS[0])
    for failure in contract_failures:
        print(f"CONTRACT FAIL: {failure}")

    by_key = {(row["n"], row["shards"]): row for row in rows}
    headline = {}
    target = by_key.get((5000, 4))
    if target:
        headline["wall_speedup_n5000_k4"] = target.get("wall_speedup")
        headline["critical_path_speedup_n5000_k4"] = target.get(
            "critical_path_speedup"
        )
        headline["delivered_fraction_n5000_k4"] = target["delivered_fraction"]
    headline["determinism_contract_ok"] = not contract_failures
    return {
        "benchmark": "bench_shard",
        "description": (
            "Conservative-PDES sharded simulator: constant-total-work burst "
            "dissemination across K worker processes; wall speedup is "
            "hardware-bound (cpu_count), critical_path_speedup projects the "
            "wall with one core per shard (parent drain CPU + max worker "
            "busy CPU)"
        ),
        "config": {
            "params": PARAMS,
            "max_batch_rumors": MAX_BATCH_RUMORS,
            "drain_sim_s": DRAIN_SIM_S,
            "seed": SEED,
            "sizes": list(sizes),
            "shard_counts": list(shard_counts),
            "contract": dict(
                CONTRACT_PARAMS, n=CONTRACT_N, seeds=CONTRACT_SEEDS
            ),
        },
        "headline": headline,
        "runs": rows,
        "contract_failures": contract_failures,
    }


def write_section(results: dict, path: str = BASELINE_PATH) -> None:
    """Merge the results into ``BENCH_core.json`` under ``"shard"``."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {}
    document["shard"] = results
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def smoke() -> int:
    """Fast gate for ``make test``: determinism contract + K=2
    critical-path speedup (the wall speedup is printed, not gated)."""
    failures = []

    failures += check_contract([SMOKE_K, 4], seeds=CONTRACT_SEEDS[:1])
    failures += check_repeatability(SMOKE_K, CONTRACT_SEEDS[0])
    if not failures:
        print(
            f"determinism contract OK (N={CONTRACT_N}, push-pull, "
            f"K=1 vs K={SMOKE_K} and K=4, repeat-run digests identical)"
        )

    # Best of two: the same seed replays the identical event sequence, so
    # run-to-run spread is pure host noise (one-sided inflation from
    # timeslicing on shared hosts) and the minimum is the honest figure.
    rows = [
        min(
            (run_row(SMOKE_N, shards) for _ in range(2)),
            key=lambda row: row["critical_path_s"],
        )
        for shards in (1, SMOKE_K)
    ]
    add_speedups(rows)
    _emit_table(rows, save=False)
    sharded = rows[1]
    # Judged on the critical path on every host: the wall depends on how
    # many cores the host has and on what else runs on them, so it is
    # reported, never gated.
    speedup = sharded["critical_path_speedup"]
    print(
        f"N={SMOKE_N} K={SMOKE_K}: drain {sharded['drain_wall_s']}s "
        f"(K=1 {rows[0]['drain_wall_s']}s), critical_path_speedup {speedup}x, "
        f"delivered {sharded['delivered_fraction']}; wall_speedup "
        f"{sharded['wall_speedup']}x on {os.cpu_count() or 1} core(s) "
        "(information only)"
    )
    if speedup < SMOKE_SPEEDUP_FLOOR:
        failures.append(
            f"critical_path_speedup below floor: {speedup} < {SMOKE_SPEEDUP_FLOOR}"
        )
    if sharded["delivered_fraction"] < DELIVERED_FLOOR:
        failures.append(
            f"sharded delivery below floor: "
            f"{sharded['delivered_fraction']} < {DELIVERED_FLOOR}"
        )

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: sharded simulator within budget")
    return 1 if failures else 0


def test_shard_smoke():
    """Pytest entry point: the smoke gate (determinism + K=2 critical-path
    speedup)."""
    assert smoke() == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast K=2/N=1000 gate: determinism contract + critical-path "
        "speedup floor",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=SIZES,
        help="population sizes to measure",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=SHARD_COUNTS,
        help="shard counts to measure (must include 1 for the baseline)",
    )
    parser.add_argument(
        "--output", default=BASELINE_PATH,
        help="BENCH_core.json to merge the shard section into",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        return smoke()
    results = run_all(arguments.sizes, arguments.shards)
    write_section(results, arguments.output)
    print(f"merged shard section into {arguments.output}")
    return 1 if results["contract_failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
