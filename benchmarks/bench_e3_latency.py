"""E3 -- Dissemination latency scales logarithmically with population.

The paper's scalability claim: gossip reaches "large numbers of
participants" in O(log N) rounds.  Sweep N with coordinator-tuned
parameters (the framework's own auto-tune, targeting 99% atomic delivery),
measure the hop count for the epidemic to reach everyone, and compare with
the mean-field prediction.  The sweep runs to N=10 000 simulated services
on one core; beside each row, the resident memory one node costs after
setup, measured in a fresh interpreter per N so that earlier rows cannot
mask it.

Run ``make bench-e3`` (or ``python benchmarks/bench_e3_latency.py``) to
regenerate ``benchmarks/results/e3_latency.txt``.
"""

import gc
import math
import os
import subprocess
import sys

from _tables import emit, mean

from repro import GossipConfig
from repro.core.analysis import expected_rounds, fanout_for_atomicity
from repro.simnet.latency import FixedLatency

POPULATIONS = [16, 32, 64, 128, 256, 1024, 4096, 10_000]
SEEDS = [1, 2, 3]
HOP_LATENCY = 0.01  # seconds per hop: time-to-cover / latency ~ hops
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TITLE = "E3: hops to full coverage vs N (coordinator-tuned fanout)"
HEADERS = [
    "N", "fanout", "measured hops", "mean-field", "log2(N)", "full runs",
    "resident KiB/node",
]


def tuned_fanout(n: int) -> int:
    return int(math.ceil(fanout_for_atomicity(n, 0.99))) + 1


def set_up(n: int, seed: int):
    fanout = tuned_fanout(n)
    group = GossipConfig(
        n_disseminators=n - 1,
        seed=seed,
        latency=FixedLatency(HOP_LATENCY),
        params={
            "fanout": fanout,
            "rounds": expected_rounds(n, fanout) + 3,
            "peer_sample_size": 2 * fanout,
        },
        auto_tune=False,
    ).build()
    group.setup(settle=1.0, eager_join=True)
    return group


def run_once(n: int, seed: int):
    group = set_up(n, seed)
    start = group.sim.now
    gossip_id = group.publish({"exp": "e3"})
    group.run_for(10.0)
    if group.delivered_fraction(gossip_id) < 1.0:
        return None
    last = max(group.delivery_times(gossip_id))
    return (last - start) / HOP_LATENCY  # hops until the last receiver


def _resident_kib() -> float:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return math.nan  # no procfs: the column reads nan


def footprint(n: int) -> float:
    """Resident KiB per node: VmRSS growth from before ``build()`` to
    after ``setup()`` and a full collection, divided by N."""
    gc.collect()
    before = _resident_kib()
    group = set_up(n, SEEDS[0])
    gc.collect()
    per_node = (_resident_kib() - before) / n
    del group
    return per_node


def resident_kib_per_node(n: int) -> float:
    """:func:`footprint` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--footprint", str(n)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")]
        )),
        capture_output=True, text=True, check=True,
    )
    return float(completed.stdout.split()[-1])


def latency_rows():
    rows = []
    for n in POPULATIONS:
        fanout = tuned_fanout(n)
        hops = [run_once(n, seed) for seed in SEEDS]
        covered = [h for h in hops if h is not None]
        predicted = expected_rounds(n, fanout)
        rows.append(
            (
                n,
                fanout,
                mean(covered) if covered else float("nan"),
                predicted,
                math.log2(n),
                f"{len(covered)}/{len(SEEDS)}",
                resident_kib_per_node(n),
            )
        )
    return rows


def test_e3_latency_scaling(benchmark):
    rows = latency_rows()
    emit("e3_latency", TITLE, HEADERS, rows)
    measured = [row[2] for row in rows]
    assert all(not math.isnan(value) for value in measured), "coverage failed"
    # Logarithmic shape: 625x the population costs far less than 625x hops.
    assert measured[-1] <= measured[0] * 3.5
    assert measured[-1] <= math.log2(POPULATIONS[-1]) + 3
    # Measured rounds stay within the mean-field prediction plus one.
    assert all(row[2] <= row[3] + 1 for row in rows)
    benchmark.pedantic(lambda: run_once(64, 1), rounds=3, iterations=1)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--footprint"]:
        print(footprint(int(sys.argv[2])))
    else:
        emit("e3_latency", TITLE, HEADERS, latency_rows())
