#!/usr/bin/env python3
"""The benchmark's one command.

One run of one workload (what the driver calls)::

    python3 perf/run.py --workload sim_burst --seed 1 --seconds 25 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole suite -- every workload
``--repeats`` times, each run in a fresh subprocess, plus one traced pass
-- and writes ``perf/results/<git-sha>-<seed>.json`` (see perf/suite.py).
``--check`` runs all four workloads and every correctness check at toy
size in under a minute and keeps no numbers.

Exit status is non-zero when any correctness check fails, and no metrics
are printed for that run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perf.host import calibration_spin  # noqa: E402
from perf.spec import load_spec  # noqa: E402
from perf.stats import better_quartile, percentile  # noqa: E402

try:
    from perf import layers, suite, tracing, workloads  # noqa: E402
except ImportError as error:
    # A checkout without the program's source cannot be measured.
    print(f"cannot import the program under src/: {error}", file=sys.stderr)
    raise SystemExit(2)

#: A run is wrong when more than this share of (rumor, consumer) pairs
#: is undelivered at the deadline.
MAX_FAILED_FRACTION = 0.01


def run_episodes(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Episodes of one workload until ``seconds`` are spent.

    Returns ``(episodes, twins, tracer, spins)``; ``spins`` are the
    calibration-spin readings taken before, between and after episodes.
    With ``trace`` every traced episode has an untraced twin on the same
    inputs: the twin gives the CPU the tracer's overhead and coverage
    are measured against and, on the simulator, shows that tracing
    changed nothing.
    """
    episode_of = workloads.WORKLOADS[workload]
    shape = workloads.SIZES[workload][size]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.calibrate()
    episodes, twins = [], []
    spins = [calibration_spin()]
    began = time.perf_counter()
    while True:
        inputs = workloads.make_inputs(workload, seed, len(episodes), shape)
        if tracer is not None:
            # Whichever of the pair runs first in a process runs colder;
            # alternate so that neither side always does.
            twin_first = (seed + len(episodes)) % 2 == 0
            if twin_first:
                twins.append(episode_of(shape, inputs))
            layers.install(tracer)
            try:
                episodes.append(episode_of(shape, inputs, tracer))
            finally:
                tracer.restore()
            if not twin_first:
                twins.append(episode_of(shape, inputs))
        else:
            episodes.append(episode_of(shape, inputs))
        spins.append(calibration_spin())
        elapsed = time.perf_counter() - began
        if size != "full" or elapsed + elapsed / len(episodes) > seconds:
            return episodes, twins, tracer, spins


def work_done(episode) -> Dict[str, Optional[float]]:
    """What must repeat exactly for one seed on the simulator plane."""
    return {
        "deliveries": episode.deliveries,
        **{name: episode.counters.get(name) for name in workloads.DETERMINISTIC},
    }


def check_episodes(workload: str, episodes, twins) -> Tuple[List[str], float]:
    """Every correctness problem of a run, and its failed pair fraction."""
    problems = [
        f"episode {index}: {problem}"
        for index, episode in enumerate(episodes)
        for problem in episode.problems
    ]
    expected = sum(episode.expected for episode in episodes)
    failed_fraction = 1.0 - sum(episode.deliveries for episode in episodes) / expected
    if failed_fraction > MAX_FAILED_FRACTION:
        problems.append(
            f"failed_fraction {failed_fraction:.4f} > {MAX_FAILED_FRACTION}"
        )
    if workload.startswith("sim_"):
        # The simulator is seeded: the same inputs must do the same work,
        # traced or not.
        for index, (episode, twin) in enumerate(zip(episodes, twins)):
            untraced = work_done(twin)
            for name, value in work_done(episode).items():
                if value != untraced[name]:
                    problems.append(
                        f"episode {index}: {name} is {value} traced, "
                        f"{untraced[name]} untraced"
                    )
    return problems, failed_fraction


def latency(episodes, q: float) -> float:
    """Latency percentile ``q`` of a run: per episode over its (rumor,
    consumer) pairs, an undelivered pair ranking last and reading as the
    deadline; then the better quartile over episodes."""
    return better_quartile([
        percentile(episode.latencies_ms, q, episode.expected, episode.deadline_ms)
        for episode in episodes
    ], "lower")


def end_to_end(episodes) -> Dict[str, float]:
    """The end-to-end metrics of one run: every timed metric is the
    better quartile over the run's episodes (see ``better_quartile``)."""
    return {
        "setup_s": better_quartile([episode.setup_s for episode in episodes], "lower"),
        "deliveries_per_s": better_quartile(
            [episode.rate_deliveries / episode.rate_window_s for episode in episodes],
            "higher",
        ),
        "cpu_us_per_delivery": better_quartile(
            [episode.cpu_s * 1e6 / episode.deliveries for episode in episodes], "lower"
        ),
        "latency_p50_ms": latency(episodes, 50),
        "latency_p95_ms": latency(episodes, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(episodes, twins, tracer) -> Dict[str, Optional[float]]:
    counters: Dict[str, float] = {}
    for episode in episodes:
        for name, value in episode.counters.items():
            counters[name] = counters.get(name, 0) + value
    return layers.per_layer_metrics(
        tracer,
        counters,
        deliveries=sum(episode.deliveries for episode in episodes),
        expected=sum(episode.expected for episode in episodes),
        traced_cpu_s=sum(episode.cpu_s for episode in episodes),
        traced_wall_s=sum(episode.wall_s for episode in episodes),
        plain_cpu_s=sum(twin.cpu_s for twin in twins),
        plain_deliveries=sum(twin.deliveries for twin in twins),
        publish_late_s=[late for episode in episodes for late in episode.publish_late_s],
        t100_s=statistics.median(episode.t100_s for episode in episodes),
    )


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One run as the driver sees it; returns the exit status."""
    spec = load_spec()
    episodes, twins, tracer, spins = run_episodes(workload, seed, seconds, trace)
    problems, failed_fraction = check_episodes(workload, episodes, twins)
    for problem in problems:
        print(f"FAIL {workload}: {problem}", file=sys.stderr)
    if problems:
        return 1

    if trace:
        values = per_layer(episodes, twins, tracer)
        wanted = spec["per_layer"]
        results = os.path.join(ROOT, "perf", "results")
        os.makedirs(results, exist_ok=True)
        tracer.write(
            os.path.join(results, f"trace-{workload}.jsonl"),
            {"workload": workload, "seed": seed, "episodes": len(episodes)},
        )
        for layer, path in tracer.missing:
            print(f"warning: boundary {path} no longer exists", file=sys.stderr)
    else:
        values = end_to_end(episodes)
        wanted = spec["end_to_end"]
    if set(values) != {metric["name"] for metric in wanted}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json")

    plane = "  (UDP on the loopback interface)" if workload.startswith("live_") else ""
    print(f"workload {workload}  seed {seed}  episodes {len(episodes)}{plane}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        shown = "null (boundary missing)" if value is None else f"{value:.6g}"
        print(f"{metric['name']:<36} {shown:>14} {metric['unit']}")
        # The result line carries numbers only; a vanished boundary reads -1.
        metrics[metric["name"]] = {
            "value": -1.0 if value is None else value, "unit": metric["unit"],
        }
    attempted = sum(episode.rumors for episode in episodes)
    failed = sum(episode.rumors_failed for episode in episodes)
    samples = sum(len(episode.latencies_ms) for episode in episodes)
    # Not bounded (see perf/README.md): 0 when healthy; too few samples
    # in the live_steady repair tail for a p99 that repeats.
    p99 = latency(episodes, 99)
    print(f"{'failed_fraction':<36} {failed_fraction:>14.6g} ratio")
    print(f"{'latency_p99_ms':<36} {p99:>14.6g} ms")
    print(f"{'latency_samples':<36} {samples:>14d} count")
    detail = {
        "episodes": len(episodes),
        "failed_fraction": failed_fraction,
        "latency_p99_ms": p99,
        "latency_samples": samples,
        "calib_ms": spins,
        "per_episode": [
            {
                **work_done(episode),
                "cpu_us_per_delivery": episode.cpu_s * 1e6 / episode.deliveries,
                "setup_s": episode.setup_s,
            }
            for episode in episodes
        ],
    }
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def check() -> int:
    """All four workloads and every correctness check at toy size."""
    status = 0
    for workload in workloads.WORKLOADS:
        began = time.perf_counter()
        episodes, twins, tracer, _ = run_episodes(workload, 1, 0.0, True, size="check")
        problems, _ = check_episodes(workload, episodes, twins)
        values = per_layer(episodes, twins, tracer)
        problems += [f"per-layer metric {name} is missing"
                     for name, value in values.items() if value is None]
        for problem in problems:
            print(f"FAIL {workload}: {problem}", file=sys.stderr)
        status |= bool(problems)
        print(f"{workload}: {'FAILED' if problems else 'ok'} "
              f"({time.perf_counter() - began:.1f} s)")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload once; omit to run the suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="time budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the traced pass")
    parser.add_argument("--out", help="suite: result file (default perf/results/<sha>-<seed>.json)")
    parser.add_argument("--check", action="store_true",
                        help="toy-size run of every workload and check; no numbers kept")
    arguments = parser.parse_args(argv)
    if arguments.check:
        return check()
    if arguments.workload:
        return run_once(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
    return suite.run(
        names, arguments.seed, arguments.seconds, arguments.repeats,
        arguments.traced, arguments.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
