"""The whole benchmark: every workload several times, each run in a fresh
subprocess, plus one traced pass; one result file per suite run.

The result file carries what is needed to tell a regression from a bad
moment on a shared host: git sha and dirty flag, the host's description,
the seed, every run's raw values (not only medians), and the calibration
spin timed around and inside every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from perf.host import ROOT, calibration_spin, fingerprint
from perf.spec import load_spec
from perf.stats import spread, summary
from perf.workloads import DETERMINISTIC

RUN = os.path.join(ROOT, "perf", "run.py")

#: A run is tagged noisy when the calibration spin before and after it
#: differ by more than this share.
NOISY_SPIN = 0.10


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Optional[Dict[str, Any]]:
    """One run in a fresh subprocess; ``None`` when it failed a check."""
    before = calibration_spin()
    process = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    after = calibration_spin()
    if process.returncode != 0:
        sys.stderr.write(process.stderr)
        return None
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(
        json.loads(line[len("DETAIL "):]) for line in lines if line.startswith("DETAIL ")
    )
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        **detail,
        "spin_ms": [before, after],
        "noisy": abs(after - before) / min(after, before) > NOISY_SPIN,
    }


def nondeterminism(runs: List[Dict[str, Any]]) -> List[str]:
    """Where repeats of one seed on the simulator did different work."""
    problems = []
    first = runs[0]
    for number, other in enumerate(runs[1:], start=2):
        for index, (ours, theirs) in enumerate(zip(first["per_episode"], other["per_episode"])):
            for name in ("deliveries", *DETERMINISTIC):
                if ours.get(name) != theirs.get(name):
                    problems.append(
                        f"episode {index}: {name} is {ours.get(name)} in run 1, "
                        f"{theirs.get(name)} in run {number}"
                    )
        if other["episodes"] == first["episodes"]:
            for name in ("latency_p50_ms", "latency_p95_ms"):
                if other["metrics"][name] != first["metrics"][name]:
                    problems.append(f"{name} differs between run 1 and run {number}")
    return problems


def run(
    names: List[str], seed: int, seconds: float, repeats: int, traced: bool,
    out: Optional[str],
) -> int:
    spec = load_spec()
    host = fingerprint()
    results: Dict[str, Any] = {
        "host": host, "seed": seed, "seconds": seconds, "repeats": repeats,
        "workloads": {},
    }
    status = 0
    for workload in names:
        runs = []
        for repeat in range(repeats):
            print(f"{workload}: run {repeat + 1}/{repeats} ...", flush=True)
            outcome = run_one(workload, seed, seconds, 0)
            if outcome is None:
                status = 1
            else:
                runs.append(outcome)
        entry: Dict[str, Any] = {"runs": runs, "per_layer": None}
        if runs and workload.startswith("sim_"):
            for problem in nondeterminism(runs):
                print(f"FAIL {workload}: {problem}", file=sys.stderr)
                status = 1
        if traced:
            print(f"{workload}: traced pass ...", flush=True)
            outcome = run_one(workload, seed, seconds, 1)
            if outcome is None:
                status = 1
            else:
                entry["per_layer"] = outcome["metrics"]
        results["workloads"][workload] = entry

    path = out or os.path.join(
        ROOT, "perf", "results", f"{host['git_sha'][:12]}-{seed}.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")

    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    for workload, entry in results["workloads"].items():
        runs = entry["runs"]
        if not runs:
            continue
        print(f"\n{workload}  ({len(runs)} runs, seed {seed})")
        print(f"  {'metric':<24} {'median':>12} {'min':>12} {'max':>12} {'IQR/median':>11}  unit")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in runs]
            row = summary(values)
            print(f"  {metric['name']:<24} {row['median']:>12.6g} {row['min']:>12.6g} "
                  f"{row['max']:>12.6g} {spread(values):>11.3f}  {metric['unit']}")
        for name, unit in (("failed_fraction", "ratio"), ("latency_p99_ms", "ms")):
            row = summary([run[name] for run in runs])
            print(f"  {name:<24} {row['median']:>12.6g} {row['min']:>12.6g} "
                  f"{row['max']:>12.6g} {'':>11}  {unit}  (not bounded)")
        noisy = [str(index + 1) for index, run in enumerate(runs) if run["noisy"]]
        if noisy:
            print(f"  noisy runs (calibration spin moved > {NOISY_SPIN:.0%}): {', '.join(noisy)}")
        if entry["per_layer"]:
            for name, value in entry["per_layer"].items():
                print(f"    {name:<36} {value:>14.6g} {units[name]}")
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return status
