"""What machine a result came from, and how fast it was at that moment."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibration_spin() -> float:
    """CPU milliseconds a fixed pure-Python loop takes right now (best of
    three, ~0.15 s in all).

    The loop never changes, so a change in its reading is a change in
    the host (a noisy neighbour, a clock step), not in the program.
    """
    readings = []
    for _ in range(3):
        began = time.process_time()
        total = 0
        for index in range(600_000):
            total += index * index % 7
        readings.append((time.process_time() - began) * 1000.0)
    return min(readings)


def _git(*arguments: str) -> str:
    try:
        return subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, Any]:
    """Git state and host description carried by every result file."""
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
