"""Shared table formatting for the experiment benchmarks.

Each bench computes its experiment rows once per session, prints them in a
paper-style table (bypassing pytest capture so ``pytest benchmarks/ | tee``
records them), and writes a copy under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def emit(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    save: bool = True,
) -> str:
    """Print the table past pytest's capture and save it to results/.

    ``save=False`` only prints: smoke runs use it so that a gate never
    overwrites a full run's checked-in table with its own small rows.
    """
    text = format_table(title, headers, list(rows))
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()
    if not save:
        return text
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    return text


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
