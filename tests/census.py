"""Call census: which ``def``s in ``src/repro`` does the test suite never run?

A pytest plugin, loaded only by ``make census`` (``pytest -p tests.census``).
It records every code object called while the tests run, through
``sys.setprofile`` and ``threading.setprofile`` (so event-loop and worker
threads count), and stops at session end.  An ``ast`` walk of
``src/repro`` then prints, by file, each ``def`` that never ran, with its
line count.  A ``def`` nested inside one that never ran is not listed
again.

Code run only in subprocesses is invisible to it: the profiler sees this
process alone.  The shard workers behind ``GossipConfig(shards=K)`` run
the same ``GossipGroup`` code as a single-process group (each holds a
``GossipGroup(config=..., shard=i)`` slice), and a test serves such a
slice through ``shard_worker_loop`` on a thread, so only the process
entry point itself (``gossip_shard_worker``) reads as never run.  The
census prints and is not a gate.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from typing import Dict, List, Set, Tuple

SOURCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

_called: Set[object] = set()


def _profile(frame, event, arg) -> None:
    if event == "call":
        _called.add(frame.f_code)


def pytest_sessionstart(session) -> None:
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def pytest_sessionfinish(session, exitstatus) -> None:
    # Stop before interpreter shutdown: a profiler still installed then
    # runs against module globals that are already torn down.
    sys.setprofile(None)
    threading.setprofile(None)
    ran = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in _called
    }
    _called.clear()
    print()
    print(report(ran))


def _never_run(path: str, ran: Set[Tuple[str, int]]) -> List[Tuple[str, int, int]]:
    """``(qualified name, def line, line count)`` of each def in ``path``
    that never ran, outermost only."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found: List[Tuple[str, int, int]] = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                # A decorated function's code starts at its first decorator.
                starts = {child.lineno} | {d.lineno for d in child.decorator_list}
                if any((path, line) in ran for line in starts):
                    visit(child, f"{name}.")
                else:
                    found.append((name, child.lineno, child.end_lineno - child.lineno + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def report(ran: Set[Tuple[str, int]]) -> str:
    """The census text: never-run defs by file, biggest file first."""
    by_file: Dict[str, List[Tuple[str, int, int]]] = {}
    for directory, _, files in os.walk(SOURCE):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.realpath(os.path.join(directory, filename))
                missed = _never_run(path, ran)
                if missed:
                    by_file[os.path.relpath(path, os.path.dirname(SOURCE))] = missed
    lines = ["call census: defs in src/repro the tests never run "
             "(subprocess-only code reads as never run)"]
    order = sorted(by_file, key=lambda f: (-sum(n for *_, n in by_file[f]), f))
    for path in order:
        missed = by_file[path]
        lines.append(f"{path}: {len(missed)} defs, {sum(n for *_, n in missed)} lines")
        for name, line, count in missed:
            lines.append(f"  {name} (line {line}, {count} lines)")
    defs = sum(len(missed) for missed in by_file.values())
    total = sum(n for missed in by_file.values() for *_, n in missed)
    lines.append(f"total: {defs} defs, {total} lines never run")
    return "\n".join(lines)
