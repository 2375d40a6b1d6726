"""Outside-in span tracer for the per-layer pass.

The tracer records one span per call across a layer boundary without
touching the program's source: for the duration of a traced run it
rebinds public callables (methods on their classes, module functions in
every loaded ``repro.*`` module that imported them) to timing wrappers,
and restores the originals afterwards.  Work that starts from a timer or
an asyncio task has no caller to nest under, so callbacks handed to the
program's schedulers and coroutines handed to the loop's task factory
become root spans attributed to the module that owns them.

A span is ``(key, start, end, parent, rumor)``; ``key`` indexes
``Tracer.keys`` (``(layer, name)`` pairs) and ``rumor`` indexes the
gossip message ids seen at boundaries that expose one.  Spans live in
flat arrays (millions fit) and are analysed after the run; what cannot
be seen from outside (private call sites) stays in the self time of the
enclosing span.
"""

from __future__ import annotations

import asyncio
import collections.abc
import functools
import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perf.stats import self_times

#: Owner module prefix -> layer, first match wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simnet.metrics", "obs"),
    ("repro.simnet", "simnet"),
    ("repro.transport", "transport"),
    ("repro.soap", "soap"),
    ("repro.core.handler", "handler"),
    ("repro.core.message", "codec"),
    ("repro.core.batch", "codec"),
    ("repro.core.engine", "engine"),
    ("repro.core.buffer", "store"),
    ("repro.core.store", "store"),
    ("repro.obs", "obs"),
)

LAYERS = ("simnet", "transport", "soap", "handler", "codec", "engine", "store", "obs", "other")

#: Most spans written to the JSONL file (the in-memory analysis sees all).
MAX_SPANS_WRITTEN = 200_000


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            return layer
    return "other"


def _owner(callback: Any) -> Tuple[Optional[str], str]:
    """``(module, qualified name)`` of the function behind a callback."""
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    if not hasattr(target, "__qualname__"):
        target = type(target)
    name = target.__qualname__.replace(".<locals>", "")
    return getattr(target, "__module__", None), name


class _TimedCoroutine(collections.abc.Coroutine):
    """Drives a coroutine for ``asyncio.Task``, one span per step."""

    __slots__ = ("_coro", "_step")

    def __init__(self, coro, step: Callable) -> None:
        self._coro = coro
        self._step = step

    def send(self, value):
        return self._step(self._coro.send, value)

    def throw(self, *exc_info):
        return self._step(self._coro.throw, *exc_info)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self._coro.__await__()


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keys: List[Tuple[str, str]] = []
        self._key_ids: Dict[Tuple[str, str], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.key = array("l")
        self.parent = array("l")
        self.rumor = array("l")
        self.rumor_ids: Dict[str, int] = {}
        #: Per-key running sum of a boundary's ``tally`` (bytes sent,
        #: frames dropped...): counts taken where the work happens.
        self.tallies: Dict[int, float] = {}
        self._stack: List[int] = []
        #: Spans are recorded only inside a measured window, so set-up
        #: traffic is not booked against the window's CPU.
        self._recording = [False]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: ``(layer, path)`` of boundaries that no longer exist; a missing
        #: scheduler has layer ``None`` (its timer work is booked nowhere).
        self.missing: List[Tuple[Optional[str], str]] = []
        self.tasks = 0
        self.loop_lags: List[float] = []
        self._heartbeat: Optional[asyncio.Task] = None
        #: Per-span tracer cost inside / outside the timed interval,
        #: seconds (see :meth:`calibrate`).
        self.cost_inside = 0.0
        self.cost_outside = 0.0

    # -- recording ----------------------------------------------------------

    def key_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        index = self._key_ids.get(key)
        if index is None:
            index = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return index

    def wrap(
        self,
        key_id: int,
        function: Callable,
        rumor: Optional[Callable[[tuple], Optional[str]]] = None,
        tally: Optional[Callable[[tuple, Any], float]] = None,
    ) -> Callable:
        """A wrapper that records one span per call of ``function``.

        ``rumor(args)`` names the gossip message id the call concerns;
        ``tally(args, result)`` is summed per key.
        """
        starts, ends, keys = self.start, self.end, self.key
        parents, rumors = self.parent, self.rumor
        stack, clock = self._stack, self.clock
        rumor_ids, tallies, recording = self.rumor_ids, self.tallies, self._recording

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recording[0]:
                return function(*args, **kwargs)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            keys.append(key_id)
            if rumor is None:
                rumors.append(-1)
            else:
                message_id = rumor(args)
                rumors.append(
                    -1 if message_id is None
                    else rumor_ids.setdefault(message_id, len(rumor_ids))
                )
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tallies[key_id] = tallies.get(key_id, 0.0) + tally(args, result)
            return result

        traced._perf_traced = True
        return traced

    def open_window(self) -> None:
        """Start of a measured window."""
        self._recording[0] = True

    def close_window(self) -> None:
        """End of a measured window."""
        self._recording[0] = False

    def callback_span(self, callback: Callable) -> Callable:
        """``callback`` as a span attributed to the module that owns it."""
        if getattr(callback, "_perf_traced", False):
            return callback
        module, name = _owner(callback)
        short = (module or "?").removeprefix("repro.")
        key_id = self.key_id(layer_of_module(module), f"timer:{short}.{name}")
        return self.wrap(key_id, callback)

    # -- installing ---------------------------------------------------------

    def _resolve(self, module: str, owner: Optional[str]) -> Any:
        try:
            target = importlib.import_module(module)
            return getattr(target, owner) if owner else target
        except (ImportError, AttributeError):
            return None

    def patch_method(
        self, layer: str, module: str, owner: str, name: str, **options
    ) -> None:
        """Wrap ``owner.name`` and every subclass override of it."""
        cls = self._resolve(module, owner)
        if cls is None or not hasattr(cls, name):
            self.missing.append((layer, f"{module}.{owner}.{name}"))
            return
        pending, classes = [cls], []
        while pending:
            klass = pending.pop()
            classes.append(klass)
            pending.extend(klass.__subclasses__())
        for klass in classes:
            raw = vars(klass).get(name)
            if raw is None:
                continue
            key_id = self.key_id(layer, f"{klass.__name__}.{name}")
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(key_id, raw.__func__, **options))
            else:
                wrapped = self.wrap(key_id, raw, **options)
            setattr(klass, name, wrapped)
            self._patches.append((klass, name, raw))

    def patch_function(self, layer: str, module: str, name: str, **options) -> None:
        """Wrap a module function wherever a loaded ``repro`` module
        holds a reference to it (``from x import f`` call sites too)."""
        home = self._resolve(module, None)
        original = getattr(home, name, None)
        if original is None:
            self.missing.append((layer, f"{module}.{name}"))
            return
        wrapped = self.wrap(self.key_id(layer, name), original, **options)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapped)
                    self._patches.append((loaded, attribute, original))

    def patch_scheduler(self, module: str, owner: str, name: str) -> None:
        """Make ``owner.name(delay, callback)`` schedule a root span."""
        cls = self._resolve(module, owner)
        raw = vars(cls).get(name) if cls is not None else None
        if raw is None:
            self.missing.append((None, f"{module}.{owner}.{name}"))
            return
        callback_span = self.callback_span

        @functools.wraps(raw)
        def scheduling(*args, **kwargs):
            if "callback" in kwargs:
                kwargs["callback"] = callback_span(kwargs["callback"])
            else:
                args = (*args[:2], callback_span(args[2]), *args[3:])
            return raw(*args, **kwargs)

        setattr(cls, name, scheduling)
        self._patches.append((cls, name, raw))

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the asyncio loop ---------------------------------------------------

    def attach_loop(self, loop: asyncio.AbstractEventLoop, beat: float = 0.005) -> None:
        """Time every task step and sample how long work waits for the loop."""

        async def heartbeat() -> None:
            while True:
                due = loop.time() + beat
                await asyncio.sleep(beat)
                if self._recording[0]:
                    self.loop_lags.append(loop.time() - due)

        # Created before the factory is set, so the probe is not itself
        # counted as program work.
        self._heartbeat = loop.create_task(heartbeat())

        def factory(loop, coro, **kwargs):
            self.tasks += self._recording[0]
            frame = getattr(coro, "cr_frame", None)
            module = frame.f_globals.get("__name__") if frame is not None else None
            name = getattr(coro, "__qualname__", type(coro).__name__)
            short = (module or "?").removeprefix("repro.")
            key_id = self.key_id(layer_of_module(module), f"task:{short}.{name}")
            step = self.wrap(key_id, lambda method, *args: method(*args))
            return asyncio.Task(_TimedCoroutine(coro, step), loop=loop, **kwargs)

        loop.set_task_factory(factory)

    async def detach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        loop.set_task_factory(None)
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except asyncio.CancelledError:
                pass
            self._heartbeat = None

    # -- analysis -----------------------------------------------------------

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Measure what one span costs, so self times can be corrected.

        ``cost_inside`` is what a span of an empty function reads (charged
        to the span itself); ``cost_outside`` is the wrapper time outside
        the timed interval (charged to the parent's self time).  Minimum
        over a few rounds: noise only ever adds.
        """

        def empty() -> None:
            pass

        def body(function: Callable, count: int) -> None:
            for _ in range(count):
                function()

        inner = self.wrap(self.key_id("trace", "calibrate.inner"), empty)
        outer = self.wrap(self.key_id("trace", "calibrate.outer"), body)
        inside, outside = [], []
        self.open_window()
        for _ in range(rounds):
            mark = len(self.start)
            began = self.clock()
            body(empty, calls)
            bare = self.clock() - began
            outer(inner, calls)
            spent = sum(
                self.end[i] - self.start[i] for i in range(mark + 1, len(self.start))
            )
            inside.append(spent / calls)
            outside.append(
                (self.end[mark] - self.start[mark] - spent - bare) / calls
            )
            for column in (self.start, self.end, self.key, self.parent, self.rumor):
                del column[mark:]
        self.close_window()
        self.cost_inside = max(0.0, min(inside))
        self.cost_outside = max(0.0, min(outside))

    def report(self, overhead_s: float = 0.0) -> Dict[str, Dict[str, float]]:
        """Per-key ``calls``, corrected ``self_s``, ``total_s`` and ``tally``.

        ``overhead_s`` is the CPU the traced windows spent beyond their
        untraced twins.  In a real run a span costs two to three times
        what the tight calibration loop reads (cold caches, argument
        packing), so the calibrated costs are scaled up until they
        account for all of it; they are never scaled down.
        """
        scale = 1.0
        calibrated = len(self.start) * (self.cost_inside + self.cost_outside)
        if calibrated > 0:
            scale = max(1.0, overhead_s / calibrated)
        inside, outside = self.cost_inside * scale, self.cost_outside * scale
        raw = self_times(self.start, self.end, self.parent)
        children = [0] * len(raw)
        for parent in self.parent:
            if parent >= 0:
                children[parent] += 1
        rows: Dict[int, Dict[str, float]] = {}
        for index, key_id in enumerate(self.key):
            row = rows.get(key_id)
            if row is None:
                row = rows[key_id] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            row["calls"] += 1
            row["total_s"] += self.end[index] - self.start[index]
            row["self_s"] += raw[index] - inside - children[index] * outside
        report = {}
        for key_id, row in rows.items():
            layer, name = self.keys[key_id]
            row["self_s"] = max(0.0, row["self_s"])
            row["layer"] = layer
            row["tally"] = self.tallies.get(key_id, 0.0)
            report[name] = row
        return report

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the spans as JSON lines (header first)."""
        rumor_names = {index: name for name, index in self.rumor_ids.items()}
        written = min(len(self.start), MAX_SPANS_WRITTEN)
        with open(path, "w") as handle:
            header = dict(header, spans_total=len(self.start), spans_written=written)
            handle.write(json.dumps(header) + "\n")
            for index in range(written):
                layer, name = self.keys[self.key[index]]
                handle.write(json.dumps({
                    "i": index,
                    "layer": layer,
                    "name": name,
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "rumor": rumor_names.get(self.rumor[index]),
                }) + "\n")


def layer_totals(report: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds per layer from :meth:`Tracer.report`."""
    totals = {layer: 0.0 for layer in LAYERS}
    for row in report.values():
        if row["layer"] in totals:
            totals[row["layer"]] += row["self_s"]
    return totals


def calls_of(
    report: Dict[str, Dict[str, float]],
    names: Sequence[str],
    field: str = "calls",
    layer: Optional[str] = None,
) -> float:
    """Sum one field over report rows whose name ends with any of
    ``names`` (``"MessageStore.add"``, or ``".send"`` for every class of
    ``layer``)."""
    return sum(
        row[field]
        for name, row in report.items()
        if (layer is None or row["layer"] == layer)
        and any(name.endswith(wanted) for wanted in names)
    )
