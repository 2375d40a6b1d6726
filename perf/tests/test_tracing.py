import sys

from perf import layers
from perf.tracing import Tracer, layer_of_module, layer_totals


def _patched_attributes():
    """(owner, name, current object) for every boundary in the tables."""
    import importlib

    found = []
    for _, module, owner, name in layers.METHODS:
        cls = getattr(importlib.import_module(module), owner)
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if name in vars(klass):
                found.append((klass, name, vars(klass)[name]))
    for module, owner, name in layers.SCHEDULERS:
        cls = getattr(importlib.import_module(module), owner)
        found.append((cls, name, vars(cls)[name]))
    for _, module, name in layers.FUNCTIONS:
        original = getattr(importlib.import_module(module), name)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is not None and module_name.startswith("repro"):
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        found.append((loaded, attribute, value))
    return found


def test_every_wrapped_attribute_is_its_original_again():
    import perf.workloads  # noqa: F401 - loads the program's modules

    before = _patched_attributes()
    tracer = Tracer()
    layers.install(tracer)
    assert not tracer.missing
    changed = [
        (owner, name) for owner, name, original in before
        if vars(owner)[name] is not original
    ]
    assert len(changed) == len(before)  # every boundary really was rebound
    tracer.restore()
    for owner, name, original in before:
        assert vars(owner)[name] is original, (owner, name)


def test_import_sites_of_a_codec_function_are_rebound():
    import repro.core.handler as handler
    import repro.core.message as message

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert handler.scan_gossip_message_id is message.scan_gossip_message_id
        assert getattr(handler.scan_gossip_message_id, "_perf_traced", False)
    finally:
        tracer.restore()
    assert not getattr(handler.scan_gossip_message_id, "_perf_traced", False)


def test_spans_nest_and_scheduled_callbacks_become_roots():
    from repro.simnet.events import Simulator

    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.open_window()
        sim = Simulator(seed=1)
        fired = []
        sim.call_after(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.0)
        tracer.close_window()
    finally:
        tracer.restore()
    assert fired == [1.0]
    names = [tracer.keys[key] for key in tracer.key]
    assert names[0] == ("simnet", "Simulator.run_until")
    # The lambda lives in this test module, which is no layer of the program.
    assert names[1][0] == "other" and names[1][1].startswith("timer:")
    assert list(tracer.parent) == [-1, 0]
    assert set(layer_totals(tracer.report())) >= {"simnet", "other"}


def test_nothing_is_recorded_outside_a_window():
    from repro.simnet.events import Simulator

    tracer = Tracer()
    layers.install(tracer)
    try:
        Simulator(seed=1).run_until(1.0)
    finally:
        tracer.restore()
    assert len(tracer.start) == 0


def test_a_vanished_boundary_is_reported_not_fatal():
    tracer = Tracer()
    tracer.patch_method("engine", "repro.core.engine", "GossipEngine", "no_such_method")
    tracer.patch_function("codec", "repro.core.message", "no_such_function")
    tracer.restore()
    assert [layer for layer, _ in tracer.missing] == ["engine", "codec"]


def test_owner_module_decides_the_layer():
    assert layer_of_module("repro.core.engine") == "engine"
    assert layer_of_module("repro.simnet.metrics") == "obs"
    assert layer_of_module("repro.simnet.network") == "simnet"
    assert layer_of_module("repro.core.roles") == "other"
