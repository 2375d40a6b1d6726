"""What a node process pays: for importing the package, and per node.

Every simulated or live node imports :mod:`repro`; the experiment-table
statistics must not drag scipy/numpy (~77 MiB resident) into it.  And a
process holds one copy of each distinct frame: setup leaves no parse
trees behind, and stores share the parse cache's bytes.
"""

import gc
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.soap.envelope as envelope_module
from repro.soap import namespaces as ns
from repro.soap.envelope import UNDECODED, Envelope, clear_parse_cache
from repro.xmlutil import parse_bytes, qname

SRC = Path(__file__).resolve().parent.parent / "src"


def test_node_imports_load_no_scipy_or_numpy():
    code = (
        "import repro, repro.core.aiodeploy, repro.transport.aio, repro.obs\n"
        "import sys\n"
        "heavy = {'scipy', 'numpy'} & set(sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_exact_t_quantile_when_scipy_is_installed():
    # The lazy import must reach scipy, not silently fall back to the
    # normal approximation (1.96).
    pytest.importorskip("scipy")
    from repro.stats import _t_quantile

    assert round(_t_quantile(0.95, 2), 4) == 4.3027


# -- what a simulated node keeps after setup ---------------------------------

#: ``sim_burst``'s gossip parameters (perf/workloads.py, BURST_PARAMS).
BURST = {"fanout": 6, "rounds": 9, "peer_sample_size": 14, "max_batch_rumors": 64}

UNSHARED = {qname(ns.WSA, "RelatesTo"), qname(ns.WSA, "ReplyTo")}


def burst_group(n_nodes, seed=1):
    from repro import GossipConfig
    from repro.simnet.latency import UniformLatency

    return GossipConfig(
        n_disseminators=n_nodes - 1,
        seed=seed,
        latency=UniformLatency(0.0005, 0.0015),
        params=BURST,
        auto_tune=False,
    ).build()


def test_setup_leaves_no_request_or_reply_frame_in_the_parse_cache():
    # Register/Subscribe requests and their replies carry a fresh WS-A
    # MessageID and go to one node: a cached tree could never be hit.
    clear_parse_cache()
    group = burst_group(100)
    group.setup(settle=1.0, eager_join=True)
    pinned = []
    for data in envelope_module._PARSE_CACHE:
        headers = Envelope.from_element(parse_bytes(data)).headers
        if UNSHARED & {block.tag for block in headers}:
            pinned.append(data)
    assert pinned == []


def reachable(root):
    """Every object reachable from ``root``, classes and modules not
    followed (an enum member refers to its class, and a class to its
    module)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def test_cached_decodes_hold_nothing_per_receiver():
    # The parse cache outlives every envelope and node that filled it: a
    # decode that kept one would pin it, and its node, for the process.
    from repro.core.engine import GossipEngine
    from repro.core.handler import GossipLayer
    from repro.soap.handler import MessageContext
    from repro.soap.runtime import SoapRuntime
    from repro.simnet.process import Process

    per_receiver = (Envelope, MessageContext, GossipEngine, GossipLayer, SoapRuntime, Process)
    clear_parse_cache()
    group = burst_group(60)
    group.setup(settle=1.0, eager_join=True)
    for index in range(4):
        group.publish({"n": index})
    group.run_for(2.0)
    decodes = list(envelope_module._PARSE_CACHE.values())
    assert any(decoded.gossip is not UNDECODED for decoded in decodes)
    assert any(decoded.addressing is not None for decoded in decodes)
    for decoded in decodes:
        held = [obj for obj in reachable(decoded) if isinstance(obj, per_receiver)]
        assert held == []


def test_stores_share_one_bytes_object_per_distinct_frame():
    clear_parse_cache()
    group = burst_group(60)
    group.setup(settle=1.0, eager_join=True)
    for index in range(4):
        group.publish({"n": index})
    group.run_for(2.0)
    stored = [
        message.data
        for node in group.app_nodes()
        for engine in node.gossip_layer.engines()
        for message in engine.store.messages()
    ]
    assert len(stored) > 4 * 50  # the rumors really spread
    assert len({id(data) for data in stored}) == len(set(stored))


#: Traced bytes per node after setup at N=300: 11 939 measured on CPython
#: 3.11 when the bound was set, plus 25% (49 856 while setup still left its
#: request/reply trees in the parse cache).  It counts bytes, not time.
SETUP_BYTES_PER_NODE = 14_900


def test_setup_residue_per_node_stays_bounded():
    # A fresh process: nothing an earlier test cached or interned can
    # hide (or inflate) what setup leaves behind.
    code = (
        "import gc, tracemalloc\n"
        "from tests.test_footprint import burst_group\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "group = burst_group(300)\n"
        "group.setup(settle=1.0, eager_join=True)\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] / 300)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)])),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    per_node = float(completed.stdout.strip().splitlines()[-1])
    assert per_node <= SETUP_BYTES_PER_NODE, per_node
