"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo(capsys):
    exit_code = main(["--seed", "3", "demo", "--nodes", "16", "--consumers", "4"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "delivered: 100.0%" in out
    assert "wire messages" in out


def test_figure1(capsys):
    exit_code = main(["figure1"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "app0b" in out
    assert "coordinator" in out
    assert "receivers of the op: app1, app2, app3" in out


def test_analyze(capsys):
    exit_code = main(["analyze", "500", "--target", "0.999"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "fanout for atomic delivery" in out
    assert "P(all reached)" in out


def test_describe(capsys):
    exit_code = main(["describe"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "/gossip" in out
    assert "urn:ws-gossip:2008:core/Pull" in out


def test_styles_small(capsys):
    exit_code = main(["--seed", "5", "styles", "--nodes", "10", "--fanout", "4"])
    out = capsys.readouterr().out
    assert exit_code == 0
    for style in ("push", "lazy-push", "feedback", "push-pull", "pull",
                  "anti-entropy"):
        assert style in out


def test_soak_runs_a_live_mesh_and_prints_its_telemetry(capsys):
    exit_code = main(["soak", "--nodes", "8", "--duration", "1", "--settle", "0.5"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "nodes: 8 over udp" in out
    assert "delivered: " in out  # exit code 0 already means >= 99%
    assert "telemetry (from sampled wire trace context):" in out
    assert "trace samples:" in out


def test_obs_top_once_reads_a_running_node(capsys):
    from repro.transport.aio import AsyncHttpNode, shared_loop

    with AsyncHttpNode(loop=shared_loop()) as node:
        node.hub.counter("net.sent").inc(5)
        node.hub.counter("gossip.fresh").inc(2)
        exit_code = main(["obs", "top", "--once", "--url", node.base_address])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert f"obs top -- {node.base_address}" in out
    assert "counters: net.sent=5  gossip.fresh=2" in out
    assert "alerts: ok (0 edges)" in out
