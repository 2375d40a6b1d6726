"""Command-line interface: quick demos without writing any code.

Usage::

    python -m repro demo            # 50-service dissemination, stats
    python -m repro figure1         # the paper's Figure 1, as executed
    python -m repro styles          # compare the gossip styles
    python -m repro analyze 1000    # fanout/rounds the coordinator picks
    python -m repro describe        # WSDL summary of a gossip node
    python -m repro obs report      # observability report of a seeded run
    python -m repro obs top --once  # poll a live node's /v1/obs/* models
    python -m repro soak            # short live-socket mesh run
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis import (
    atomic_delivery_probability,
    expected_rounds,
    fanout_for_atomicity,
)
from repro.core.api import GossipConfig


def _cmd_demo(args: argparse.Namespace) -> int:
    group = GossipConfig(
        n_disseminators=args.nodes - args.consumers - 1,
        n_consumers=args.consumers,
        seed=args.seed,
        params={"fanout": args.fanout, "rounds": args.rounds},
    ).build()
    activity_id = group.setup()
    print(f"activity: {activity_id}")
    message_id = group.publish({"demo": True})
    group.run_for(10.0)
    times = group.delivery_times(message_id)
    counts = group.message_counts()
    print(f"population: {group.population} endpoints "
          f"({args.consumers} unchanged consumers)")
    print(f"delivered: {group.delivered_fraction(message_id):.1%} "
          f"(atomic: {group.is_atomic(message_id)})")
    if times:
        print(f"spread completed in {max(times) - min(times):.4f}s of "
              "simulated time")
    print(f"wire messages: {counts.get('net.sent', 0)}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.core.roles import (
        ConsumerNode,
        CoordinatorNode,
        DisseminatorNode,
        InitiatorNode,
    )
    from repro.simnet.events import Simulator
    from repro.simnet.latency import FixedLatency
    from repro.simnet.network import Network
    from repro.simnet.seqdiag import render_sequence
    from repro.simnet.trace import TraceLog

    sim = Simulator(seed=args.seed)
    trace = TraceLog(enabled=True)
    network = Network(sim, latency=FixedLatency(0.002), trace=trace)
    coordinator = CoordinatorNode("coordinator", network, auto_tune=False)
    app0b = InitiatorNode("app0b", network)
    app1 = DisseminatorNode("app1", network)
    app2 = DisseminatorNode("app2", network)
    app3 = ConsumerNode("app3", network)
    action = "urn:stock/op"
    for node in (coordinator, app0b, app1, app2, app3):
        node.start()
    for node in (app0b, app1, app2, app3):
        node.bind(action)

    engines: List = []
    app0b.activate(
        coordinator.activation_address,
        parameters={"fanout": 2, "rounds": 3},
        on_ready=engines.append,
    )
    sim.run_until(1.0)
    activity_id = engines[0].activity_id
    for node in (app1, app2, app3):
        node.subscribe(coordinator.subscription_address, activity_id)
    sim.run_until(2.0)
    engines[0].refresh_view()
    sim.run_until(3.0)
    gossip_id = app0b.publish(activity_id, action, {"symbol": "SWX", "px": 42})
    sim.run_until(8.0)

    print("Figure 1 as executed (message sends between nodes):\n")
    print(
        render_sequence(
            trace,
            participants=["app0b", "coordinator", "app1", "app2", "app3"],
            max_events=args.max_events,
        )
    )
    receivers = [n.name for n in (app1, app2, app3) if n.has_delivered(gossip_id)]
    print(f"\nreceivers of the op: {', '.join(receivers)}")
    return 0 if len(receivers) == 3 else 1


def _cmd_styles(args: argparse.Namespace) -> int:
    print(f"{'style':<14}{'coverage':<10}{'time (s)':<10}{'messages'}")
    for style in ("push", "lazy-push", "feedback", "push-pull", "pull",
                  "anti-entropy"):
        group = GossipConfig(
            n_disseminators=args.nodes - 1,
            seed=args.seed,
            params={"style": style, "fanout": args.fanout, "rounds": args.rounds,
                    "period": 0.4},
            auto_tune=False,
        ).build()
        group.setup()
        before = group.message_counts().get("net.sent", 0)
        start = group.sim.now
        message_id = group.publish({"style": style})
        deadline = start + 60.0
        while (
            group.sim.now < deadline
            and group.delivered_fraction(message_id) < 1.0
        ):
            group.run_for(0.5)
        coverage = group.delivered_fraction(message_id)
        elapsed = group.sim.now - start
        messages = group.message_counts()["net.sent"] - before
        print(f"{style:<14}{coverage:<10.3f}{elapsed:<10.2f}{messages}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    n = args.population
    print(f"population n = {n}, target reliability = {args.target}")
    fanout = fanout_for_atomicity(n, args.target)
    print(f"fanout for atomic delivery: {fanout:.2f} (use {int(fanout) + 1})")
    rounds = expected_rounds(n, int(fanout) + 1)
    print(f"expected rounds to cover everyone: {rounds}")
    print("\natomicity probability by fanout:")
    for candidate in range(1, int(fanout) + 4):
        probability = atomic_delivery_probability(n, candidate)
        print(f"  f={candidate:<3} P(all reached) = {probability:.4f}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import prometheus_text, write_jsonl
    from repro.obs.report import report_model, run_seeded_report

    group, text = run_seeded_report(
        nodes=args.nodes,
        consumers=args.consumers,
        seed=args.seed,
        style=args.style,
        fanout=args.fanout,
        rounds=args.rounds,
        duration=args.duration,
        shards=args.shards,
        telemetry=True if args.telemetry else None,
    )
    try:
        # Bind the (possibly merged-on-access) hub once for the exports.
        hub = group.hub
        if args.json:
            model = report_model(hub, population=group.population)
            print(json.dumps(model, sort_keys=True, indent=2))
        else:
            print(text)
        if args.jsonl:
            count = write_jsonl(hub, args.jsonl)
            print(f"wrote {count} metric records to {args.jsonl}")
        if args.prometheus:
            with open(args.prometheus, "w", encoding="utf-8") as stream:
                stream.write(prometheus_text(hub))
            print(f"wrote Prometheus text to {args.prometheus}")
    finally:
        if hasattr(group, "close"):
            group.close()
    return 0


def _fetch_json(url: str, timeout: float = 5.0):
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_top(base: str, summary, rumors, alerts) -> str:
    lines = [f"obs top -- {base} (node {summary.get('node', '?')})"]
    population = summary.get("population")
    if population:
        lines.append(f"population: {population}")
    rates = summary.get("rates") or {}
    if rates:
        lines.append("rates: " + "  ".join(
            f"{name}={value:.2f}/s" for name, value in sorted(rates.items())
        ))
    counters = summary.get("counters") or {}
    highlights = [
        f"{name}={counters[name]}"
        for name in ("net.sent", "net.delivered", "gossip.fresh",
                     "gossip.duplicate", "telemetry.samples")
        if name in counters
    ]
    if highlights:
        lines.append("counters: " + "  ".join(highlights))
    alert_summary = summary.get("alerts") or {}
    state = "FIRING" if alert_summary.get("firing") else "ok"
    lines.append(f"alerts: {state} ({alert_summary.get('total', 0)} edges)")
    for alert in (alerts.get("items") or [])[-3:]:
        lines.append(
            f"  t={alert.get('time', 0.0):.1f}s {alert.get('name')} "
            f"{alert.get('state')} burn={alert.get('burn', 0.0):.2f}"
        )
    items = rumors.get("items") or []
    if items:
        lines.append(f"rumors ({rumors.get('total', len(items))} total, "
                     f"showing {len(items)}):")
        for rumor in items:
            r99 = rumor.get("rounds_to_99")
            lines.append(
                f"  {rumor.get('message_id')}: "
                f"delivered {rumor.get('delivered', 0)}, "
                f"rounds_max {rumor.get('rounds_max', 0)}, "
                f"rounds_to_99 {r99 if r99 is not None else '-'}"
            )
    return "\n".join(lines)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Live-refresh view over a node's ``/v1/obs/*`` read models."""
    import itertools
    import time as _time
    import urllib.error

    base = args.url.rstrip("/")
    iterations = (
        range(1) if args.once
        else (itertools.count() if args.iterations == 0
              else range(args.iterations))
    )
    last = args.iterations - 1 if args.iterations else None
    try:
        for iteration in iterations:
            try:
                summary = _fetch_json(f"{base}/v1/obs/summary")
                rumors = _fetch_json(
                    f"{base}/v1/obs/rumors?limit={args.rumors}"
                )
                alerts = _fetch_json(f"{base}/v1/obs/alerts?limit=50")
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"obs top: cannot read {base}/v1/obs/*: {exc}")
                return 1
            if sys.stdout.isatty() and iteration:
                print("\x1b[2J\x1b[H", end="")
            print(_render_top(base, summary, rumors, alerts))
            if args.once or iteration == last:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _print_soak_telemetry(summary: dict) -> None:
    """Print the wire-trace reconstruction the mesh's merged hubs carry."""
    print("telemetry (from sampled wire trace context):")
    print(f"  trace samples: {summary.get('samples', 0)} "
          f"(skew-guarded {summary.get('skew_guarded', 0)})")
    for name in ("hop_latency_ms", "e2e_latency_ms"):
        stats = summary.get(name) or {}
        if stats:
            print(f"  {name}: p50={stats['p50']:.2f} p95={stats['p95']:.2f} "
                  f"p99={stats['p99']:.2f} max={stats['max']:.2f} "
                  f"(n={stats['count']})")
    rumors = summary.get("rumors") or []
    r99 = [r["rounds_to_99"] for r in rumors if r.get("rounds_to_99") is not None]
    if r99:
        print(f"  rounds to 99%: min={min(r99)} max={max(r99)} "
              f"({len(r99)}/{len(rumors)} rumors reached 99%)")
    for rumor in rumors[:3]:
        curve = rumor.get("infection_curve") or []
        if not curve:
            continue
        # Loop-monotonic timestamps; print relative to the first infection.
        start = curve[0][0]
        tail = " ".join(
            f"{count}@{time - start:.2f}s" for time, count in curve[-5:]
        )
        print(f"  rumor {rumor['message_id']}: infected over time {tail}")
    if len(rumors) > 3:
        print(f"  ... {len(rumors) - 3} more rumor(s) traced")


def _cmd_soak(args: argparse.Namespace) -> int:
    """A short live-socket run: real UDP/HTTP nodes on one event loop."""
    import asyncio

    from repro.core.aiodeploy import (
        SOAK_DELIVERY_BUDGET,
        AsyncGossipMesh,
        derive_soak_rate,
        soak_params,
    )
    from repro.workloads import StockFeed

    # The capacity rule from docs/DEPLOY.md: SOAK_DELIVERY_BUDGET
    # deliveries/s on one core, each publish costing ~N deliveries.  No
    # --rate derives a sustainable default from --nodes; an explicit
    # over-budget rate is honored but flagged.
    capacity_rate = derive_soak_rate(args.nodes)
    if args.rate is None:
        args.rate = capacity_rate
        print(f"rate: {args.rate:.2f} ticks/s "
              f"(~{SOAK_DELIVERY_BUDGET:.0f} deliveries/s / "
              f"{args.nodes} nodes; override with --rate)")
    elif args.rate > capacity_rate:
        print(f"warning: --rate {args.rate:g} exceeds the ~{capacity_rate:.2f} "
              f"ticks/s single-core budget for {args.nodes} nodes "
              "(docs/DEPLOY.md); expect backlog growth and degraded "
              "delivery")

    from repro.core.telemetry import TelemetryPolicy

    telemetry = None if args.no_telemetry else TelemetryPolicy(
        sample_rate=args.sample_rate
    )

    async def run() -> int:
        mesh = AsyncGossipMesh(
            args.nodes,
            transport=args.transport,
            params=soak_params(args.transport, period=args.period),
            seed=args.seed,
            telemetry=telemetry,
        )
        loop = mesh.loop
        await mesh.astart()
        published = {}
        try:
            feed = StockFeed(rate=args.rate, seed=args.seed)
            import random as _random

            rng = _random.Random(args.seed + 1)
            start = loop.time()
            for tick in feed.ticks(args.duration):
                lag = tick.time - (loop.time() - start)
                if lag > 0:
                    await asyncio.sleep(lag)
                publisher = rng.randrange(args.nodes)
                gossip_id = await mesh.apublish(tick.to_value(), publisher)
                published[gossip_id] = (publisher, loop.time())
            await asyncio.sleep(args.settle)
        finally:
            await mesh.astop()
        fractions = [
            mesh.delivered_fraction(gossip_id, publisher)
            for gossip_id, (publisher, _) in published.items()
        ]
        latencies = sorted(mesh.delivery_latencies(
            {gossip_id: when for gossip_id, (_, when) in published.items()}
        ))
        delivered = sum(fractions) / len(fractions) if fractions else 0.0
        print(f"nodes: {args.nodes} over {args.transport}, "
              f"{len(published)} ticks published")
        print(f"delivered: {delivered:.1%}")
        if latencies:
            p50 = latencies[len(latencies) // 2]
            p99 = latencies[min(len(latencies) - 1,
                                round(0.99 * (len(latencies) - 1)))]
            print(f"latency p50: {p50 * 1000:.0f} ms, p99: {p99 * 1000:.0f} ms")
        if telemetry is not None:
            _print_soak_telemetry(mesh.telemetry_summary())
        return 0 if delivered >= 0.99 else 1

    return asyncio.run(run())


def _cmd_describe(args: argparse.Namespace) -> int:
    import random

    from repro.core.handler import GossipLayer
    from repro.core.service import GossipService
    from repro.soap.runtime import SoapRuntime
    from repro.soap.wsdl import describe_runtime
    from repro.transport.base import LoopbackTransport

    class NullScheduler:
        now = 0.0

        def call_after(self, delay, callback):
            return self

        def cancel(self):
            pass

    runtime = SoapRuntime("sim://node", LoopbackTransport())
    layer = GossipLayer(runtime, NullScheduler(), "sim://node/app",
                        rng=random.Random(0))
    runtime.add_service("/gossip", GossipService(layer))
    for path, description in describe_runtime(runtime).items():
        print(f"{path}  ({description.service_name})")
        for operation in description.operations:
            print(f"  {operation.name:<12} {operation.action}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WS-Gossip reproduction: demos and analysis",
    )
    parser.add_argument("--seed", type=int, default=7)
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="disseminate across N services")
    demo.add_argument("--nodes", type=int, default=50)
    demo.add_argument("--consumers", type=int, default=10)
    demo.add_argument("--fanout", type=int, default=4)
    demo.add_argument("--rounds", type=int, default=7)
    demo.set_defaults(handler=_cmd_demo)

    figure1 = commands.add_parser("figure1", help="replay the paper's Figure 1")
    figure1.add_argument("--max-events", type=int, default=40)
    figure1.set_defaults(handler=_cmd_figure1)

    styles = commands.add_parser("styles", help="compare the gossip styles")
    styles.add_argument("--nodes", type=int, default=24)
    styles.add_argument("--fanout", type=int, default=6)
    styles.add_argument("--rounds", type=int, default=8)
    styles.set_defaults(handler=_cmd_styles)

    analyze = commands.add_parser(
        "analyze", help="epidemic parameter configuration for a population"
    )
    analyze.add_argument("population", type=int)
    analyze.add_argument("--target", type=float, default=0.99)
    analyze.set_defaults(handler=_cmd_analyze)

    describe = commands.add_parser(
        "describe", help="WSDL summary of the gossip port type"
    )
    describe.set_defaults(handler=_cmd_describe)

    soak = commands.add_parser(
        "soak", help="short live-socket mesh run (real UDP/HTTP nodes)"
    )
    soak.add_argument("--nodes", type=int, default=40)
    soak.add_argument("--transport", choices=("udp", "http"), default="udp")
    soak.add_argument("--duration", type=float, default=6.0)
    soak.add_argument(
        "--rate", type=float, default=None,
        help="publish rate (ticks/s); default derives from --nodes via "
             "the single-core capacity rule (docs/DEPLOY.md)",
    )
    soak.add_argument("--period", type=float, default=0.5)
    soak.add_argument("--settle", type=float, default=4.0)
    soak.add_argument(
        "--no-telemetry", action="store_true",
        help="disable wire-level trace context (drops the telemetry report)",
    )
    soak.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="trace-context path-sampling probability (0..1)",
    )
    soak.set_defaults(handler=_cmd_soak)

    obs = commands.add_parser(
        "obs", help="observability: reports and metric exports"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_commands.add_parser(
        "report", help="run a seeded dissemination and report its metrics"
    )
    report.add_argument("--nodes", type=int, default=50)
    report.add_argument("--consumers", type=int, default=0)
    report.add_argument("--style", default="push")
    report.add_argument("--fanout", type=int, default=4)
    report.add_argument("--rounds", type=int, default=7)
    report.add_argument("--duration", type=float, default=10.0)
    report.add_argument("--jsonl", help="also dump every metric as JSONL")
    report.add_argument(
        "--prometheus", help="also write Prometheus text format"
    )
    report.add_argument(
        "--shards", type=int, default=1,
        help="simulate across K worker processes (merged report)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report model (stable key order)",
    )
    report.add_argument(
        "--telemetry", action="store_true",
        help="run with wire-level trace context and SLO burn-rate windows",
    )
    report.set_defaults(handler=_cmd_obs_report)

    top = obs_commands.add_parser(
        "top", help="live-refresh view polling a node's /v1/obs/* endpoints"
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8801",
        help="base URL of a running HTTP gossip node",
    )
    top.add_argument("--interval", type=float, default=2.0)
    top.add_argument(
        "--iterations", type=int, default=0,
        help="refresh count (0 = until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true", help="poll once and exit"
    )
    top.add_argument(
        "--rumors", type=int, default=10,
        help="rumor rows to show per refresh",
    )
    top.set_defaults(handler=_cmd_obs_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
