# Convenience targets for the WS-Gossip reproduction.

PYTHON ?= python

.PHONY: install test perf-check test-chaos test-recovery test-obs test-adaptive test-overload test-telemetry soak-smoke soak bench bench-smoke bench-core bench-shard bench-shard-smoke bench-perturbation bench-perturbation-smoke bench-overload bench-overload-smoke bench-telemetry-smoke bench-telemetry profile examples record clean bench-e3 census

install:
	pip install -e . || pip install -e . --no-build-isolation

# The six gate files carry the `gate` marker (pyproject.toml): each runs
# once, at gate size, through its test-* target, and the final sweep
# deselects them.  A plain `pytest` run still collects everything.
test: test-chaos test-recovery test-obs test-adaptive test-overload test-telemetry soak-smoke bench-shard-smoke perf-check examples
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not gate"

# Benchmark self-check (~15 s): all four perf/ workloads and every
# correctness check at toy size, traced twin included, then the
# harness's own tests.  Keeps no numbers (see perf/README.md).
perf-check:
	$(PYTHON) perf/run.py --check
	$(PYTHON) -m pytest perf/tests -q

# Live-socket gate: a small real-UDP mesh on one event loop must deliver
# the stock workload to >= 99% of nodes with a sane p99 while the
# /v1/metrics edge answers scrapes (see docs/DEPLOY.md).
soak-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_soak.py --smoke

# Full live soak (300 real-socket nodes, 3 minutes); appends the row to
# BENCH_core.json under "soak".
soak:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_soak.py --rate 2.5 --period 2.0 --settle 30

# Seeded chaos gate: 30% crashes + 10% link loss at N=500 must still
# deliver to >= 99% of survivors with the peer-health layer on, and
# beat the same seed with it off (see docs/RESILIENCE.md).
test-chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_chaos.py -q

# Seeded recovery gate: 20% crash-restart with amnesia plus one
# partition/heal cycle at N=500 must still deliver to >= 99% of the
# group with durability + catch-up, and the amnesia-without-catch-up
# ablation on the same seed must be demonstrably worse
# (see docs/RESILIENCE.md, "Crash-recovery and rejoin").
test-recovery:
	PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_recovery.py -q

# Seeded observability gate: an N=500 push run judged from the metrics
# hub's causal rumor spans -- >= 99% delivery, and rounds-to-99% within
# the epidemic bound from repro.core.analysis.expected_rounds
# (see docs/OBSERVABILITY.md).
test-obs:
	PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_obs_gate.py -q

# Seeded adaptive-control gate: the self-tuning controller through
# calm -> 30% crash-restart churn -> loss ramp -> 5x publish burst at
# N=500 must hold >= 0.99 delivery in every phase while sending less
# traffic than the static reference config that also holds it
# (see docs/RESILIENCE.md, "Adaptive control").
test-adaptive:
	REPRO_ADAPTIVE_N=500 PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_adaptive.py -q

# Seeded overload gate: every disseminator throttled to a slow consumer
# while the initiator publishes at ~3x the remaining capacity, at N=500.
# With overload=... on, admitted-rumor delivery must stay >= 0.99 and
# peak ingest-queue depth within the configured bound; the shed-off
# ablation on the same seed must exhibit the collapse (unbounded queue
# growth, degraded delivery).  See docs/RESILIENCE.md, "Overload and
# backpressure".
test-overload:
	REPRO_OVERLOAD_N=500 PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_overload.py -q

# Seeded telemetry gate: a 120-node loopback UDP mesh with full path
# sampling must reconstruct per-hop latency, infection curves, and
# rounds-to-99% purely from the sampled wire trace context, and a
# simulated loss ramp must fire the windowed SLO burn-rate alert and
# clear it after the network heals (see docs/OBSERVABILITY.md,
# "Live telemetry").
test-telemetry:
	REPRO_TELEMETRY_N=120 PYTHONPATH=src $(PYTHON) -m pytest -m gate tests/integration/test_telemetry_gate.py -q

# Telemetry overhead gate: the N=1000 drain with the default telemetry
# policy must cost <= 5% CPU over telemetry=None (min-of-repeats,
# interleaved; see benchmarks/bench_telemetry.py).
bench-telemetry-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_telemetry.py --smoke

# Full telemetry overhead measurement; merges the "telemetry" section
# into BENCH_core.json.
bench-telemetry:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_telemetry.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# E3 at paper scale: hops to full coverage and resident KiB per node
# after setup for N = 16 ... 10 000 (~2 min on one core); rewrites
# benchmarks/results/e3_latency.txt.
bench-e3:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e3_latency.py

# Fast wire-path regression gate: a live N=100 batched run (delivery,
# batch traffic, pre-parse dedup) plus the checked-in BENCH_core.json
# scaling headline: envelope reduction >= 5x at N=1000, 5k/1k drain
# wall ratio <= 3, delivered_fraction >= 0.99 on every row.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_core.py --smoke

# Regenerate the BENCH_core.json baseline (N=100/1000/5000; minutes).
bench-core:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_core.py

# Sharded-simulator gate: determinism contract (K=1 vs K=2 delivered
# sets identical on a converging push-pull run; repeat runs with the
# same seed produce byte-identical per-shard trace digests) plus a
# >= 1.3x critical-path speedup floor at N=1000/K=2 (parent drain CPU +
# max worker busy CPU), on every host.  The wall speedup is printed as
# information only: it depends on the host's cores and load.  See
# docs/ARCHITECTURE.md.
bench-shard-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shard.py --smoke

# Full strong-scaling sweep (N=1000/5000/20000 x K=1/2/4/8; minutes);
# merges the "shard" section into BENCH_core.json.
bench-shard:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shard.py

# Perturbation benchmark: adaptive controller vs a static (fanout,
# rounds) grid through the four-phase schedule; appends rows to
# BENCH_core.json under "perturbation".
bench-perturbation:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perturbation.py

# CI-sized perturbation run (N=60, shorter phases) with the same claim
# checks; does not write BENCH_core.json.
bench-perturbation-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perturbation.py --smoke

# Overload sweep: goodput and queue memory at 0.5x-4x offered load,
# shed ladder on vs off; writes BENCH_core.json under "overload".
bench-overload:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_overload.py

# CI-sized overload sweep (N=40, multipliers 1x/3x) asserting the
# headline claims; does not write BENCH_core.json.
bench-overload-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_overload.py --smoke

# cProfile one batched N=1000 burst; top 25 functions by cumulative time.
profile:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_core.py --profile

# Call census (~9 min on 2 vCPUs): tier-1 under a profiler, then every
# def in src/repro that no test runs, by file, with line counts
# (tests/census.py).  Subprocess-only code (the shard workers) reads as
# never run.  Prints only; not a gate.
census:
	PYTHONPATH=src $(PYTHON) -m pytest -p tests.census

# Every example script end to end (~20 s); they are the config API's
# main non-test callers.
examples:
	for script in examples/*.py; do echo "== $$script =="; PYTHONPATH=src $(PYTHON) $$script || exit 1; done

record:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
