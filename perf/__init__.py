"""The repository's benchmark (see perf/README.md and BENCHMARK.json).

Everything here measures the program from outside, through its public
entry points; nothing under ``src/`` imports it.
"""
