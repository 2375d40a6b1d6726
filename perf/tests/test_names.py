import json
import re

from perf import run, workloads
from perf.spec import load_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_names_are_well_formed():
    spec = load_spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {entry["name"] for entry in spec["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {entry["name"] for entry in spec["end_to_end"]}


def _printed(capsys, monkeypatch, trace):
    # Large enough for a resolved p99, small enough to take seconds.
    small = workloads.Size(nodes=60, rumors=20, drain=2.0)
    monkeypatch.setitem(workloads.SIZES["sim_burst"], "full", small)
    assert run.run_once("sim_burst", 5, 0.0, trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = [line.split()[0] for line in lines[1:] if not line.startswith(("DETAIL", "{"))]
    return result, printed


def test_printed_end_to_end_names_equal_benchmark_json(capsys, monkeypatch):
    wanted = [entry["name"] for entry in load_spec()["end_to_end"]]
    result, printed = _printed(capsys, monkeypatch, False)
    assert list(result["metrics"]) == wanted
    assert printed[: len(wanted)] == wanted
    assert result["correct"] is True and result["attempted"] == 20


def test_printed_per_layer_names_equal_benchmark_json(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))  # keep the trace file out of the repo
    wanted = [entry["name"] for entry in load_spec()["per_layer"]]
    result, printed = _printed(capsys, monkeypatch, True)
    assert list(result["metrics"]) == wanted
    assert printed[: len(wanted)] == wanted
    assert all(entry["value"] != -1.0 for entry in result["metrics"].values())
    header = json.loads((tmp_path / "perf" / "results" / "trace-sim_burst.jsonl").read_text().splitlines()[0])
    assert header["workload"] == "sim_burst" and header["spans_total"] >= header["spans_written"] > 0
