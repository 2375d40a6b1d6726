"""BENCHMARK.json is the one list of workload and metric names; the
harness reads it rather than repeating it."""

from __future__ import annotations

import json
import os
from typing import Any, Dict

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)
