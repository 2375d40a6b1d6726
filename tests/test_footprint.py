"""What a node process pays for importing the package.

Every simulated or live node imports :mod:`repro`; the experiment-table
statistics must not drag scipy/numpy (~77 MiB resident) into it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
