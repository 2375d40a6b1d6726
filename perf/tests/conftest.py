"""Run with ``python -m pytest perf/tests -q`` from the repository root
(not part of the tier-1 suite, whose ``testpaths`` is ``tests``)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
