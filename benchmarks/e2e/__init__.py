"""The repo's lifecycle benchmark (see README.md in this directory).

Entry points: ``python3 benchmarks/e2e/run.py --workload <name>`` (one
workload, one JSON result line) and ``python -m benchmarks.e2e.repeat``
(the repeatability check).  The program under test is imported from
``src/`` of the same checkout; nothing outside this directory changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
DEFAULT_SEED = 20170101


def ensure_program_on_path() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (idempotent).

    The benchmark always measures the program of the checkout it sits in,
    never an installed copy, so ``src/`` goes first.
    """
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place that names the workloads and the
    metrics, with their units and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
