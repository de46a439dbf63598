"""Make ``benchmarks.e2e`` and the checkout's ``src/`` importable, however
pytest was started."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3]))

from benchmarks.e2e import ensure_program_on_path  # noqa: E402

ensure_program_on_path()
