"""Test-session setup: CLI subprocesses import the package from src/ too.

pytest puts src/ on sys.path (pyproject.toml, pythonpath); the tests that
run ``python -m toricval`` in a subprocess need it in PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
