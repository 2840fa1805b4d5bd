"""Test-session setup: the CLI subprocesses some tests start import
derivcover from this checkout's src/, as the tests themselves do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
