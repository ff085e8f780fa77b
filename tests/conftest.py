"""Make the in-tree package importable by the ``python -m ncsym`` subprocesses
that the CLI and acceptance tests start; ``pythonpath`` in pyproject.toml
covers the test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
