"""Import pixpoint from PYTHONPATH when it names a tree, else from this
checkout's src, so a bare `python -m pytest` works and a run against
another checkout's src tests that checkout."""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("pixpoint") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
