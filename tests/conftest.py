"""Make a bare `python -m pytest` from a checkout test that checkout.

Puts the checkout's src/ first on sys.path, and on PYTHONPATH for the
`python -m brainsym` children the CLI tests start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

if sys.path[0] != SRC:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
