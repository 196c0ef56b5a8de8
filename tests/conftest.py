"""Import ``setgrowth`` from this checkout's ``src/``, unless a ``PYTHONPATH``
entry already holds a ``setgrowth`` package: then that package is the one
under test, so these tests can be run against another checkout's code."""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

if not any((Path(entry) / "setgrowth" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, str(_SRC))
