"""Cold import: the package root loads no submodule, a submodule loads only
what it imports, and importing the constants runs no fixpoint.

Each check runs in a fresh interpreter, on the setgrowth package these
tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import setgrowth

_PACKAGE_PARENT = str(Path(setgrowth.__file__).resolve().parent.parent)


def _run(code: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports this setgrowth."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (_PACKAGE_PARENT, path))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _loaded_after(statement: str) -> set[str]:
    out = _run(f"{statement}\nimport sys\n"
               "print(*(m for m in sys.modules if m.startswith('setgrowth.')))")
    return set(out.split())


def _modules(*names: str) -> set[str]:
    return {f"setgrowth.{name}" for name in names}


@pytest.mark.parametrize("statement, loaded", [
    ("import setgrowth", set()),
    ("import setgrowth.structure",
     _modules("constants", "exact", "groups", "setops", "structure")),
    # every module but the cli: perfbench's tracer wraps the entropy layer
    # after importing setgrowth.suites and the workloads' own imports
    ("import setgrowth.suites",
     _modules("bsg", "constants", "entropy", "exact", "families", "groups",
              "heisenberg", "setops", "structure", "suites")),
])
def test_import_loads_only_what_it_reaches(statement, loaded):
    assert _loaded_after(statement) == loaded


def test_constants_import_runs_no_fixpoint():
    out = _run(
        "import sys\n"
        "calls = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        calls.add(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import setgrowth.constants\n"
        "sys.setprofile(None)\n"
        "print(*sorted(calls))\n")
    calls = set(out.split())
    assert "<module>" in calls  # the profile saw the module body run
    assert "derive_word_exponents" not in calls
