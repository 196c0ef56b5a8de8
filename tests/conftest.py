"""Import ``setgrowth`` from this checkout's ``src/``, unless a ``PYTHONPATH``
entry already holds a ``setgrowth`` package: then that package is the one
under test, so these tests can be run against another checkout's code."""

import os
import signal
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

if not any((Path(entry) / "setgrowth" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def refusal():
    """refusal(seconds, fn, *args) calls fn(*args) under an alarm: None when
    it returns, the message of its ValueError when it is refused.  Any other
    error fails the test, and so does a call that outlasts the alarm."""
    def run(seconds, fn, *args):
        def expire(signum, frame):
            raise TimeoutError(f"{fn.__name__}{args!r} outlasted {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            fn(*args)
            return None
        except ValueError as exc:
            return str(exc)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return run
