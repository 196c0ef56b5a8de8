#!/usr/bin/env python
"""Check every pinned output of the setgrowth CLI against pins.json.

Usage: python scripts/pins.py (no arguments; CI runs it under python -O).
Prints ok or MISMATCH with the digest it got per pin, and exits 1 on any
mismatch; docs/formats.md, "Pinned outputs", says the rest.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))     # an installed setgrowth comes first

from setgrowth import cli  # noqa: E402


def load() -> list[dict]:
    return json.loads((ROOT / "pins.json").read_text(encoding="utf-8"))


def check(pins):
    """Yield ok or MISMATCH per pin; each distinct argv runs once, in process."""
    commands: dict[tuple, list[dict]] = {}
    for pin in pins:
        commands.setdefault(tuple(pin["argv"]), []).append(pin)
    for argv, outputs in commands.items():
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = cli.main([*argv, "--out", out])
            stdout = "".join(line for line in printed.getvalue().splitlines(True)
                             if not line.startswith("wrote "))   # not the out path
            for pin in outputs:
                path = Path(out, pin["output"])
                data = (stdout.encode() if pin["output"] == "stdout"
                        else path.read_bytes() if path.is_file() else b"")
                got = hashlib.sha256(data).hexdigest()
                yield (f"ok {pin['name']}" if got == pin["sha256"] and code == 0
                       else f"MISMATCH {pin['name']}: got {got}, exit {code}")


def reference_mismatch(pins, reference: dict) -> str | None:
    """The MISMATCH line if suite-default is not the suite-all.csv pin."""
    (pin,) = [p["sha256"] for p in pins if p["name"] == "suite-all.csv"]
    held = reference["digests"]["suite-default"]
    return None if held == pin else (
        f"MISMATCH perfbench/reference.json: suite-default is {held}, "
        f"the suite-all.csv pin is {pin}")


def main() -> int:
    pins, failed = load(), False
    for line in check(pins):
        print(line, flush=True)
        failed = failed or not line.startswith("ok ")
    stale = reference_mismatch(
        pins, json.loads((ROOT / "perfbench" / "reference.json").read_text()))
    if stale:
        print(stale)
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
