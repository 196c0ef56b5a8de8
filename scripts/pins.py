#!/usr/bin/env python
"""Check every pinned output of the setgrowth CLI against pins.json.

Usage: python scripts/pins.py (no arguments; CI runs it under python -O).
Prints ok or MISMATCH with the digest it got per pin, and exits 1 on any
mismatch.  Under the MISMATCH line of a CSV output it prints, indented,
the rows that differ from the same output built from the sources committed
at HEAD; docs/formats.md, "Pinned outputs", says the rest.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))     # an installed setgrowth comes first
sys.path.append(str(ROOT / "scripts"))

import rowdiff  # noqa: E402
from setgrowth import cli  # noqa: E402


def load() -> list[dict]:
    return json.loads((ROOT / "pins.json").read_text(encoding="utf-8"))


def check(pins):
    """Yield ok or MISMATCH per pin; each distinct argv runs once, in process.
    A mismatching CSV output is followed by its head_diff lines, indented."""
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
                if got == pin["sha256"] and code == 0:
                    yield f"ok {pin['name']}"
                    continue
                yield f"MISMATCH {pin['name']}: got {got}, exit {code}"
                if pin["output"].endswith(".csv"):
                    for line in head_diff(argv, pin["output"], path):
                        yield f"    {line}"


def head_diff(argv, output: str, path: Path):
    """scripts/rowdiff.py's lines from the output that the sources committed
    at HEAD make, extracted by git archive and run in a fresh interpreter,
    to the CSV at path; one line saying why when there is none to diff."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            tar = subprocess.run(
                ["git", "-C", str(ROOT), "archive", "HEAD", "src"],
                capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        except (OSError, subprocess.CalledProcessError):
            yield "no row diff: no git, or no HEAD to rebuild the output from"
            return
        old = Path(tmp, "out", output)
        # HEAD's src/ goes before an installed setgrowth and PYTHONPATH
        run = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from setgrowth import cli; "
               "sys.exit(cli.main([*sys.argv[3:], '--out', sys.argv[2]]))")
        subprocess.run([sys.executable, "-c", run, str(Path(tmp, "src")),
                        str(old.parent), *argv], cwd=tmp, capture_output=True)
        if not old.is_file() or not path.is_file():
            where = "HEAD" if not old.is_file() else "the working tree"
            yield f"no row diff: {where} wrote no {output}"
            return
        yield from rowdiff.diff(rowdiff.read(str(old)), rowdiff.read(str(path)))


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
