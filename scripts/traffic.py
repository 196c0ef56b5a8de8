#!/usr/bin/env python
"""Which lines of src/setgrowth/ no pinned output and no other workload runs.

Usage: python scripts/traffic.py (no arguments).

Runs every pin of pins.json through scripts/pins.py, then the benchmark
workloads of perfbench/workloads.py other than suite-default (whose report
is the suite-all.csv pin) at the default seed, all in this process under
sys.settrace.  Prints, per module, the ranges of executable lines that
none of them reached, as ``module.py: first-last, line, ...``: a range
holds no reached executable line, and the lines around it are reached.  This
answers what has no traffic, which a check of the names that library
code uses cannot: a method that is named but never called, or a branch.
"""

import contextlib
import importlib.util
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))     # an installed setgrowth comes first
# the package scripts/pins.py runs, found without running its code
SRC = Path(importlib.util.find_spec("setgrowth").origin).parent


def _load(path: Path):
    """A module loaded from a file of the repository by its path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}   # 0: a module start


def executable_lines(path: Path) -> set[int]:
    """The lines that start an instruction in any code object of a file."""
    source = path.read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= _code_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def collect(run) -> dict[str, set[int]]:
    """{file: lines reached} over the src/setgrowth/ files while run() runs.
    A frame counts its first line when it starts; a code object whose
    every line was reached is not traced again."""
    prefix, reached, done = str(SRC), {}, set()

    def line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        seen = reached.setdefault(code.co_filename, set())
        seen.add(code.co_firstlineno)
        if _code_lines(code) <= seen:
            done.add(code)
            return None
        return line

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def unreached(reached: dict[str, set[int]]) -> dict[str, list[tuple[int, int]]]:
    """{module file name: [(first, last), ...]}: per file of the package,
    each run of executable lines that holds no reached one, if any."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        seen, runs, open_run = reached.get(str(path), set()), [], False
        for n in sorted(executable_lines(path)):
            if n in seen:
                open_run = False
            elif open_run:
                runs[-1] = (runs[-1][0], n)
            else:
                runs.append((n, n))
                open_run = True
        if runs:
            out[path.name] = runs
    return out


def _run_all() -> None:
    pins = _load(ROOT / "scripts" / "pins.py")
    failed = [line for line in pins.check(pins.load()) if not line.startswith("ok ")]
    if failed:
        raise SystemExit("\n".join(failed))
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    from setgrowth.groups import DEFAULT_SEED
    for name, workload in workloads.WORKLOADS.items():
        if name != "suite-default":
            workload.verify(workload.setup(DEFAULT_SEED),
                            lambda part: contextlib.nullcontext(), lambda: None)


def main() -> int:
    for name, runs in unreached(collect(_run_all)).items():
        print(f"{name}: " + ", ".join(str(a) if a == b else f"{a}-{b}"
                                      for a, b in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
