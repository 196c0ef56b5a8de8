"""Benchmark entry point for setgrowth.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py.  Each iteration runs in a fresh
worker process (worker.py) with its own PYTHONHASHSEED, so every
iteration starts with cold caches and re-proves that the report bytes do
not depend on the hash seed.  Without tracing, iterations repeat (closed
loop, one at a time) while the next one is expected to end within
--seconds, and always at least once; the end-to-end metrics are medians
over the iterations, with times scaled to a reference machine speed (see
worker.py).  With --trace 1 one untraced and one traced iteration run on
the same seed; the per-layer metrics come from the traced one, and the
two reports must digest identically.

An iteration fails when the worker raises or dies, reports a hard
failure, or writes a report whose sha256 differs from the reference
digest (seed 1729, reference.json) or, on other seeds, from the first
iteration of the run.  The last line of stdout is the JSON result; the
line before it holds the environment stamp and the per-iteration digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 1729
WORKLOADS = ("suite-default", "heisenberg-p7", "sl2-classify", "bsg-large")
END_TO_END = {"setup_s": "s", "verify_s": "s", "verify_cpu_s": "s",
              "peak_rss_mb": "MB"}
RAW = ("setup_raw_s", "verify_raw_s", "verify_cpu_raw_s", "cal_s")
# No worker is started after this many seconds, and a running one is
# stopped when it would pass it, so a run ends well inside 180 seconds.
RUN_LIMIT_S = 170.0


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "setgrowth").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _stamp() -> dict:
    import numpy
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _run_worker(workload: str, seed: int, hash_seed: int, out: Path,
                trace: bool, deadline: float) -> dict:
    """One worker process; returns its JSON result or {"error": ...}."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "worker passed the run time limit", "timeout": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: "
                         + proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    result["hash_seed"] = hash_seed
    return result


def _hash_seed(seed: int, iteration: int) -> int:
    """A PYTHONHASHSEED that differs per seed and per iteration."""
    return (seed * 1000 + iteration) % 2**32


def _failure(result: dict, expected: str) -> str | None:
    if "error" in result:
        return result["error"]
    if result["hard_failures"]:
        return f"{result['hard_failures']} hard failures"
    if result["digest"] != expected:
        return f"digest {result['digest']} != {expected}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "setgrowth" / "__init__.py").is_file():
        print(f"error: no setgrowth package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    expected = (reference["digests"][args.workload]
                if args.seed == reference["seed"] else None)

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    stamp = _stamp()
    stamp["loadavg_1m_before"] = os.getloadavg()[0]
    tag = f"{args.workload}-seed{args.seed}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    results = []
    try:
        if args.trace:
            results.append(_run_worker(args.workload, args.seed,
                                       _hash_seed(args.seed, 0), scratch, False,
                                       deadline))
            results.append(_run_worker(args.workload, args.seed,
                                       _hash_seed(args.seed, 1),
                                       OUT / f"trace-{tag}", True, deadline))
        else:
            longest = 0.0
            while True:
                t0 = time.perf_counter()
                result = _run_worker(args.workload, args.seed,
                                     _hash_seed(args.seed, len(results)),
                                     scratch, False, deadline)
                results.append(result)
                now = time.perf_counter()
                longest = max(longest, now - t0)
                if (result.get("timeout")
                        or now + longest > start + args.seconds
                        or now + longest > deadline):
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stamp["loadavg_1m_after"] = os.getloadavg()[0]

    want = expected or next(
        (r["digest"] for r in results if "digest" in r), None)
    failures = [_failure(r, want) for r in results]
    timed = [r for r in results if "verify_s" in r]
    if not timed:
        print(f"error: no iteration finished: {failures}", file=sys.stderr)
        return 1

    if args.trace:
        plain, traced = results
        layers = traced.get("layers", {})
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
        suite_sum = sum(v for k, v in layers.items()
                        if k.startswith("suites.") and k.endswith(".wall_s"))
        overhead = gap = 0.0
        if "verify_s" in plain and "verify_s" in traced:
            overhead = traced["verify_s"] - plain["verify_s"]
            if suite_sum:
                gap = traced["verify_raw_s"] - suite_sum
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["suites.sum_gap_s"] = {"value": gap, "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in timed),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp,
        "iterations": [
            {"hash_seed": r.get("hash_seed"), "digest": r.get("digest"),
             "rows": r.get("rows"), "failure": f,
             **{k: r[k] for k in (*END_TO_END, *RAW) if k in r}}
            for r, f in zip(results, failures)
        ],
    }
    print(json.dumps(detail))
    failed = sum(f is not None for f in failures)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
