"""Run-to-run spread of the end-to-end metrics, one run per seed.

Usage, from the repository root:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--out FILE]
    python3 perfbench/spread.py --report FILE [FILE ...]

The first form runs run.py once per workload and seed, with the
``run_seconds`` of BENCHMARK.json, appending each run's two JSON lines
(detail, result) to FILE.  Both forms then print, per workload and metric,
the median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound; a spread at or under a third of the bound is marked ok.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path, nargs="+")
    args = parser.parse_args(argv)

    runs = []  # (workload, result)
    if args.report:
        for path in args.report:
            lines = path.read_text().splitlines()
            for detail, result in zip(lines[::2], lines[1::2]):
                runs.append((json.loads(detail)["workload"], json.loads(result)))
    else:
        names = args.workload or [w["name"] for w in bench["workloads"]]
        for name in names:
            for seed in args.seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, check=True)
                detail, result = proc.stdout.strip().splitlines()[-2:]
                if args.out:
                    with args.out.open("a") as fh:
                        fh.write(detail + "\n" + result + "\n")
                runs.append((name, json.loads(result)))
                print(name, seed, result, file=sys.stderr)

    by_workload = defaultdict(list)
    for name, result in runs:
        by_workload[name].append(result)
    worst = 0.0
    for name, results in by_workload.items():
        bad = sum(not r["correct"] for r in results)
        print(f"{name}: {len(results)} runs, {bad} not correct")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            mark = "ok" if spread <= metric["bound"] / 3 else "WIDE"
            print(f"  {metric['name']:14s} median {med:10.4f}  q1 {q1:10.4f}"
                  f"  q3 {q3:10.4f}  spread {spread:6.3f}"
                  f"  bound {metric['bound']}  {mark}")
    print(f"widest spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
