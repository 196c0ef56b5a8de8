"""One benchmark iteration in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Times set-up (importing ``setgrowth`` and building the inputs) and
verification (every check plus the CSV report written by
``emit_report``), then prints one JSON line with the timings, the report
digest and the hard-failure count.  With --trace the public functions of
each ``setgrowth`` module run inside spans (see tracer.py) and the line
also carries the per-layer metrics.

The machines this runs on drift in speed by tens of percent within
minutes, so the iteration is cut into parts at checkpoints (set-up, then
one part per suite on suite-default, else the whole verification), and a
fixed calibration kernel is timed at every checkpoint, outside the parts.
Each part's time is scaled to the reference speed CAL_REF_S by the
calibrations at its two ends; the raw times are reported too.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext

CAL_SLICES = 3
CAL_ROUNDS = 24
# The reference speed: calibrate() takes this long on it.
CAL_REF_S = 0.028


def calibrate() -> float:
    """Fastest of CAL_SLICES runs of a fixed pure-Python kernel.

    The kernel does what the setgrowth inner loops do (table lookups,
    big-int bit sets, dict counts) and never changes, so its time follows
    only the speed the machine gives this process at the moment.
    """
    n = 2039
    row = array("H", ((i * 7919) % n for i in range(n)))
    best = float("inf")
    for _ in range(CAL_SLICES):
        t = time.perf_counter()
        for r in range(CAL_ROUNDS):
            acc = 0
            seen = {}
            for y in range(n):
                z = row[(y * r + 1) % n]
                acc |= 1 << z
                seen[z] = seen.get(z, 0) + 1
        best = min(best, time.perf_counter() - t)
    return best


class Clock:
    """Wall and CPU time of consecutive parts, split at checkpoints."""

    def __init__(self):
        self.cals = [calibrate()]
        self.parts: list[tuple[float, float]] = []
        self._start()

    def _start(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def checkpoint(self) -> None:
        self.parts.append((time.perf_counter() - self._wall,
                           time.process_time() - self._cpu))
        self.cals.append(calibrate())
        self._start()

    def total(self, first: int, last: int) -> dict[str, float]:
        """Raw and scaled sums over parts[first:last]."""
        out = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0}
        for i in range(first, last):
            wall, cpu = self.parts[i]
            scale = 2 * CAL_REF_S / (self.cals[i] + self.cals[i + 1])
            out["wall"] += wall
            out["cpu"] += cpu
            out["wall_ref"] += wall * scale
            out["cpu_ref"] += cpu * scale
        return out


def main() -> int:
    clock = Clock()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        span = tracer.span

    with span("setup"):
        import workloads
        from setgrowth import suites
        if tracer is not None:
            tracer.install([workloads])
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.setup(args.seed)
    clock.checkpoint()

    with span("verify"):
        report = workload.verify(inputs, span, clock.checkpoint)
        (path,) = suites.emit_report(report, "csv", args.out)
    clock.checkpoint()

    setup = clock.total(0, 1)
    verify = clock.total(1, len(clock.parts))
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "setup_s": setup["wall_ref"],
        "verify_s": verify["wall_ref"],
        "verify_cpu_s": verify["cpu_ref"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_raw_s": setup["wall"],
        "verify_raw_s": verify["wall"],
        "verify_cpu_raw_s": verify["cpu"],
        "cal_s": statistics.median(clock.cals),
        "digest": digest,
        "rows": len(report.rows),
        "hard_failures": len(report.hard_failures()),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
