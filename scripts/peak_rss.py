#!/usr/bin/env python
"""Run one command and report its peak resident set size and wall time.

Usage: python scripts/peak_rss.py [--max-mb MB] -- COMMAND [ARG ...]

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` after the command
exits: the largest resident set of any process it waited for, in MB
(Linux reports kilobytes).  Prints one JSON line, {"peak_rss_mb", "wall_s",
"returncode"}, to stderr, so the command's own stdout passes through
untouched.  Exits with the command's status when that is nonzero, else
with 1 when the peak exceeds --max-mb, else 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail when the peak RSS exceeds this many MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    start = time.perf_counter()
    returncode = subprocess.call(command)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": round(peak, 1), "wall_s": round(wall, 3),
                      "returncode": returncode}), file=sys.stderr)
    if returncode:
        return returncode
    if args.max_mb is not None and peak > args.max_mb:
        print(f"peak RSS {peak:.1f} MB is above the {args.max_mb:g} MB ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
