#!/usr/bin/env python
"""Print the rows that differ between two report CSVs.

Usage: python scripts/rowdiff.py OLD.csv NEW.csv

Rows are keyed by (module, operation, seq, name), the key reports are
sorted by (docs/formats.md, "Report CSV").  In key order, it prints one
line per row that differs:

    - <old row>                  a row only OLD has
    + <new row>                  a row only NEW has
    ~ <key> | <column>: <old> -> <new> | ...
                                 a row whose kind, lhs, rel, rhs, status
                                 or note changed, each changed cell once

Rows and keys print as CSV cells.  It exits 1 when any row differs, and 0
with nothing printed when none does.
"""

from __future__ import annotations

import csv
import io
import sys

KEY = ("module", "operation", "seq", "name")
CELLS = ("kind", "lhs", "rel", "rhs", "status", "note")


def read(path: str) -> dict[tuple, dict[str, str]]:
    """The rows of a report CSV by key."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {tuple(row[c] for c in KEY): row for row in csv.DictReader(fh)}


def _cells(values) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(values)
    return out.getvalue()


def diff(old: dict, new: dict):
    """The lines for the rows that differ, in key order (seq numerically)."""
    for key in sorted(old.keys() | new.keys(),
                      key=lambda k: (k[0], k[1], int(k[2]), k[3])):
        was, now = old.get(key), new.get(key)
        if now is None:
            yield "- " + _cells(was[c] for c in KEY + CELLS)
        elif was is None:
            yield "+ " + _cells(now[c] for c in KEY + CELLS)
        else:
            changed = [f"{c}: {was[c]} -> {now[c]}" for c in CELLS
                       if was[c] != now[c]]
            if changed:
                yield " | ".join(["~ " + _cells(key), *changed])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    differs = False
    for line in diff(read(args[0]), read(args[1])):
        print(line)
        differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
