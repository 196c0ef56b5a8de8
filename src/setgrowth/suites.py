"""Suite runner and report emission: the reproducibility surface.

A SuiteConfig names jobs; run_suite executes them and places every check,
as the ledger's own exact LedgerRow, in a Report; emit_report renders each
row once and streams it into byte-stable CSV and JSON.  Hard rows are
exact paper inequalities and fail the exit code; soft rows are hypothesis
checks that gate a pipeline; info rows are measured constants and never
fail anything.
Every randomized choice draws from a Random seeded by (job seed, group,
purpose) strings, so identical configs give identical reports.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import heisenberg as hb
from .bsg import bsg_extract, energy_equivalences, weak_bsg
from .entropy import (
    MetricCloud,
    QuaternionGroup,
    TorusGroup,
    WordMetricGroup,
    approx_energy,
    entropy_tripling_check,
    metric_profile_check,
    separated_set,
)
from .exact import ceil_isqrt, frac, render_value
from .families import (
    SetFamilySpec,
    generate_set,
    measured_difference_ratio,
    measured_tripling,
)
from .groups import (
    DEFAULT_SEED,
    FiniteGroup,
    NotNormalError,
    _parse_group,
    _required,
    _split_fields,
    construct_group,
)
from .setops import (
    MSet,
    _pair_counts,
    energy,
    energy_quadruple_count,
    inverse_set,
    power_set,
    product_set,
    quotient_map,
    random_ids,
    subgroup_closure,
    subgroup_failure,
    symmetrize,
    translate_left,
)
from .structure import (
    ConstantLedger,
    LedgerError,
    LedgerRow,
    _cover_scan,
    approx_group_from_tripling,
    local_tripling_check,
    symmetric_core,
    tripling_chain,
)

DRAW_CHUNK = 1024       # draws per pool table in the ruzsa, energy and cover suites


# ---------------------------------------------------------------------------
# Report model

class ReportRow(NamedTuple):
    """Where a ledger row sits in a report: the ledger's own LedgerRow,
    exact sides and all, rendered only by cells(), at emit."""

    module: str
    operation: str
    seq: int
    row: LedgerRow

    @property
    def name(self) -> str:
        return self.row.name

    @property
    def status(self) -> str:
        if self.row.kind == "info":
            return "info"
        return "fail" if self.row.failed else "pass"

    def sort_key(self):
        return (self.module, self.operation, self.seq, self.row.name)

    def cells(self) -> tuple:
        """The CSV_HEADER fields, sides rendered by render_value."""
        r = self.row
        note = "; ".join(filter(None, (r.formula, r.note)))
        return (self.module, self.operation, self.seq, r.name, r.kind,
                render_value(r.lhs), r.rel, render_value(r.rhs), self.status, note)


CSV_HEADER = ("module", "operation", "seq", "name", "kind",
              "lhs", "rel", "rhs", "status", "note")


@dataclass
class Report:
    """Placed ledger rows; a hard failure anywhere fails the process."""

    title: str
    rows: list[ReportRow] = field(default_factory=list)
    _seq: dict = field(default_factory=dict)

    def add(self, module: str, operation: str, name: str, kind: str = "hard",
            lhs=None, rel="", rhs=None, passed=True, note="") -> None:
        """Place one check given by its parts."""
        row = LedgerRow(name, kind, lhs, rel, rhs, bool(passed), note=note)
        self._place(module, operation, (row,))

    def merge_ledger(self, module: str, operation: str,
                     ledger: ConstantLedger) -> None:
        self._place(module, operation, ledger.rows)

    def merge_failure(self, module: str, operation: str,
                      exc: LedgerError) -> None:
        """Record a raised hard failure as its failing rows (honest red)."""
        self._place(module, operation, exc.failures)

    def _place(self, module: str, operation: str, rows) -> None:
        key = (module, operation)
        seq = self._seq.get(key, 0)
        self.rows.extend(ReportRow(module, operation, seq + i, row)
                         for i, row in enumerate(rows))
        self._seq[key] = seq + len(rows)

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=ReportRow.sort_key)

    def hard_failures(self) -> list[ReportRow]:
        return [r for r in self.rows if r.row.kind == "hard" and r.row.failed]

    def exit_code(self) -> int:
        return 1 if self.hard_failures() else 0

    def summary(self) -> dict:
        counts = {"total": len(self.rows), "hard": 0, "soft": 0, "info": 0,
                  "hard_failures": 0, "soft_failures": 0}
        for r in self.rows:
            counts[r.row.kind] += 1
            if r.row.failed:
                counts[f"{r.row.kind}_failures"] += 1
        return counts


def _csv_cell(text: str) -> str:
    r"""A cell as csv.writer(lineterminator="\n") writes it: quoted, its
    quotes doubled, iff it holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# One CSV_HEADER row, every cell a string but seq.
_CSV_ROW = "%s,%s,%d,%s,%s,%s,%s,%s,%s,%s\n"


class _CsvRows:
    """The CSV report on fh, header first, one write per row."""

    def __init__(self, fh, report: Report):
        self._fh = fh
        fh.write(",".join(CSV_HEADER) + "\n")

    def writerow(self, cells) -> None:
        module, operation, seq, name, kind, lhs, rel, rhs, status, note = cells
        q = _csv_cell
        self._fh.write(_CSV_ROW % (
            q(module), q(operation), seq, q(name), q(kind), q(lhs), q(rel),
            q(rhs), q(status), q(note)))

    def close(self) -> None:
        pass


# One row object as json.dumps(..., indent=2, sort_keys=True) lays it out:
# keys in sorted order, every cell a string but seq.
_JSON_ROW = """    {
      "kind": %s,
      "lhs": %s,
      "module": %s,
      "name": %s,
      "note": %s,
      "operation": %s,
      "rel": %s,
      "rhs": %s,
      "seq": %d,
      "status": %s
    }"""


class _JsonRows:
    """The JSON report on fh, byte for byte what
    json.dumps({"title", "summary", "rows"}, indent=2, sort_keys=True)
    writes, one row object per writerow; close writes the summary and
    title that sort after the rows."""

    def __init__(self, fh, report: Report):
        self._fh = fh
        self._report = report
        self._sep = "\n"
        fh.write('{\n  "rows": [')

    def writerow(self, cells) -> None:
        module, operation, seq, name, kind, lhs, rel, rhs, status, note = cells
        enc = encode_basestring_ascii
        self._fh.write(self._sep + _JSON_ROW % (
            enc(kind), enc(lhs), enc(module), enc(name), enc(note),
            enc(operation), enc(rel), enc(rhs), seq, enc(status)))
        self._sep = ",\n"

    def close(self) -> None:
        summary = ",\n".join(f'    "{k}": {v}'
                             for k, v in sorted(self._report.summary().items()))
        self._fh.write("]" if self._sep == "\n" else "\n  ]")
        self._fh.write(',\n  "summary": {\n%s\n  },\n  "title": %s\n}\n'
                       % (summary, encode_basestring_ascii(self._report.title)))


_WRITERS = {"csv": _CsvRows, "json": _JsonRows}


def emit_report(report: Report, format: str = "csv",
                out: str | None = None) -> list[str]:
    """Write the report in the named format ("csv", "json", or "both").

    Output is byte-stable for identical reports: rows sorted by
    (module, operation, seq, name), each rendered once by ReportRow.cells
    for every format.  Returns the list of written paths.
    """
    return _emit_cells(report, map(ReportRow.cells, report.sorted_rows()),
                       format, out)


def _emit_cells(report: Report, cells, format: str,
                out: str | None) -> list[str]:
    """emit_report from the report's cells, already rendered in sorted
    order: one pass over them feeds every format's file as it goes."""
    if format not in ("csv", "json", "both"):
        raise ValueError(f"unknown report format {format!r}")
    formats = ("csv", "json") if format == "both" else (format,)
    out_dir = out or "."
    os.makedirs(out_dir, exist_ok=True)
    slug = "".join(c if c.isalnum() or c == "-" else "-"
                   for c in report.title.lower()) or "report"
    paths = [os.path.join(out_dir, f"{slug}.{fmt}") for fmt in formats]
    with contextlib.ExitStack() as stack:
        writers = [
            _WRITERS[fmt](stack.enter_context(
                open(path, "w", encoding="utf-8", newline="")), report)
            for fmt, path in zip(formats, paths)]
        for row in cells:
            for writer in writers:
                writer.writerow(row)
        for writer in writers:
            writer.close()
    return paths


# ---------------------------------------------------------------------------
# Config

@dataclass(frozen=True)
class SuiteJob:
    name: str
    groups: tuple[str, ...] = ()
    families: tuple[str, ...] = ()
    epsilon: Fraction | None = None
    n: int = 6
    seed: int = DEFAULT_SEED
    count: int = 0


class SuiteConfig(NamedTuple):
    jobs: tuple[SuiteJob, ...]
    out: str | None = None


# key: (parser, range check, what the range is in words)
_NUMBER_KEYS = {
    "epsilon": (frac, lambda v: 0 < v < 1, "a rational in (0,1)"),
    "n": (int, lambda v: v >= 1, "an integer >= 1"),
    "seed": (int, lambda v: True, "an integer"),
    "count": (int, lambda v: v >= 0, "an integer >= 0"),
}


def parse_suite_config(text: str) -> SuiteConfig:
    """Flat key-value grammar: optional top-level `out = dir`, then repeated
    `[suite]` sections with name/groups/families/epsilon/n/seed/count, each
    key at most once per section.  Every error starts with its line."""
    top: dict = {}
    sections: list[tuple[int, dict]] = []     # (line of [suite], its keys)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, at = raw.strip(), f"line {lineno}:"
        if not line or line.startswith("#"):
            continue
        if line == "[suite]":
            sections.append((lineno, {}))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{at} expected key = value, got {raw!r}")
        key, value = key.strip(), value.strip()
        current = sections[-1][1] if sections else top
        if key in current:
            raise ValueError(f"{at} duplicate key {key!r}")
        if not sections:
            if key != "out":
                raise ValueError(f"{at} only `out` may appear before [suite]")
        elif key == "name":
            if value not in SUITE_NAMES:
                raise ValueError(
                    f"{at} unknown suite {value!r}; expected one of {SUITE_NAMES}")
        elif key in ("groups", "families"):
            value = tuple(_split_fields(value, f"{at} {key}",
                                        "," if key == "groups" else ";"))
            for entry in value:     # parsed only: no group is built here
                try:
                    (_parse_group(entry) if key == "groups"
                     else SetFamilySpec.parse("", entry))
                except ValueError as exc:
                    raise ValueError(f"{at} {exc}") from None
        elif key in _NUMBER_KEYS:
            parse, ok, expected = _NUMBER_KEYS[key]
            try:
                number = parse(value)
            except (ValueError, ZeroDivisionError):
                number = None
            if number is None or not ok(number):
                raise ValueError(f"{at} {key} must be {expected}, got {value!r}")
            value = number
        else:
            raise ValueError(f"{at} unknown key {key!r}")
        current[key] = value
    for start, fields in sections:
        _required(fields, "name", f"line {start}: [suite] section", "name")
    return SuiteConfig(jobs=tuple(SuiteJob(**fields) for _, fields in sections),
                       out=top.get("out"))


# ---------------------------------------------------------------------------
# Default instance material

CORE_GROUPS = (
    "cyclic(60)",
    "cyclic(97)",
    "dihedral(15)",
    "symmetric(4)",
    "sl2(5)",
    "direct_product(cyclic(4),cyclic(9))",
    "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
)

SMALL_GROUPS = (
    "cyclic(48)",
    "dihedral(12)",
    "symmetric(4)",
    "sl2(3)",
    "direct_product(cyclic(6),cyclic(5))",
    "cyclic(37)",
)

CORE_FAMILIES = (
    "ball_in_word_metric(2;1,3)",
    "random_dense(density=1/5;seed=23)",
    "geometric_progression(3,5)",
    "subgroup(2)",
    "coset(2;1)",
    "union_of_cosets(3;2)",
)

SMALL_FAMILIES = (
    "ball_in_word_metric(1;1,3)",
    "random_dense(density=1/8;seed=31)",
    "geometric_progression(3,4)",
    "subgroup(4)",
    "coset(4;1)",
    "geometric_progression(5,3)",
)


def _rng(job: SuiteJob, *tags) -> random.Random:
    return random.Random(":".join([str(job.seed), job.name, *map(str, tags)]))


def _pool(job: SuiteJob, report: Report, module: str,
          group_spec: str, g: FiniteGroup, *, max_size: int | None = None,
          extra_random: int) -> list[tuple[str, MSet]]:
    """Realize the job's families in one group, skipping impossible ones
    with an info row, then append `extra_random` seeded random sets (so
    the pool is never empty)."""
    pool: list[tuple[str, MSet]] = []
    for ftext in job.families:
        spec = SetFamilySpec.parse(group_spec, ftext)
        try:
            a = generate_set(spec)
        except ValueError as exc:
            report.add(module, f"generate[{group_spec}]", ftext, "info",
                       lhs=0, note=f"family skipped: {exc}")
            continue
        if max_size is not None and a.size > max_size:
            a = MSet.from_ids(g, a.id_array()[:max_size])
        pool.append((ftext, a))
    rng = _rng(job, group_spec, "pool")
    for i in range(extra_random):
        density = Fraction(rng.randrange(8, 25), 100)
        ids = random_ids(g, rng, density)[:max_size]
        pool.append((f"random#{i}", MSet.from_ids(g, ids if len(ids) else [0])))
    return pool


def _group_pools(job: SuiteJob, report: Report, module: str, tag: str, *,
                 max_size: int | None = None, extra_random: int):
    """(gspec, g, pool, rng) for each group of the job; rng is seeded by
    (job seed, suite, group, tag)."""
    for gspec in job.groups:
        g = construct_group(gspec)
        pool = _pool(job, report, module, gspec, g, max_size=max_size,
                     extra_random=extra_random)
        yield gspec, g, pool, _rng(job, gspec, tag)


def _iterations(job: SuiteJob) -> int:
    return max(job.count, 1)


def _draws(job: SuiteJob, pool, rng: random.Random, arity: int = 2):
    """Per iteration, `arity` seeded picks from the pool.  Drawn lazily, so
    a loop body may take further draws from rng between iterations."""
    for _ in range(_iterations(job)):
        yield [rng.choice(pool) for _ in range(arity)]


def _small_random_sets(g: FiniteGroup, rng: random.Random, count: int,
                       lo: int = 3, hi: int = 9) -> list[tuple[str, MSet]]:
    out = []
    for i in range(count):
        size = rng.randrange(lo, hi)
        ids = rng.sample(range(g.order), min(size, g.order))
        out.append((f"sample#{i}", MSet.from_ids(g, ids)))
    return out


def _topped_up(job: SuiteJob, g: FiniteGroup, pool, rng: random.Random,
               lo: int) -> list[tuple[str, MSet]]:
    """The pool followed by small seeded samples up to the job's count."""
    return pool + _small_random_sets(g, rng, max(job.count - len(pool), 0),
                                     lo=lo, hi=12)


# ---------------------------------------------------------------------------
# Suites

def _chunks(draws):
    """Lists of at most DRAW_CHUNK consecutive draws: a pool table holds the
    pairs of one list, so its memory does not grow with the job's count."""
    draws = iter(draws)
    while chunk := list(itertools.islice(draws, DRAW_CHUNK)):
        yield chunk


def _operands(pool) -> list:
    """The id arrays of the pool's sets, A_i at i, then of their inverses,
    A_i⁻¹ at len(pool) + i."""
    sets = [a for _, a in pool]
    return [a.id_array() for a in sets] + [inverse_set(a).id_array() for a in sets]


def _pair_table(g: FiniteGroup, operands, keys) -> dict:
    """{(i, j): (|X_i·X_j|, E(X_i, X_j))} over the distinct pairs among keys,
    X_i the id array operands[i]: each product formed once, all of them in
    one kernel sweep."""
    keys, table = list(dict.fromkeys(keys)), {}
    pairs = [(operands[i], operands[j]) for i, j in keys]
    for rows, counts in _pair_counts(g, pairs):
        table.update(zip(keys[rows], zip(
            np.count_nonzero(counts, axis=1).tolist(),
            np.einsum("ij,ij->i", counts, counts).tolist())))
    return table


def _pair_rows(g: FiniteGroup, pairs):
    """The count row over ids of 1_X * 1_Y of each operand pair, in order."""
    return (row for _, counts in _pair_counts(g, pairs) for row in counts)


class _Tally:
    """The hard rows of a pool suite: each named row holds until a draw
    fails its check.  The witness is the text of the first failure, which
    is formatted only then."""

    def __init__(self, *names: str):
        self.passed = dict.fromkeys(names, True)    # in row order
        self.notes: dict[str, str] = {}
        self.witness = ""

    def check(self, name: str, holds, note: str, failure: str, *args) -> None:
        """One verdict on the row `name`, whose note is the last one given;
        failure.format(*args) is the witness if this is the first failure."""
        self.notes[name] = note
        if not holds:
            self.passed[name] = False
            self.witness = self.witness or failure.format(*args)

    def place(self, report: Report, module: str, op: str, count_name: str,
              count: int, note: str = "") -> None:
        """The hard rows, then the info row `count_name`, noted with the
        witness, or `note` when every check held."""
        for name, passed in self.passed.items():
            report.add(module, op, name, "hard", passed=passed, note=self.notes[name])
        report.add(module, op, count_name, "info", lhs=count,
                   note=self.witness or note)


def _run_ruzsa_axioms(job: SuiteJob, report: Report) -> None:
    module = "setcalc"
    for gspec, g, pool, rng in _group_pools(job, report, module, "triples",
                                            max_size=24, extra_random=3):
        tally = _Tally("triangle-cleared", "symmetry", "nonnegativity",
                       "left-invariance")
        n, sizes = len(pool), [a.size for _, a in pool]
        for draws in _chunks((abc, rng.randrange(g.order), rng.randrange(g.order))
                             for abc in _draws(job, range(n), rng, arity=3)):
            # after the pool's operands, xA at 2n + s and (yB)⁻¹ at 2n + t + s
            ops, t = _operands(pool), len(draws)
            moved = [row.nonzero()[0] for row in _pair_rows(g, [
                ([x], ops[a]) for (a, _, _), x, _ in draws] + [
                ([y], ops[b]) for (_, b, _), _, y in draws])]
            ops += moved[:t] + [g.inv_array(yb) for yb in moved[t:]]
            table = _pair_table(g, ops, itertools.chain.from_iterable(
                ((a, n + b), (b, n + c), (a, n + c), (b, n + a),
                 (2 * n + s, 2 * n + t + s))
                for s, ((a, b, c), _, _) in enumerate(draws)))
            for s, ((a, b, c), x, y) in enumerate(draws):
                la, lb, lc = pool[a][0], pool[b][0], pool[c][0]
                ab, bc, ac = (table[i, n + j][0] for i, j in ((a, b), (b, c), (a, c)))
                tally.check("triangle-cleared", ac * sizes[b] <= ab * bc,
                            "|A C^-1||B| <= |A B^-1||B C^-1| over sampled triples",
                            "triangle fails at ({},{},{})", la, lb, lc)
                tally.check("symmetry", ab == table[b, n + a][0],
                            "|A B^-1| = |B A^-1|", "symmetry fails at ({},{})", la, lb)
                tally.check("nonnegativity", ab * ab >= sizes[a] * sizes[b],
                            "|A B^-1|^2 >= |A||B|",
                            "nonnegativity fails at ({},{})", la, lb)
                tally.check("left-invariance", table[2 * n + s, 2 * n + t + s][0] == ab,
                            "|xA (yB)^-1| = |A B^-1|",
                            "invariance fails at ({},{},x={},y={})", la, lb, x, y)
        tally.place(report, module, f"ruzsa_distance[{gspec}]", "triple-count",
                    _iterations(job), f"pool of {n} sets")


def _asymmetric_coset_union(g: FiniteGroup) -> MSet | None:
    """First H u xH with |A A^-1| != |A^-1 A|, scanning small subgroups.
    A subgroup met again from another generator, or a coset xH met again
    from another x, is skipped: its scan already returned nothing."""
    scanned = set()
    for gen in range(1, min(g.order, 16)):
        h = subgroup_closure(g, [gen])
        if not 1 < h.size <= g.order // 3 or h in scanned:
            continue
        scanned.add(h)
        seen = h        # H and the cosets xH scanned so far
        for x in range(1, min(g.order, 48)):
            if x in seen:
                continue
            coset = translate_left(x, h)
            seen = seen.union(coset)
            a = h.union(coset)
            a_inv = inverse_set(a)
            if product_set(a, a_inv).size != product_set(a_inv, a).size:
                return a
    return None


def _run_energy_identities(job: SuiteJob, report: Report) -> None:
    module = "setcalc"
    for gspec, g, pool, rng in _group_pools(job, report, module, "energy",
                                            max_size=32, extra_random=3):
        op = f"energy[{gspec}]"
        tally = _Tally("left-right-energy-equal", "energy-upper", "energy-lower",
                       "quadruple-brute-agreement")
        brute_runs = 0
        n = len(pool)
        for draws in _chunks(_draws(job, range(n), rng)):
            table = _pair_table(g, _operands(pool), itertools.chain.from_iterable(
                ((i, j), (i, n + i), (n + i, i)) for i, j in draws))
            for i, j in draws:
                (la, a), (lb, b) = pool[i], pool[j]
                size, value = table[i, j]
                nm = a.size * b.size
                tally.check("energy-upper", value**2 <= nm**3,
                            "E(A,B)^2 <= (|A||B|)^3, cleared",
                            "upper bound fails at ({},{})", la, lb)
                tally.check("energy-lower", value * size >= nm**2,
                            "E(A,B)|A B| >= (|A||B|)^2, cleared",
                            "lower bound fails at ({},{})", la, lb)
                tally.check("left-right-energy-equal",
                            table[i, n + i][1] == table[n + i, i][1],
                            "E(A,A^-1) = E(A^-1,A)", "E(A,A^-1) != E(A^-1,A) at {}", la)
                if brute_runs < 12:
                    brute_runs += 1
                    tally.check("quadruple-brute-agreement",
                                value == energy_quadruple_count(a, b),
                                f"{brute_runs} brute-force comparisons",
                                "brute-force mismatch at ({},{})", la, lb)
        asym = _asymmetric_coset_union(g)
        if asym is not None:
            # |A A^-1|, E(A,A^-1) and |A^-1 A|, E(A^-1,A) in one sweep
            flip = _pair_table(g, _operands([(None, asym)]), [(0, 1), (1, 0)])
            (left, e_left), (right, e_right) = flip[0, 1], flip[1, 0]
            report.add(module, op, "coset-union-asymmetry", "info",
                       lhs=left, rel="!=", rhs=right,
                       note=f"|A A^-1| vs |A^-1 A| for the union, |A| = {asym.size}")
            tally.check("left-right-energy-equal", e_left == e_right,
                        "E(A,A^-1) = E(A^-1,A)", "E symmetry fails on the coset union")
        tally.place(report, module, op, "pair-count", _iterations(job))


def _run_covering(job: SuiteJob, report: Report) -> None:
    module = "structure"
    for gspec, g, pool, rng in _group_pools(job, report, module, "cover",
                                            max_size=30, extra_random=2):
        tally = _Tally("cover-count", "cover-containment")
        for draws in _chunks(_draws(job, range(len(pool)), rng)):
            table = _pair_table(g, _operands(pool), itertools.chain.from_iterable(
                ((i, j), (j, i)) for i, j in draws))
            # D = A⁻¹A (left) and AA⁻¹ (right) once per drawn A; the cover X
            # of ruzsa_cover and its hull D·X (X·D) once per (A, B, side)
            diffs = {}
            for i in dict.fromkeys(i for i, _ in draws):
                a, a_inv = pool[i][1], inverse_set(pool[i][1])
                diffs[i, "left"] = product_set(a_inv, a)
                diffs[i, "right"] = product_set(a, a_inv)
            keys = dict.fromkeys((i, j, side) for i, j in draws
                                 for side in ("left", "right"))
            covers = {(i, j, s): _cover_scan(diffs[i, s], pool[j][1].ids(), s)
                      for i, j, s in keys}
            hulls = [(diffs[i, s].id_array(), x.id_array()) if s == "left"
                     else (x.id_array(), diffs[i, s].id_array())
                     for (i, _, s), x in covers.items()]
            inside = {key: row[pool[key[1]][1].id_array()].all()
                      for key, row in zip(covers, _pair_rows(g, hulls))}
            for i, j in draws:
                (la, a), (lb, b) = pool[i], pool[j]
                for side in ("left", "right"):
                    prod = table[(i, j) if side == "left" else (j, i)][0]
                    tally.check("cover-count", covers[i, j, side].size * a.size <= prod,
                                "|X||A| <= |A B| (resp. |B A|)",
                                "count fails at ({},{},{})", la, lb, side)
                    tally.check("cover-containment", inside[i, j, side],
                                "B inside A^-1 A X (resp. X A A^-1)",
                                "containment fails at ({},{},{})", la, lb, side)
        tally.place(report, module, f"ruzsa_cover[{gspec}]", "instance-count",
                    2 * _iterations(job))


def _run_musprop(job: SuiteJob, report: Report) -> None:
    module = "structure"
    for gspec, g, pool, rng in _group_pools(job, report, module, "musprop",
                                            max_size=30, extra_random=2):
        for i, (label, a) in enumerate(_topped_up(job, g, pool, rng, lo=4)):
            k = measured_difference_ratio(a)
            _, ledger = symmetric_core(a, k)
            report.merge_ledger(module, f"symmetric_core[{gspec}|{label}#{i}]",
                                ledger)


def _run_weak_bsg(job: SuiteJob, report: Report) -> None:
    module = "bsg"
    eps = job.epsilon if job.epsilon is not None else Fraction(1, 2)
    for gspec, g, pool, rng in _group_pools(job, report, module, "weak",
                                            extra_random=2):
        for i, ((la, a), (lb, b)) in enumerate(_draws(job, pool, rng)):
            c = product_set(a, b)
            kp_sq = Fraction(c.size ** 2, a.size * b.size)
            result = weak_bsg(a, b, c, Fraction(1), eps=eps, kprime_sq=kp_sq)
            report.merge_ledger(
                module, f"weak_bsg[{gspec}|{la}*{lb}#{i}]", result.ledger)


def _energy_k(a: MSet, b: MSet, e_val: int | None = None) -> Fraction:
    """Smallest rational K with E(A,B)^2 K^2 >= (|A||B|)^3 at this witness
    precision: K = ceil_sqrt((|A||B|)^3)/E.  `e_val` is E(A,B) when the
    caller has counted it already."""
    if e_val is None:
        e_val = energy(a, b)
    nm = a.size * b.size
    return Fraction(ceil_isqrt(nm ** 3), e_val)


def _run_bsg(job: SuiteJob, report: Report) -> None:
    module = "bsg"
    # Fixed worked instance: the 4-term progression in cyclic(16).
    g16 = construct_group("cyclic(16)")
    a16 = MSet.from_ids(g16, [0, 1, 2, 3])
    op16 = "bsg_extract[cyclic(16)|progression-4]"
    report.add(module, op16, "energy-measured", "info",
               lhs=energy(a16, a16), note="E(A,A) for A = {0,1,2,3}")
    extract = bsg_extract(a16, a16, _energy_k(a16, a16))
    report.merge_ledger(module, op16, extract.ledger)
    for gspec, g, pool, rng in _group_pools(job, report, module, "bsg",
                                            max_size=40, extra_random=1):
        for i, ((la, a), (lb, b)) in enumerate(_draws(job, pool, rng)):
            extract = bsg_extract(a, b, _energy_k(a, b))
            report.merge_ledger(
                module, f"bsg_extract[{gspec}|{la}*{lb}#{i}]", extract.ledger)


def _run_energy_equivalence(job: SuiteJob, report: Report) -> None:
    module = "bsg"
    for gspec, g, pool, rng in _group_pools(job, report, module, "equiv",
                                            max_size=32, extra_random=1):
        for i, ((la, a), (lb, b)) in enumerate(_draws(job, pool, rng)):
            report.merge_ledger(
                module, f"energy_equivalences[{gspec}|{la}*{lb}#{i}]",
                energy_equivalences(a, b, _energy_k(a, b)))


def _local_product_sup(a: MSet) -> int:
    return max(
        product_set(a, translate_left(mid, a)).size
        for mid in a.ids())


def _run_tripling(job: SuiteJob, report: Report) -> None:
    module = "structure"
    for gspec, g, pool, rng in _group_pools(job, report, module, "tripling",
                                            max_size=16, extra_random=2):
        for i, (label, a) in enumerate(_topped_up(job, g, pool, rng, lo=3)):
            k = measured_tripling(a)
            op = f"tripling[{gspec}|{label}#{i}]"
            wit, wled = approx_group_from_tripling(a, k)
            report.merge_ledger(module, op, wled)
            report.add(module, op, "witness-verified", "hard",
                       passed=wit.verified, note="all approximate-group clauses")
            chain = tripling_chain(a, k, n=min(job.n, 6))
            report.merge_ledger(module, f"tripling_chain[{gspec}|{label}#{i}]",
                                chain)
        # Local-product corollary at the inferred constant.
        local = [(lbl, a) for lbl, a in pool if a.size <= 14][:3]
        local.extend(_small_random_sets(g, _rng(job, gspec, "local"),
                                        max(9 - len(local), 0), lo=3, hi=8))
        for i, (label, a) in enumerate(local):
            sup_size = _local_product_sup(a)
            a2 = power_set(a, 2)
            k_local = Fraction(max(sup_size, a2.size), a.size)
            ledger = local_tripling_check(a, k_local)
            report.merge_ledger(
                module, f"local_tripling[{gspec}|{label}#{i}]", ledger)
        _plus_point_demo(report, module, gspec, g)


def _plus_point_demo(report: Report, module: str, gspec: str,
                     g: FiniteGroup) -> None:
    """Show the local-product hypothesis genuinely failing on H u {x}.

    Scans subgroup generators in ascending order; the first instance
    where sup_a |A a A| exceeds |A^2| exhibits the gap.  Everything is
    reported, nothing asserted: in abelian groups the family itself is
    impossible and that is recorded instead.
    """
    op = f"local_tripling[{gspec}|subgroup_plus_point]"
    first_err = None
    for gen in range(1, min(g.order, 24)):
        spec = SetFamilySpec.parse(gspec, f"subgroup_plus_point({gen})")
        try:
            a = generate_set(spec)
        except ValueError as exc:
            first_err = first_err or str(exc)
            continue
        if a.size > 40:
            continue
        sup_size = _local_product_sup(a)
        a2_size = power_set(a, 2).size
        if sup_size > a2_size:
            report.add(module, op, "square-ratio", "info",
                       lhs=Fraction(a2_size, a.size),
                       note=f"|A^2|/|A| for H u {{x}}, |A| = {a.size}")
            report.add(module, op, "local-product-ratio", "info",
                       lhs=Fraction(sup_size, a.size),
                       note="sup over a in A of |A a A|/|A|")
            report.add(module, op, "hypothesis-gap-shown", "info",
                       lhs=sup_size, rel=">", rhs=a2_size,
                       note="local-product hypothesis fails at K = |A^2|/|A|; "
                            "conjugation moves the subgroup")
            return
    report.add(module, op, "hypothesis-gap-shown", "info", lhs=0,
               note=first_err or "no gap instance among scanned generators")


def _subgroups_of_order(g: FiniteGroup, order: int):
    """(generators, members) of each subgroup with the given order, met by
    scanning single generators and then generator pairs in ascending id
    order."""
    scan = itertools.chain(([h] for h in range(1, g.order)),
                           map(list, itertools.combinations(range(1, g.order), 2)))
    for gens in scan:
        members = subgroup_closure(g, gens)
        if members.size == order:
            yield gens, members


def _subgroup_by_order(g: FiniteGroup, order: int) -> MSet:
    """The first subgroup with the given order."""
    for _, members in _subgroups_of_order(g, order):
        return members
    raise ValueError(f"no subgroup of order {order} in {g.name}")


def _normal_quotient(g: FiniteGroup, order: int):
    """The quotient by the first normal subgroup with the given order."""
    for gens, _ in _subgroups_of_order(g, order):
        try:
            return quotient_map(g, gens)
        except NotNormalError:
            continue
    raise ValueError(f"no normal subgroup of order {order} in {g.name}")


def _full_set(g: FiniteGroup, q) -> MSet:
    return MSet.from_ids(g, g.elements())


def _kernel_set(g: FiniteGroup, q) -> MSet:
    return MSet.from_mask(g, q.pi == 0)


def _split_instances():
    """(group spec, normal-subgroup order, set builders) per instance."""
    return (
        ("cyclic(12)", 3, (
            ("evens", lambda g, q: MSet.from_ids(g, range(0, 12, 2))),
            ("subgroup-h", _kernel_set),
            ("full", _full_set),
        )),
        ("dihedral(15)", 5, (
            ("rotations", lambda g, q: _subgroup_by_order(g, 15)),
            ("ball", lambda g, q: power_set(
                symmetrize(MSet.from_ids(g, [1, 15])), 2)),
            ("full", _full_set),
        )),
        ("symmetric(4)", 4, (
            ("alternating", lambda g, q: _subgroup_by_order(g, 12)),
            ("klein-four", _kernel_set),
            ("full", _full_set),
        )),
        ("direct_product(cyclic(4),cyclic(9))", 9, (
            ("vertical", _kernel_set),
            ("ball", lambda g, q: power_set(
                symmetrize(MSet.from_ids(g, [9])), 2)),
        )),
        ("heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)", 3, (
            ("vertical", _kernel_set),
            ("z-section", lambda g, q: MSet.from_ids(g, range(0, 27, 3))),
            ("full", _full_set),
        )),
    )


def _add_agreement(report: Report, module: str, op: str, a: MSet, q,
                   split, exact, note: str) -> None:
    """Hard row: on a subgroup A both splitting routes give A n H."""
    b_cap = a & _kernel_set(a.group, q)
    agree = exact.passed and all(
        b == b_cap for b in (split.b1, split.b2, split.b3, exact.b))
    report.add(module, op, "exact-approx-agreement", "hard",
               passed=agree, lhs=b_cap.size, note=note)


def _run_splitting(job: SuiteJob, report: Report) -> None:
    module = "heisenberg"
    for gspec, h_order, builders in _split_instances():
        g = construct_group(gspec)
        if isinstance(g, hb.HeisenbergGroup):
            q = g.vertical
        else:
            q = _normal_quotient(g, h_order)
        for label, build in builders:
            a = build(g, q)
            op = f"split[{gspec}|{label}]"
            sym = symmetrize(a)
            k = measured_tripling(sym)
            try:
                witness = hb.split_approximate(sym, q, k)
            except LedgerError as exc:
                report.merge_failure(module, op, exc)
                continue
            report.merge_ledger(module, op, witness.ledger)
            if subgroup_failure(a) is None:
                exact = hb.exact_split_oracle(a, q)
                report.merge_ledger(module, f"exact_split[{gspec}|{label}]",
                                    exact.ledger)
                _add_agreement(report, module, op, a, q, witness, exact,
                               "B1 = B2 = B3 = A n H = exact B on subgroups")


def _heisenberg_families(g: hb.HeisenbergGroup, seed: int):
    """Twelve deterministic set families inside one Heisenberg group."""
    wo = g.w_order
    e1 = g.spec.z_prime ** (g.spec.z_rank - 1)  # z coords (1,0,...)
    e2 = 1                                       # z coords (...,0,1)
    full = MSet.from_ids(g, g.elements())
    vertical = MSet.from_ids(g, range(wo))
    line = subgroup_closure(g, [g.encode(e1, 0)])
    wall = subgroup_closure(g, [g.encode(e1, 0), 1])
    zsec = MSet.from_ids(g, [g.encode(z, 0) for z in range(g.z_order)])
    mixed = vertical.union(MSet.from_ids(g, [g.encode(e1, 0)]))
    ball1 = symmetrize(MSet.from_ids(g, [g.encode(e1, 0), g.encode(e2, 0)]))
    ball2 = power_set(ball1, 2)
    twofiber = vertical.union(translate_left(g.encode(e1, 0), vertical))
    step = g.encode(e1, 1)
    prog = [0, step, g.mul(step, step)]
    rnd = random_ids(g, random.Random(f"{seed}:heis:{g.order}"), 0.22)
    return (
        ("identity", MSet.from_ids(g, [0])),
        ("vertical", vertical),
        ("full", full),
        ("z-section", zsec),
        ("line", line),
        ("line-times-w", wall),
        ("vertical-plus-point", mixed),
        ("pair-ball-1", ball1),
        ("pair-ball-2", ball2),
        ("two-fibers", twofiber),
        ("mixed-progression", MSet.from_ids(g, prog)),
        ("random-dense", MSet.from_ids(g, [0, *rnd])),
    )


def _run_heisenberg(job: SuiteJob, report: Report) -> None:
    module = "heisenberg"
    for p in (3, 5, 7):
        g = construct_group(
            f"heisenberg(z=Zp^2,p={p};w=Zp^1,p={p};pairing=symplectic)")
        assert isinstance(g, hb.HeisenbergGroup)
        report.merge_ledger(module, f"build[p={p}]", g.construction_ledger)
        for label, a in _heisenberg_families(g, job.seed):
            op = f"heisen_inverse[p={p}|{label}]"
            k = measured_tripling(a)
            try:
                witness = hb.heisen_inverse(a, k)
                converse = hb.verify_inverse_converse(witness, a)
            except LedgerError as exc:
                report.merge_failure(module, op, exc)
                continue
            report.merge_ledger(module, op, witness.ledger)
            report.merge_ledger(module, f"converse[p={p}|{label}]", converse)
            if subgroup_failure(a) is None:
                exact = hb.exact_split_oracle(a, g.vertical)
                split = hb.split_approximate(a, g.vertical, Fraction(1))
                _add_agreement(report, module, op, a, g.vertical, split, exact,
                               "genuine subgroup: B_i = A n H both routes")


def _run_entropy(job: SuiteJob, report: Report) -> None:
    module = "entropy"
    word = WordMetricGroup(construct_group("cyclic(60)"), [1, 7])
    for group in (TorusGroup(1), TorusGroup(2), QuaternionGroup(), word):
        report.merge_ledger(module, f"profile[{group.name}]",
                            metric_profile_check(group, seed=job.seed))

    # tripling growth on a short torus arc: the points i/100, i < 10
    arc = MetricCloud(TorusGroup(1, 100), range(10))
    report.merge_ledger(module, "entropy_tripling[torus(1)-arc]",
                        entropy_tripling_check(arc, Fraction(1, 100)))

    # cross-module oracle: a progression in cyclic(5) embedded at i/5
    c5 = construct_group("cyclic(5)")
    a5 = MSet.from_ids(c5, [0, 1, 2])
    discrete = energy(a5, a5)
    cloud5 = MetricCloud(TorusGroup(1, 5), range(3))
    approx = approx_energy(cloud5, cloud5, Fraction(1, 20))
    report.add(module, "approx_energy[embedded-cyclic(5)]",
               "matches-discrete-energy", "hard",
               lhs=approx, rel="==", rhs=discrete, passed=approx == discrete,
               note="product gap 1/5 above eps 1/20; exact quadruple count")
    sep = separated_set(cloud5, Fraction(1, 20))
    report.add(module, "approx_energy[embedded-cyclic(5)]",
               "cloud-separated", "hard",
               lhs=len(sep), rel="==", rhs=3, passed=len(sep) == 3,
               note="no two points merge at this scale")


# ---------------------------------------------------------------------------
# The suite table: runner and default groups, families and count per name

class _Suite(NamedTuple):
    runner: Callable[[SuiteJob, Report], None]
    groups: tuple[str, ...] = ()
    families: tuple[str, ...] = ()
    count: int = 0


SUITES = {
    "ruzsa-axioms": _Suite(_run_ruzsa_axioms, CORE_GROUPS, CORE_FAMILIES, 90),
    "tripling": _Suite(_run_tripling, SMALL_GROUPS, SMALL_FAMILIES, 18),
    "covering": _Suite(_run_covering, CORE_GROUPS, CORE_FAMILIES, 36),
    "musprop": _Suite(_run_musprop, CORE_GROUPS, CORE_FAMILIES, 18),
    "energy-identities": _Suite(_run_energy_identities, CORE_GROUPS,
                                CORE_FAMILIES, 90),
    "weak-bsg": _Suite(_run_weak_bsg, CORE_GROUPS, CORE_FAMILIES, 18),
    "bsg": _Suite(_run_bsg, SMALL_GROUPS, SMALL_FAMILIES, 7),
    "energy-equivalence": _Suite(_run_energy_equivalence, SMALL_GROUPS,
                                 SMALL_FAMILIES, 5),
    "entropy": _Suite(_run_entropy),
    "heisenberg": _Suite(_run_heisenberg),
    "splitting": _Suite(_run_splitting),
}

SUITE_NAMES = tuple(SUITES)


def default_job(name: str) -> SuiteJob:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    suite = SUITES[name]
    return SuiteJob(name, suite.groups, suite.families, count=suite.count)


def default_config() -> SuiteConfig:
    return SuiteConfig(tuple(default_job(n) for n in SUITE_NAMES))


def run_suite(config: SuiteConfig) -> Report:
    """Execute every job in the config and merge the rows.  A job with no
    groups runs on its suite's default groups, one with no families on its
    suite's default families, and one with no count (or count 0) on its
    suite's default count."""
    names = [job.name for job in config.jobs]
    if not names:
        title = "suite-empty"
    elif tuple(dict.fromkeys(names)) == SUITE_NAMES:
        title = "suite-all"
    elif len(names) <= 3:
        title = "suite-" + "-".join(names)
    else:
        title = f"suite-{names[0]}-plus-{len(names) - 1}"
    report = Report(title=title)
    for job in config.jobs:
        default = default_job(job.name)
        job = replace(job, groups=job.groups or default.groups,
                      families=job.families or default.families,
                      count=job.count or default.count)
        SUITES[job.name].runner(job, report)
    return report


def run_named_suite(name: str, seed: int = DEFAULT_SEED) -> Report:
    """Run one suite with its default job (the `verify <name>` entry)."""
    return run_suite(SuiteConfig((replace(default_job(name), seed=seed),)))
