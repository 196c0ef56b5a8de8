"""Suite runner, config grammar, report emission, and the CLI surface.

Determinism here means byte-identical files; each emission test writes
twice into fresh directories and compares raw bytes.
"""

import contextlib
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from setgrowth import bsg, groups, suites
from setgrowth.groups import DEFAULT_SEED, construct_group
from setgrowth.setops import (MSet, inverse_set, product_set, subgroup_closure,
                              translate_left)
from setgrowth.structure import ConstantLedger, LedgerError, ruzsa_cover
from setgrowth.suites import (
    CSV_HEADER,
    SUITE_NAMES,
    Report,
    ReportRow,
    SuiteConfig,
    SuiteJob,
    default_config,
    default_job,
    emit_report,
    parse_suite_config,
    render_value,
    run_named_suite,
    run_suite,
)
from setgrowth import cli


# ------------------------------------------------------------- rendering

def test_render_value_rules():
    assert render_value(None) == ""
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(7) == "7"
    assert render_value(Fraction(22, 7)) == "22/7"
    assert render_value(0.1) == "0.1"
    assert render_value(2.0**0.5) == "1.41421356237"


def test_render_big_integers_verbatim():
    big = 3**400
    assert render_value(big) == str(big)


# --------------------------------------------------------------- reports

def test_report_rows_sort_and_sequence():
    rep = Report("demo")
    rep.add("m", "op-b", "row", "hard", passed=True)
    rep.add("m", "op-a", "row", "hard", passed=True)
    rep.add("m", "op-a", "row2", "hard", passed=True)
    rows = rep.sorted_rows()
    assert [r.operation for r in rows] == ["op-a", "op-a", "op-b"]
    assert rows[0].seq < rows[1].seq


def test_report_exit_codes():
    rep = Report("demo")
    rep.add("m", "op", "good", "hard", passed=True)
    assert rep.exit_code() == 0
    rep.add("m", "op", "soft-miss", "soft", passed=False)
    assert rep.exit_code() == 0  # measured rows never fail the run
    rep.add("m", "op", "bad", "hard", passed=False)
    assert rep.exit_code() == 1
    assert [r.name for r in rep.hard_failures()] == ["bad"]


def test_report_summary_counts():
    rep = Report("demo")
    rep.add("m", "op", "a", "hard", passed=True)
    rep.add("m", "op", "b", "soft", passed=False)
    rep.add("m", "op", "c", "info")
    s = rep.summary()
    assert s["total"] == 3
    assert s["hard"] == 1
    assert s["soft"] == 1
    assert s["info"] == 1
    assert s["soft_failures"] == 1
    assert s["hard_failures"] == 0


def test_merge_ledger_and_failure():
    led = ConstantLedger("unit")
    led.compare("fine", 1, "<=", 2)
    led.info("measured", Fraction(3, 2))
    rep = Report("demo")
    rep.merge_ledger("m", "op", led)
    stats = {r.name: r.status for r in rep.sorted_rows()}
    assert stats == {"fine": "pass", "measured": "info"}

    bad = ConstantLedger("unit")
    bad.compare("broken", 3, "<=", 2)
    try:
        bad.check()
    except LedgerError as exc:
        rep.merge_failure("m", "op2", exc)
    assert rep.exit_code() == 1
    assert any(r.name == "broken" and r.status == "fail"
               for r in rep.sorted_rows())


def _failing_ledger():
    led = ConstantLedger("unit")
    led.claim("claimed", False, lhs=3, rhs=2, formula="f",
              note="seen at x=3")
    led.compare("compared", Fraction(7, 2), "<=", 3, formula="g")
    return led


def test_merge_failure_renders_like_merge_ledger():
    merged = Report("demo")
    merged.merge_ledger("m", "op", _failing_ledger())
    failed = Report("demo")
    with pytest.raises(LedgerError) as exc:
        _failing_ledger().check()
    failed.merge_failure("m", "op", exc.value)
    want = [r.cells() for r in merged.sorted_rows()]
    assert [r.cells() for r in failed.sorted_rows()] == want
    assert want == [
        ("m", "op", 0, "claimed", "hard", "3", "", "2", "fail",
         "f; seen at x=3"),
        ("m", "op", 1, "compared", "hard", "7/2", "<=", "3", "fail", "g"),
    ]
    assert failed.exit_code() == merged.exit_code() == 1


def test_merge_ledger_places_the_ledger_rows():
    led = ConstantLedger("unit")
    led.compare("fine", Fraction(1, 3), "<=", 2)
    led.info("measured", Fraction(3, 2))
    rep = Report("demo")
    rep.merge_ledger("m", "op", led)
    assert all(placed.row is row for placed, row in zip(rep.rows, led.rows))
    assert len(rep.rows) == len(led.rows)
    assert type(rep.rows[0].row.lhs) is Fraction


@pytest.fixture
def render_calls(monkeypatch):
    """Every value suites.render_value renders from here on, in order."""
    calls = []
    real = suites.render_value

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(suites, "render_value", counting)
    return calls


def test_rows_render_only_at_emit(render_calls, tmp_path):
    rep = run_named_suite("covering")
    assert render_calls == []
    emit_report(rep, format="both", out=str(tmp_path))
    assert len(render_calls) == 2 * len(rep.rows)


# ---------------------------------------------------------------- config

def test_config_parses_every_key():
    cfg = parse_suite_config("""
    out = reports
    [suite]
    name = covering
    groups = cyclic(24), direct_product(cyclic(2),cyclic(3))
    families = subgroup(2); coset(2;1)
    epsilon = 1/3
    n = 4
    seed = 5
    count = 3
    # a comment line
    [suite]
    name = tripling
    """)
    assert cfg == SuiteConfig(jobs=(
        SuiteJob(name="covering",
                 groups=("cyclic(24)", "direct_product(cyclic(2),cyclic(3))"),
                 families=("subgroup(2)", "coset(2;1)"),
                 epsilon=Fraction(1, 3), n=4, seed=5, count=3),
        SuiteJob(name="tripling"),
    ), out="reports")


def test_parse_minimal_config():
    cfg = parse_suite_config("""
    [suite]
    name = covering
    groups = cyclic(24), dihedral(6)
    families = subgroup(2); coset(2;1)
    count = 4
    """)
    job = cfg.jobs[0]
    assert job.name == "covering"
    assert job.groups == ("cyclic(24)", "dihedral(6)")
    assert job.families == ("subgroup(2)", "coset(2;1)")
    assert job.count == 4
    assert job.seed == DEFAULT_SEED


@pytest.mark.parametrize("line, message", [
    ("groups = cyclic(24),, dihedral(6)", "line 3: groups entry 2 is empty"),
    ("groups = cyclic(24), dihedral(6),", "line 3: groups entry 3 is empty"),
    ("families = ;subgroup(2)", "line 3: families field 1 is empty"),
    ("families = subgroup(2);; coset(2;1)", "line 3: families field 2 is empty"),
], ids=["groups-inner", "groups-trailing", "families-leading", "families-inner"])
def test_config_lists_refuse_an_empty_entry_by_position(line, message):
    # like a comma entry inside a spec: skipping it would hide a typo
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_suite_config(f"[suite]\nname = covering\n{line}\n")


@pytest.mark.parametrize("text, message", [
    ("[suite]\nname = covering\nname = tripling\n", "line 3: duplicate key 'name'"),
    ("[suite]\nname = bsg\nn = 2\n# n again\nn = 3\n", "line 5: duplicate key 'n'"),
    ("out = a\nout = b\n[suite]\nname = bsg\n", "line 2: duplicate key 'out'"),
    ("[suite]\nname = bsg\n\n[suite]\ngroups = cyclic(4)\n",
     "line 4: [suite] section is missing its name field"),
])
def test_config_refuses_a_repeated_key_or_a_nameless_section_by_its_line(
        text, message):
    # the second suite of a section would otherwise run silently in
    # place of the first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_suite_config(text)


@pytest.mark.parametrize("line, message", [
    ("groups = cyclic(4),cyclic(x)",
     "line 5: cyclic expects an integer argument, got 'x'"),
    ("groups = heisenberg(z=Zp^2,p=3;w=Zp^1,p=3)",
     "line 5: pairing is missing its pairing field"),
    ("groups = cyclic(4),symmetric(9)",
     "line 5: group order 9! of symmetric(9) exceeds cap 50000"),
    ("groups = direct_product(symmetric(8),cyclic(2))",
     "line 5: group order 80640 of direct_product(symmetric(8),cyclic(2)) "
     "exceeds cap 50000"),
    ("families = subgroup(1);nofam(2)", "line 5: unknown family 'nofam'"),
    ("families = subgroup(1;;2)", "line 5: subgroup field 2 is empty"),
])
def test_config_specs_are_refused_by_their_line_before_any_suite_runs(
        line, message, tmp_path, capsys):
    # each spec is parsed, not built, as its line is read: the covering
    # suite of the section before it never starts
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"[suite]\nname = covering\n[suite]\nname = tripling\n{line}\n")
    assert cli.main(["suite", "run", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0].startswith(message) and len(err.splitlines()) == 1


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 3"):
        parse_suite_config("[suite]\nname = covering\nwhat even is this\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_suite_config("[suite]\nname = covering\ncolour = blue\n")
    with pytest.raises(ValueError, match="name"):
        parse_suite_config("[suite]\ngroups = cyclic(4)\n")


@pytest.mark.parametrize("line", [
    "n = 0", "n = x", "count = -5", "seed = 1.5",
    "epsilon = 3/2", "epsilon = 0", "epsilon = 1", "epsilon = 1/0",
])
def test_parse_rejects_bad_values_with_their_line(line):
    key = line.split()[0]
    text = f"[suite]\nname = weak-bsg\n\n{line}\n"
    with pytest.raises(ValueError, match=f"^line 4: {key} must be "):
        parse_suite_config(text)


def test_parse_keeps_values_at_the_edges():
    job, = parse_suite_config(
        "[suite]\nname = tripling\nn = 9\ncount = 0\nepsilon = 0.25\n"
        "seed = -3\n").jobs
    assert (job.n, job.count, job.epsilon, job.seed) == (9, 0, Fraction(1, 4), -3)


def test_parse_rejects_k_key():
    with pytest.raises(ValueError, match="unknown key 'k'"):
        parse_suite_config("[suite]\nname = bsg\nk = 2\n")


def _config_value(rng: random.Random, key: str) -> str:
    """A value for key: well formed, out of range, with an empty list
    entry, or a number of up to 31 digits."""
    def number() -> str:
        return str(rng.choice([rng.randint(-2, 12), 10 ** rng.randint(2, 30),
                               rng.randint(-10**30, 10**30)]))

    if key == "name":
        return rng.choice(SUITE_NAMES + ("mystery", ""))
    if key in ("groups", "families"):
        pool = (["cyclic(4)", "direct_product(cyclic(2),cyclic(3))", f"cyclic({10**30})", ""]
                if key == "groups" else ["subgroup(2)", "coset(2;1)", f"subgroup({10**30})", ""])
        return (", " if key == "groups" else "; ").join(
            rng.choice(pool) for _ in range(rng.randint(1, 3)))
    if key == "epsilon":
        return rng.choice([f"{number()}/{number()}", "0.25", "1/3", "x"])
    return rng.choice([number(), number(), "1.5", "x"])


def _random_config(rng: random.Random) -> str:
    """A suite config text: an optional out line, then up to three [suite]
    sections of keys drawn from the grammar with repeats and an unknown
    one, and a comment, a blank line or a line with no '=' among them."""
    keys = ["name", "name", "groups", "families", "epsilon", "n", "seed", "count",
            "out", "colour"]
    lines = [f"out = r{rng.randrange(2)}" for _ in range(rng.choice([0, 0, 0, 1, 1, 2]))]
    for _ in range(rng.randint(0, 3)):
        lines.append("[suite]")
        for key in rng.sample(keys, rng.randint(0, 4)):
            lines.append(f"{key} = {_config_value(rng, key)}")
    if lines and rng.randrange(2):
        lines.insert(rng.randrange(len(lines)), rng.choice(["# note", "", "n 5"]))
    return "\n".join(lines)


def test_every_config_parses_or_is_refused_by_its_line(refusal):
    # each number reaches 10^30; any error but a one-line ValueError that
    # names a line of the text fails here
    rng = random.Random(1729)
    texts = [_random_config(rng) for _ in range(400)]
    outcomes = {text: refusal(5, parse_suite_config, text) for text in texts}
    refused = [m for m in outcomes.values() if m is not None]
    assert 0 < len(refused) < len(outcomes)
    for text, message in outcomes.items():
        if message is not None:
            lineno = re.match(r"line (\d+): ", message)
            assert lineno and "\n" not in message, (text, message)
            assert 1 <= int(lineno[1]) <= len(text.splitlines())


def test_default_config_covers_every_suite():
    cfg = default_config()
    assert tuple(j.name for j in cfg.jobs) == SUITE_NAMES


def test_run_suite_empty_config():
    rep = run_suite(SuiteConfig(jobs=()))
    assert rep.title == "suite-empty"
    assert rep.exit_code() == 0
    assert rep.summary()["total"] == 0


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(jobs=(SuiteJob(name="mystery"),)))


def _instance_counts(rep):
    return {r.operation: r.row.lhs for r in rep.rows
            if r.name == "instance-count"}


def test_config_job_with_groups_takes_the_default_count():
    job, = parse_suite_config(
        "[suite]\nname = covering\ngroups = cyclic(60)\n").jobs
    assert job.count == 0
    counts = _instance_counts(run_suite(SuiteConfig(jobs=(job,))))
    default = _instance_counts(run_named_suite("covering"))
    assert counts == {"ruzsa_cover[cyclic(60)]": 2 * default_job("covering").count}
    assert counts["ruzsa_cover[cyclic(60)]"] == default["ruzsa_cover[cyclic(60)]"]


def test_pool_tables_in_small_chunks_give_the_same_report(monkeypatch):
    # chunk boundaries inside every group's draws change no row or note
    jobs = tuple(default_job(name) for name in
                 ("ruzsa-axioms", "energy-identities", "covering"))
    want = [row.cells() for row in run_suite(SuiteConfig(jobs)).sorted_rows()]
    monkeypatch.setattr(suites, "DRAW_CHUNK", 7)
    assert [row.cells() for row in run_suite(SuiteConfig(jobs)).sorted_rows()] == want


# Each case corrupts the count row `row` that a pool suite forms over
# cyclic(60), for the pool's sets A and B labelled la and lb: the row
# becomes the one product 0, so |X·Y| = E(X,Y) = 1, or, when piled, all
# |X||Y| products land on 0, so |X·Y| = 1 and E(X,Y) = (|X||Y|)².  The
# first three notes are what the per-draw loop that called product_set and
# energy on every pair printed with product_set and energy corrupted the
# same way on that pair, so the table is read and its first failing draw
# named.  The row A·A⁻¹ (B = A) is read only by E(A,A⁻¹) = E(A⁻¹,A), and
# the hull A⁻¹A·X of the left cover X of B only by cover-containment.
P35, DENSE = "geometric_progression(3,5)", "random_dense(density=1/5;seed=23)"


@pytest.mark.parametrize("name, la, lb, row, failed, note", [
    ("ruzsa-axioms", P35, DENSE, "A*B^-1",
     {"triangle-cleared", "symmetry", "nonnegativity", "left-invariance"},
     f"triangle fails at ({P35},{DENSE},random#1)"),
    ("energy-identities", P35, DENSE, "A*B",
     {"energy-lower", "quadruple-brute-agreement"},
     f"lower bound fails at ({P35},{DENSE})"),
    ("covering", DENSE, "random#1", "A*B",
     {"cover-count"}, f"count fails at ({DENSE},random#1,left)"),
    ("energy-identities", P35, DENSE, "A*B piled",
     {"energy-upper", "quadruple-brute-agreement"},
     f"upper bound fails at ({P35},{DENSE})"),
    ("energy-identities", P35, P35, "A*B^-1",
     {"left-right-energy-equal"}, f"E(A,A^-1) != E(A^-1,A) at {P35}"),
    ("covering", DENSE, "random#1", "A^-1A*X",
     {"cover-containment"}, f"containment fails at ({DENSE},random#1,left)"),
])
@pytest.mark.parametrize("chunk", [suites.DRAW_CHUNK, 3])
def test_a_planted_table_entry_fails_its_row_at_the_first_failing_draw(
        name, la, lb, row, failed, note, chunk, monkeypatch):
    # at 3 draws a chunk, the first failing draw sits in a later pool table
    monkeypatch.setattr(suites, "DRAW_CHUNK", chunk)
    target = []
    real_pool, real_counts = suites._pool, suites._pair_counts

    def recording(*args, **kwargs):
        pool = real_pool(*args, **kwargs)
        a, b = dict(pool)[la], dict(pool)[lb]
        operands = {"A*B": (a, b), "A*B piled": (a, b),
                    "A*B^-1": (a, inverse_set(b)),
                    "A^-1A*X": (product_set(inverse_set(a), a),
                                ruzsa_cover(a, b, "left"))}[row]
        target.append(tuple(x.ids() for x in operands))
        return pool

    def planted(g, pairs):
        for rows, counts in real_counts(g, pairs):
            for r, (xs, ys) in enumerate(pairs[rows]):
                if (tuple(sorted(xs)), tuple(sorted(ys))) == target[0]:
                    load = counts[r].sum() if row.endswith("piled") else 1
                    counts[r] = 0
                    counts[r, 0] = load
            yield rows, counts

    monkeypatch.setattr(suites, "_pool", recording)
    monkeypatch.setattr(suites, "_pair_counts", planted)
    job = replace(default_job(name), groups=("cyclic(60)",))
    report = run_suite(SuiteConfig(jobs=(job,)))
    assert {r.name for r in report.hard_failures()} == failed
    (info,) = [r.row for r in report.rows if r.row.kind == "info"]
    assert info.note == note


def _pool_labels(monkeypatch, job):
    """The labels of each group's pool when run_suite runs the job."""
    pools = {}
    real = suites._pool

    def recording(job, report, module, group_spec, g, **kwargs):
        pool = real(job, report, module, group_spec, g, **kwargs)
        pools[group_spec] = [label for label, _ in pool]
        return pool

    monkeypatch.setattr(suites, "_pool", recording)
    run_suite(SuiteConfig(jobs=(job,)))
    return pools


def test_config_job_with_groups_takes_the_default_families(monkeypatch):
    job, = parse_suite_config(
        "[suite]\nname = covering\ngroups = cyclic(60)\n").jobs
    assert job.families == ()
    families = list(default_job("covering").families)
    assert len(families) == 6
    pools = _pool_labels(monkeypatch, job)
    assert list(pools) == ["cyclic(60)"]
    assert pools["cyclic(60)"][:6] == families
    default = _pool_labels(monkeypatch, default_job("covering"))
    assert pools["cyclic(60)"] == default["cyclic(60)"]


def test_config_job_without_groups_keeps_its_families(monkeypatch):
    # subgroup(2) is skipped in the groups of odd order
    job, = parse_suite_config(
        "[suite]\nname = covering\nfamilies = subgroup(2)\n").jobs
    pools = _pool_labels(monkeypatch, job)
    assert list(pools) == list(default_job("covering").groups)
    labels = [label for pool in pools.values() for label in pool]
    assert "subgroup(2)" in labels
    assert all(label == "subgroup(2)" or label.startswith("random#")
               for label in labels)


def test_run_named_covering_suite():
    rep = run_named_suite("covering")
    assert rep.exit_code() == 0
    assert not rep.hard_failures()
    assert rep.summary()["hard"] >= 12


def ref_coset_union_scan(g):
    """The unions H u xH the coset-union scan tests, in order, as
    (H, union) pairs, by the loop that scanned every generator and every x."""
    scanned = []
    for gen in range(1, min(g.order, 16)):
        sub = subgroup_closure(g, [gen])
        if not 1 < len(sub) <= g.order // 3:
            continue
        h = sub
        for x in range(1, min(g.order, 48)):
            if x in sub:
                continue
            a = h.union(translate_left(x, h))
            scanned.append((sub, a))
            if product_set(a, inverse_set(a)).size != \
                    product_set(inverse_set(a), a).size:
                return scanned, a
    return scanned, None


# symmetric(4) meets one subgroup from gens 8 and 12, cyclic(60) from 3 and
# 9, and the direct products from several generators each
@pytest.mark.parametrize("spec", [
    "symmetric(4)", "cyclic(60)",
    "direct_product(cyclic(4),cyclic(9))",
    "direct_product(dihedral(4),cyclic(3))"])
def test_coset_union_scan_skips_only_what_it_already_scanned(spec, monkeypatch):
    g = construct_group(spec)
    scanned, expected = ref_coset_union_scan(g)
    tested = []

    def recorded(a):
        tested.append(a)
        return inverse_set(a)

    monkeypatch.setattr(suites, "inverse_set", recorded)
    assert suites._asymmetric_coset_union(g) == expected
    # each (H, H u xH) once, first occurrences in the reference order
    first = list(dict.fromkeys(scanned))
    assert tested == [a for _, a in first]
    assert len(first) < len(scanned)


# -------------------------------------------------------------- emission

def test_emit_empty_report(tmp_path):
    rep = Report("empty-demo")
    (path,) = emit_report(rep, format="csv", out=str(tmp_path))
    lines = open(path).read().splitlines()
    assert lines == [",".join(CSV_HEADER)]


def test_emit_single_row_exact_integers(tmp_path):
    rep = Report("single-demo")
    big = 3**300
    rep.add("m", "op", "row", "hard", lhs=big, rel="<=", rhs=big + 1,
            passed=True)
    csv_path, json_path = emit_report(rep, format="both", out=str(tmp_path))
    text = open(csv_path).read()
    assert str(big) in text
    data = json.loads(open(json_path).read())
    assert data["rows"][0]["lhs"] == str(big)
    assert data["summary"]["hard"] == 1


def test_emission_is_byte_stable(tmp_path):
    job = default_job("covering")
    rep1 = run_suite(SuiteConfig(jobs=(job,)))
    rep2 = run_suite(SuiteConfig(jobs=(job,)))
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    paths1 = emit_report(rep1, format="both", out=d1)
    paths2 = emit_report(rep2, format="both", out=d2)
    for p1, p2 in zip(paths1, paths2):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def _buffered_payloads(rep):
    """The report's CSV and JSON as whole strings, built the way the writers
    built them before they streamed: the oracle of the streamed files."""
    cells = [r.cells() for r in rep.sorted_rows()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(cells)
    obj = {"title": rep.title, "summary": rep.summary(),
           "rows": [dict(zip(CSV_HEADER, c)) for c in cells]}
    return buf.getvalue(), json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _small_report():
    rep = Report("small-demo")
    rep.add("m", "op-b", "exact", "hard", lhs=Fraction(7, 3), rel="<=",
            rhs=3**90, passed=True, note="a, b")
    rep.add("m", "op-a", "miss", "soft", lhs=0.1, rel=">", rhs=True,
            passed=False)
    rep.add("a", "op", "measured", "info", lhs=None, note="line\nbreak")
    rep.merge_ledger("z", "op", _failing_ledger())
    return rep


def _quoted_report():
    rep = Report("Quoted \"naïve\" demo")
    rep.add("m", "op[é]", 'say "ε"', "hard", lhs=1, rel="<=", rhs=2,
            passed=True, note='ε-net "tight", \\ back; tab\tend \u2264')
    return rep


@pytest.mark.parametrize("make", [
    _small_report, lambda: Report("empty-demo"), _quoted_report,
    lambda: run_named_suite("covering"),
], ids=["small", "empty", "quoted", "covering"])
def test_streamed_writers_match_the_buffered_writers(make, tmp_path):
    rep = make()
    csv_path, json_path = emit_report(rep, format="both", out=str(tmp_path))
    want_csv, want_json = _buffered_payloads(rep)
    assert open(csv_path, "rb").read() == want_csv.encode("utf-8")
    assert open(json_path, "rb").read() == want_json.encode("utf-8")
    (single,) = emit_report(rep, format="json", out=str(tmp_path / "one"))
    assert open(single, "rb").read() == want_json.encode("utf-8")


_csv_texts = st.builds(
    lambda pad, text: " " * pad + text, st.integers(0, 2),
    st.text(st.one_of(st.sampled_from(',"\n\r'),
                      st.characters(exclude_categories=("Cs",))), max_size=8))
_csv_rows = st.tuples(_csv_texts, _csv_texts, st.integers(0, 10**6),
                      *[_csv_texts] * 7)


@settings(max_examples=200, deadline=None)
@given(st.lists(_csv_rows, max_size=4))
def test_csv_lines_match_csv_writer(rows):
    # the template quotes a cell iff it holds a comma, a quote or a newline:
    # a lone carriage return stays bare, as csv.writer leaves it
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    got = io.StringIO()
    out = suites._CsvRows(got, Report("csv-demo"))
    for row in rows:
        out.writerow(row)
    assert got.getvalue() == want.getvalue()


def test_emit_both_memory_does_not_hold_the_files(tmp_path):
    # the default suite-all report writes 4.8 MB of CSV and 10.3 MB of
    # JSON, and the buffered writers peaked at 89 MB; the streamed writers
    # keep one rendered row at a time, so the peak is the sort of the rows
    rep = run_suite(default_config())
    assert rep.title == "suite-all" and len(rep.rows) > 30_000
    tracemalloc.start()
    try:
        csv_path, json_path = emit_report(rep, format="both", out=str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(json_path) > 8 * 2**20
    assert peak < 8 * 2**20


def _peak_rss(*argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    done = subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True)
    return done.returncode, json.loads(done.stderr.splitlines()[0])


def test_peak_rss_wrapper_gates_on_the_ceiling():
    # the ceiling the CI digest step runs `suite run --format both` under
    code, stats = _peak_rss("--max-mb", "1000", "--", sys.executable, "-c", "")
    assert code == 0 and 1 < stats["peak_rss_mb"] < 1000
    code, stats = _peak_rss("--max-mb", "1", "--", sys.executable, "-c", "")
    assert code == 1 and stats["returncode"] == 0
    code, stats = _peak_rss("--", sys.executable, "-c", "raise SystemExit(3)")
    assert code == 3 and stats["returncode"] == 3


# Every pinned output is stated once, in pins.json, and checked by the
# runner of scripts/pins.py (docs/formats.md, "Pinned outputs").
_spec = importlib.util.spec_from_file_location(
    "pins", Path(__file__).resolve().parents[1] / "scripts" / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)
PINS = pins.load()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_digest_is_pinned(name):
    entries = [pin for pin in PINS if pin["argv"] == ["verify", name]]
    assert list(pins.check(entries)) == [f"ok verify-{name}"]


def test_every_pin_beyond_the_suites_holds():
    entries = [pin for pin in PINS if pin["argv"][0] != "verify"]
    assert len(entries) + len(SUITE_NAMES) == len(PINS)
    assert list(pins.check(entries)) == [f"ok {pin['name']}" for pin in entries]


def test_a_wrong_pin_is_named_with_the_digest_it_got(monkeypatch):
    # head_diff has its own tests; outside a git checkout it would add a
    # "no row diff" line under the MISMATCH
    monkeypatch.setattr(pins, "head_diff", lambda argv, output, path: iter(()))
    (pin,) = [pin for pin in PINS if pin["name"] == "sweep-torus1"]
    assert list(pins.check([dict(pin, sha256="0" * 64)])) == [
        f"MISMATCH sweep-torus1: got {pin['sha256']}, exit 0"]


def test_the_benchmark_reference_is_the_suite_all_pin():
    reference = json.loads((pins.ROOT / "perfbench" / "reference.json").read_text())
    assert pins.reference_mismatch(PINS, reference) is None
    reference["digests"]["suite-default"] = "0" * 64
    assert pins.reference_mismatch(PINS, reference).startswith(
        f"MISMATCH perfbench/reference.json: suite-default is {'0' * 64}, ")


def _script(name: str):
    """A module loaded from a file of the repository by its path."""
    spec = importlib.util.spec_from_file_location(
        Path(name).stem, pins.ROOT / name)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rowdiff = _script("scripts/rowdiff.py")


def test_rowdiff_prints_exactly_the_rows_that_differ(tmp_path, capsys):
    (old,) = emit_report(run_named_suite("splitting"), format="csv",
                         out=str(tmp_path))
    with open(old, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_HEADER) and len(rows) > 100
    planted, dropped = rows[100], rows[200]
    was = planted[5]
    planted[5] = f"{was}0"                                  # its lhs
    new = tmp_path / "new.csv"
    with open(new, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            r for r in rows if r is not dropped)
    assert rowdiff.main([old, old]) == 0
    assert capsys.readouterr().out == ""
    assert rowdiff.main([old, str(new)]) == 1
    key, gone = (rowdiff._cells(r) for r in (planted[:4], dropped))
    # the file is in key order, so the planted row comes first
    assert capsys.readouterr().out == (
        f"~ {key} | lhs: {was} -> {was}0\n- {gone}\n")
    assert rowdiff.main([str(new), old]) == 1
    assert capsys.readouterr().out.splitlines()[1] == f"+ {gone}"


def test_a_mismatching_csv_pin_prints_the_rows_that_moved_since_head(tmp_path):
    # a git repository of copies of src/, scripts/ and pins.json, one note of
    # the splitting suite edited after its commit; the copy's runner, in a
    # fresh interpreter on the copy's src/, prints the MISMATCH line and
    # under it exactly the rows whose note changed, against HEAD's build
    for name in ("src", "scripts"):
        shutil.copytree(pins.ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(pins.ROOT / "pins.json", tmp_path)
    git = ["git", "-C", str(tmp_path), "-c", "user.name=pins",
           "-c", "user.email=pins@localhost", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "copy"]):
        subprocess.run(git + args, check=True, capture_output=True)
    was = "B1 = B2 = B3 = A n H = exact B on subgroups"
    now = "B1 = B2 = B3 = A n H = exact B on each subgroup"
    source = tmp_path / "src" / "setgrowth" / "suites.py"
    text = source.read_text(encoding="utf-8")
    assert text.count(was) == 1
    source.write_text(text.replace(was, now), encoding="utf-8")
    code = ("import sys; sys.path.insert(0, 'scripts'); import pins; print(*pins.check("
            "[p for p in pins.load() if p['name'] == 'verify-splitting']), sep='\\n')")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")))
    first, *rest = done.stdout.splitlines()
    assert first.startswith("MISMATCH verify-splitting: got ")
    assert first.endswith(", exit 0")
    (path,) = emit_report(run_named_suite("splitting"), format="csv",
                          out=str(tmp_path / "out"))
    rows = [row for row in rowdiff.read(path).values()
            if row["name"] == "exact-approx-agreement" and row["note"] == was]
    rows.sort(key=lambda r: (r["module"], r["operation"], int(r["seq"])))
    assert len(rows) > 5
    assert rest == [f"    ~ {rowdiff._cells(row[c] for c in rowdiff.KEY)} | "
                    f"note: {was} -> {now}" for row in rows]


def test_a_row_diff_with_no_head_says_so_in_one_line(tmp_path, monkeypatch):
    # a repository with no commit, or no git at all
    with contextlib.suppress(OSError):
        subprocess.run(["git", "init", "-q", str(tmp_path)], capture_output=True)
    monkeypatch.setattr(pins, "ROOT", tmp_path)
    assert list(pins.head_diff(["verify", "splitting"], "suite-splitting.csv",
                               tmp_path / "suite-splitting.csv")) == [
        "no row diff: no git, or no HEAD to rebuild the output from"]


# The other three benchmark workloads, whose reports no pin holds, against
# the digests of perfbench/reference.json (suite-default is the
# suite-all.csv pin), each run in process at the reference seed
workloads = _script("perfbench/workloads.py")


@pytest.mark.parametrize("name", ["heisenberg-p7", "sl2-classify", "bsg-large"])
def test_benchmark_report_matches_its_reference(name, tmp_path):
    reference = json.loads((pins.ROOT / "perfbench" / "reference.json").read_text())
    workload = workloads.WORKLOADS[name]
    report = workload.verify(workload.setup(reference["seed"]),
                             lambda part: contextlib.nullcontext(), lambda: None)
    (path,) = emit_report(report, format="csv", out=str(tmp_path))
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert digest == reference["digests"][name]


# scripts/traffic.py lists the lines of the package that no pin and no other
# workload reaches; its collector here runs one pin only
traffic = _script("scripts/traffic.py")


def test_traffic_lists_the_steps_no_run_reaches():
    # the energy-equivalence suite walks from clause i, so it runs step
    # i→iii, and no suite calls ruzsa_cover: only perfbench's tracer does
    (pin,) = [p for p in PINS if p["name"] == "verify-energy-equivalence"]
    unreached = traffic.unreached(
        traffic.collect(lambda: list(pins.check([pin]))))

    def listed(module):
        return {n for first, last in unreached.get(module, ())
                for n in range(first, last + 1)}

    def body(function):
        lines, start = inspect.getsourcelines(function)
        return set(range(start + 1, start + len(lines)))

    assert body(ruzsa_cover) <= listed("structure.py")
    assert not body(bsg._step_i_iii) & listed("bsg.py")


@pytest.mark.parametrize("path", ["law-only", "eager-tables"])
def test_pinned_digests_do_not_depend_on_the_product_path(path, monkeypatch):
    # the whole-run differential over every pin, from fresh groups: every
    # product on the law with every blocked sweep split at 97 products, or
    # every group's table built as soon as construct_group interns it
    monkeypatch.setattr(groups, "_GROUPS", {})
    if path == "law-only":
        monkeypatch.setattr(groups, "TABLE_CAP", 0)
        monkeypatch.setattr(groups, "BLOCK_PAIRS", 97)
    else:
        interned = groups._interned

        def eager(key):
            fresh = key not in groups._GROUPS
            g = interned(key)
            if fresh:
                g.table()
            return g

        monkeypatch.setattr(groups, "_interned", eager)
    assert list(pins.check(PINS)) == [f"ok {pin['name']}" for pin in PINS]
    tabled = [g._table is not None for g in groups._GROUPS.values()
              if g.order <= groups.TABLE_CAP]
    assert len(groups._GROUPS) > 10
    assert all(tabled) if path == "eager-tables" else not any(tabled)


def test_cited_docs_exist():
    root = Path(__file__).resolve().parents[1]
    sources = [*root.glob("src/**/*.py"), *root.glob("tests/*.py")]
    cited = {m for path in sources
             for m in re.findall(r"docs/[\w.-]+\.md", path.read_text())}
    assert cited, "no docs citations found under src/ and tests/"
    assert sorted(c for c in cited if not (root / c).is_file()) == []


# ------------------------------------------------------------------- cli

def test_cli_group_info(capsys):
    assert cli.main(["group", "info", "cyclic(12)"]) == 0
    out = capsys.readouterr().out
    assert "order" in out and "12" in out


def test_cli_group_info_bad_spec(capsys):
    assert cli.main(["group", "info", "cyclic(0)"]) == 1
    assert capsys.readouterr().err


def test_cli_set_gen(capsys):
    assert cli.main(["set", "gen", "cyclic(12)", "subgroup(4)"]) == 0
    out = capsys.readouterr().out
    assert "0" in out and "4" in out and "8" in out


def test_cli_set_gen_seed_changes_random_dense(capsys):
    assert cli.main(["--seed", "3", "set", "gen", "cyclic(40)",
                     "random_dense(density=1/2;seed=1)"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["--seed", "4", "set", "gen", "cyclic(40)",
                     "random_dense(density=1/2;seed=1)"]) == 0
    second = capsys.readouterr().out
    assert first != second


def test_cli_verify_unknown_suite(capsys):
    assert cli.main(["verify", "mystery"]) == 2
    assert capsys.readouterr().err


def test_cli_verify_covering(capsys):
    assert cli.main(["verify", "covering"]) == 0
    out = capsys.readouterr().out
    assert "hard" in out


@pytest.mark.parametrize("name", ["covering", "bsg"])
def test_cli_verify_prints_the_csv_cells(capsys, tmp_path, name):
    # covering rows are bare claims; bsg rows carry exact sides and a rel
    assert cli.main(["verify", name, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    with open(tmp_path / f"suite-{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = [f"[{r['status']}] {r['module']}/{r['operation']}: {r['name']}"
            + (f" [{r['lhs']} {r['rel']} {r['rhs']}]" if r["rel"] else "")
            for r in rows]
    assert rows and out[:len(rows)] == want


def test_cli_verify_out_renders_each_row_once(capsys, render_calls, tmp_path):
    assert cli.main(["verify", "covering", "--out", str(tmp_path),
                     "--format", "both"]) == 0
    capsys.readouterr()
    with open(tmp_path / "suite-covering.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # two sides per row, for the printed lines and both files together
    assert rows and len(render_calls) == 2 * len(rows)


def test_cli_suite_run_prints_failing_cells(capsys, monkeypatch):
    rep = Report("suite-demo")
    rep.add("m", "op", "bad", "hard", lhs=Fraction(5, 2), rel="<=", rhs=2,
            passed=False)
    monkeypatch.setattr(cli, "run_suite", lambda config: rep)
    assert cli.main(["suite", "run"]) == 1
    assert "  FAIL m/op: bad [5/2 <= 2]" in capsys.readouterr().out.splitlines()


def test_cli_bsg_run_worked_instance(capsys):
    code = cli.main(["bsg", "run", "--group", "cyclic(16)",
                     "--set", "geometric_progression(1,4)", "--infer-k",
                     "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "|C| = 5" in out
    assert "|A'''·B'''| = 7" in out


def test_cli_bsg_run_writes_report(tmp_path, capsys):
    code = cli.main(["bsg", "run", "--group", "cyclic(16)",
                     "--set", "geometric_progression(1,4)", "--infer-k",
                     "--out", str(tmp_path), "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    files = os.listdir(tmp_path)
    assert any(f.endswith(".csv") for f in files)


def test_cli_heisen_run(capsys):
    code = cli.main(["heisen", "run", "--group",
                     "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
                     "--set", "subgroup(1)", "--infer-k"])
    capsys.readouterr()
    assert code == 0


def test_cli_heisen_rejects_plain_group(capsys):
    code = cli.main(["heisen", "run", "--group", "cyclic(12)",
                     "--set", "subgroup(4)", "--infer-k"])
    assert code == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bsg", "run", "--group", "cyclic(16)",
     "--set", "geometric_progression(1,4)"],
    ["heisen", "run", "--group",
     "heisenberg(z=Zp^2,p=3;w=Zp^1,p=3;pairing=symplectic)",
     "--set", "subgroup(1)"],
])
def test_cli_k_and_infer_k_are_exclusive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--k", "2", "--infer-k"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_entropy_sweep_word_carrier(capsys):
    code = cli.main(["entropy", "sweep", "--carrier", "word:cyclic(30):1,7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sandwich" in out or "hard" in out


def test_cli_suite_run_with_config(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("""
    out = {0}
    [suite]
    name = covering
    groups = cyclic(24)
    families = subgroup(2); coset(2;1)
    count = 2
    """.format(tmp_path / "reports"))
    code = cli.main(["suite", "run", "--config", str(cfg), "--format", "both"])
    capsys.readouterr()
    assert code == 0
    files = os.listdir(tmp_path / "reports")
    assert any(f.endswith(".csv") for f in files)
    assert any(f.endswith(".json") for f in files)
