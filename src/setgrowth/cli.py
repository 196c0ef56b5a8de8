"""Command-line front end.

Subcommands mirror the library surface: `group info`, `set gen`,
`verify <suite>`, `bsg run`, `heisen run`, `entropy sweep`, and
`suite run --config <path>`.  Reports can be written as CSV or JSON
with --out; the process exits nonzero exactly when a hard inequality
row failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import heisenberg as hb
from .bsg import bsg_extract
from .entropy import QuaternionGroup, TorusGroup, WordMetricGroup, metric_profile_check
from .exact import frac
from .families import SetFamilySpec, _ints_arg, generate_set, measured_tripling
from .groups import construct_group, verify_group_axioms
from .setops import energy
from .structure import LedgerError
from .suites import (
    DEFAULT_SEED,
    SUITE_NAMES,
    Report,
    SuiteConfig,
    default_config,
    emit_report,
    parse_suite_config,
    run_named_suite,
    run_suite,
    _emit_cells,
    _energy_k,
)


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="directory for the emitted report")
    p.add_argument("--format", default="csv", choices=("csv", "json", "both"),
                   help="report format when --out is given")


def _emit(report: Report, args, cells=None) -> None:
    """Write the report when --out is given; cells, when given, are the
    report's rows already rendered in sorted order."""
    if args.out:
        paths = (emit_report(report, args.format, args.out) if cells is None
                 else _emit_cells(report, cells, args.format, args.out))
        for path in paths:
            print(f"wrote {path}")


def _print_ledger(ledger) -> None:
    for line in ledger.lines():
        print(line)


def _load_set(group_spec: str, family_text: str, seed: int | None):
    return generate_set(SetFamilySpec.parse(group_spec, family_text), seed=seed)


def _base_seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _cmd_group_info(args) -> int:
    g = construct_group(args.group)
    stats = verify_group_axioms(g, seed=_base_seed(args))
    print(f"name:     {g.name}")
    print(f"order:    {g.order}")
    print(f"axioms:   ok ({stats['mode']}, {stats['elements']} elements, "
          f"{stats['triples']} associativity triples)")
    return 0


def _cmd_set_gen(args) -> int:
    a = _load_set(args.group, args.family, args.seed)
    print(f"size: {a.size}")
    print(" ".join(map(str, a.ids())))
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; expected one of "
              f"{', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    report = run_named_suite(args.suite, seed=_base_seed(args))
    cells = [row.cells() for row in report.sorted_rows()]
    for module, operation, _, name, _, lhs, rel, rhs, status, _ in cells:
        print(f"[{status}] {module}/{operation}: {name}"
              + (f" [{lhs} {rel} {rhs}]" if rel else ""))
    summary = report.summary()
    print(f"rows: {summary['total']}  hard failures: "
          f"{summary['hard_failures']}")
    _emit(report, args, cells)
    return report.exit_code()


def _cmd_bsg_run(args) -> int:
    seed = args.seed
    a = _load_set(args.group, args.set, seed)
    b = _load_set(args.group, args.set2, seed) if args.set2 else a
    if args.k is not None:
        k = frac(args.k)
    else:
        e_val = energy(a, b).value
        k = _energy_k(a, b, e_val)
        print(f"inferred K = {k} from E(A,B) = {e_val}")
    try:
        extract = bsg_extract(a, b, k)
    except (LedgerError, ValueError) as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return 1
    _print_ledger(extract.ledger)
    if args.trace:
        print("-- trace --")
        for line in extract.trace_lines():
            print(line)
    report = Report(title="bsg-run")
    report.merge_ledger("bsg", f"bsg_extract[{args.group}|{args.set}]",
                        extract.ledger)
    _emit(report, args)
    return 0 if extract.ledger.hard_ok else 1


def _cmd_heisen_run(args) -> int:
    a = _load_set(args.group, args.set, args.seed)
    if not isinstance(a.group, hb.HeisenbergGroup):
        print("heisen run needs a heisenberg(...) group spec", file=sys.stderr)
        return 2
    k = frac(args.k) if args.k is not None else measured_tripling(a)
    if args.k is None:
        print(f"inferred K = {k} from |A^3|/|A|")
    try:
        witness = hb.heisen_inverse(a, k)
        converse = hb.verify_inverse_converse(witness, a)
    except (LedgerError, ValueError) as exc:
        print(f"inverse step failed: {exc}", file=sys.stderr)
        return 1
    _print_ledger(witness.ledger)
    _print_ledger(converse)
    report = Report(title="heisen-run")
    report.merge_ledger("heisenberg",
                        f"heisen_inverse[{args.group}|{args.set}]",
                        witness.ledger)
    report.merge_ledger("heisenberg",
                        f"converse[{args.group}|{args.set}]", converse)
    _emit(report, args)
    return 0 if witness.ledger.hard_ok and converse.hard_ok else 1


def _entropy_carrier(text: str):
    if text in ("torus1", "torus2", "torus3"):
        return TorusGroup(int(text[-1]))
    if text == "quaternion":
        return QuaternionGroup()
    if text.startswith("word:"):
        group_spec, _, gens = text[len("word:"):].partition(":")
        if not group_spec.strip() or not gens.strip():
            raise ValueError(
                f"word carrier {text!r} is missing a part of word:<group>:<gens>")
        return WordMetricGroup(construct_group(group_spec),
                               _ints_arg(gens, "word carrier"))
    raise ValueError(
        f"unknown carrier {text!r}; use torus1|torus2|torus3|quaternion|"
        "word:<group>:<gens>")


def _cmd_entropy_sweep(args) -> int:
    try:
        carrier = _entropy_carrier(args.carrier)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    profile = metric_profile_check(carrier, seed=_base_seed(args))
    _print_ledger(profile.ledger)
    report = Report(title="entropy-sweep")
    report.merge_ledger("entropy", f"profile[{carrier.name}]", profile.ledger)
    _emit(report, args)
    return 0 if profile.hard_ok else 1


def _cmd_suite_run(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_suite_config(fh.read())
    else:
        config = default_config()
    if args.seed is not None:
        config = SuiteConfig(
            tuple(replace(j, seed=args.seed) for j in config.jobs),
            out=config.out)
    report = run_suite(config)
    summary = report.summary()
    print(f"suites: {', '.join(j.name for j in config.jobs) or '(none)'}")
    print(f"rows: {summary['total']}  hard: {summary['hard']}  "
          f"soft: {summary['soft']}  info: {summary['info']}")
    print(f"hard failures: {summary['hard_failures']}")
    for row in report.hard_failures()[:20]:
        module, operation, _, name, _, lhs, rel, rhs, _, _ = row.cells()
        print(f"  FAIL {module}/{operation}: {name} [{lhs} {rel} {rhs}]")
    out = args.out or config.out
    if out:
        for path in emit_report(report, args.format, out):
            print(f"wrote {path}")
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setgrowth",
        description="exact product-set growth toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for all randomized sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group constructions")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    p_info = group_sub.add_parser("info", help="build and audit one group")
    p_info.add_argument("group", help="group spec, e.g. cyclic(12)")
    p_info.set_defaults(func=_cmd_group_info)

    p_set = sub.add_parser("set", help="set families")
    set_sub = p_set.add_subparsers(dest="subcommand", required=True)
    p_gen = set_sub.add_parser("gen", help="realize one family")
    p_gen.add_argument("group")
    p_gen.add_argument("family", help="family text, e.g. subgroup(2)")
    p_gen.set_defaults(func=_cmd_set_gen)

    p_verify = sub.add_parser("verify", help="run one named suite")
    p_verify.add_argument("suite", help="suite name")
    _add_out_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_bsg = sub.add_parser("bsg", help="energy extraction pipeline")
    bsg_sub = p_bsg.add_subparsers(dest="subcommand", required=True)
    p_bsg_run = bsg_sub.add_parser("run", help="run the full extraction")
    p_bsg_run.add_argument("--group", required=True)
    p_bsg_run.add_argument("--set", required=True, help="family text for A")
    p_bsg_run.add_argument("--set2", help="family text for B (default: A)")
    bsg_k = p_bsg_run.add_mutually_exclusive_group()
    bsg_k.add_argument("--k", help="constant K (rational); inferred "
                                   "from the energy when omitted")
    bsg_k.add_argument("--infer-k", action="store_true",
                       help="infer K from E(A,B) (the default)")
    p_bsg_run.add_argument("--trace", action="store_true",
                           help="print per-stage pipeline rows")
    _add_out_flags(p_bsg_run)
    p_bsg_run.set_defaults(func=_cmd_bsg_run)

    p_heis = sub.add_parser("heisen", help="central-extension pipeline")
    heis_sub = p_heis.add_subparsers(dest="subcommand", required=True)
    p_heis_run = heis_sub.add_parser("run", help="abelianized inverse step")
    p_heis_run.add_argument("--group", required=True,
                            help="heisenberg(...) spec")
    p_heis_run.add_argument("--set", required=True, help="family text for A")
    heis_k = p_heis_run.add_mutually_exclusive_group()
    heis_k.add_argument("--k", help="constant K (rational); inferred "
                                    "from |A^3|/|A| when omitted")
    heis_k.add_argument("--infer-k", action="store_true",
                        help="infer K from the tripling ratio (default)")
    _add_out_flags(p_heis_run)
    p_heis_run.set_defaults(func=_cmd_heisen_run)

    p_entropy = sub.add_parser("entropy", help="metric-entropy profiles")
    entropy_sub = p_entropy.add_subparsers(dest="subcommand", required=True)
    p_sweep = entropy_sub.add_parser("sweep", help="profile one carrier")
    p_sweep.add_argument("--carrier", default="torus1",
                         help="torus1|torus2|torus3|quaternion|"
                              "word:<group>:<gens>")
    _add_out_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_entropy_sweep)

    p_suite = sub.add_parser("suite", help="configured verification runs")
    suite_sub = p_suite.add_subparsers(dest="subcommand", required=True)
    p_run = suite_sub.add_parser("run", help="run a suite config")
    p_run.add_argument("--config", help="config path (default: all suites)")
    _add_out_flags(p_run)
    p_run.set_defaults(func=_cmd_suite_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LedgerError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
