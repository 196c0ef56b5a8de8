"""Span tracing of ``setgrowth`` from outside the package.

``Tracer.install`` wraps each function in LAYERS in every namespace that
bound it (the package modules import with ``from .x import y``, so one
function can live under several module names).  Every call records a
span (name, start, end, parent) in flat in-memory arrays; a function's
self time is its span time minus the time of the spans opened inside it.
Per-element methods (``mul``, ``inv``) are not wrapped: pair counts come
from argument sizes instead, through the COUNTERS hooks.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import setgrowth  # noqa: F401  (loads every submodule)
from setgrowth.groups import FiniteGroup
from setgrowth.suites import SUITE_NAMES

# Layer name -> traced public functions of that setgrowth module.
LAYERS = {
    "groups": ("construct_group", "verify_group_axioms", "row"),
    "heisenberg": ("build_heisenberg", "heisen_inverse", "split_approximate",
                   "verify_inverse_converse"),
    "setops": ("product_set", "convolution", "translate_left",
               "translate_right", "inverse_set", "power_set"),
    "structure": ("ruzsa_cover", "symmetric_core", "approx_group_from_tripling",
                  "classify_small_doubling", "tripling_chain",
                  "local_tripling_check"),
    "bsg": ("weak_bsg", "bsg_extract", "energy_equivalences"),
    "entropy": ("covering_number", "separated_set", "approx_energy",
                "metric_profile_check", "entropy_tripling_check"),
    "families": ("generate_set",),
    "suites": ("emit_report",),
}

# Work counters taken from arguments and results: (args, result) -> {key: n}.
COUNTERS = {
    "setops.product_set": lambda args, out: {
        "pairs": args[0].size * args[1].size, "distinct": out.size},
    "setops.convolution": lambda args, out: {
        "pairs": args[0].size * args[1].size},
    "entropy.covering_number": lambda args, out: {
        "points": len(args[0]), "kept": out.count},
    "entropy.approx_energy": lambda args, out: {
        "pairs": len(args[0]) * len(args[1])},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                for key, n in count(args, out).items():
                    self.counters[f"{name}.{key}"] += n
            return out

        return traced

    def install(self, namespaces=()) -> None:
        """Wrap every LAYERS function wherever it is bound: in each loaded
        ``setgrowth`` module and in the given extra namespaces."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "setgrowth" or n.startswith("setgrowth.")]
        modules += list(namespaces)
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"setgrowth.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                if layer == "groups" and func == "row":
                    FiniteGroup.row = self._wrap(name, FiniteGroup.row)
                    continue
                original = getattr(home, func)
                traced = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced function, the work counters
        and their ratios, and per-suite wall time; every name is present
        (zero when the workload never reached it)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wall_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            wall_s[name] += dur[i]
        out: dict[str, float] = {}
        for layer, funcs in LAYERS.items():
            for func in funcs:
                name = f"{layer}.{func}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        c = self.counters
        out["setops.product_set.pairs"] = c["setops.product_set.pairs"]
        out["setops.product_set.distinct_ratio"] = _ratio(
            c["setops.product_set.distinct"], c["setops.product_set.pairs"])
        out["setops.convolution.pairs"] = c["setops.convolution.pairs"]
        out["entropy.covering_number.points"] = c["entropy.covering_number.points"]
        out["entropy.covering_number.kept_ratio"] = _ratio(
            c["entropy.covering_number.kept"], c["entropy.covering_number.points"])
        out["entropy.approx_energy.pairs"] = c["entropy.approx_energy.pairs"]
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.wall_s"] = wall_s[f"suites.{suite}"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start", "end", "parent"))
            for i in range(len(self.start)):
                writer.writerow((i, self.names[self.name_of[i]],
                                 "%.9f" % self.start[i], "%.9f" % self.end[i],
                                 self.parent[i]))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
