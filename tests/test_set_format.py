"""Only setops knows that an MSet is an int bitset: every other module
builds sets with the named constructors and reads them through ids,
id_array, member_mask and membership, so the stored format is a change to
one module."""

import ast
from pathlib import Path

import pytest

import setgrowth

SRC = Path(setgrowth.__file__).resolve().parent
FORMAT_NAMES = {"bits", "_mask_bits", "_product_bits", "intersect_bits",
                "member_bits"}


def format_uses(path: Path) -> list[tuple[int, str]]:
    """(line, what) for each place the module reads or builds the format:
    a .bits attribute, a direct MSet(...) call, or a name of the bitset
    helpers, used, imported or defined."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in FORMAT_NAMES - {"bits"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name in FORMAT_NAMES]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in FORMAT_NAMES:
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MSet":
                found.append((node.lineno, "MSet(...)"))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "setops.py"))
def test_only_setops_reads_or_builds_the_set_format(module):
    assert format_uses(SRC / module) == []


def test_the_scan_sees_each_kind_of_use(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .setops import MSet, _mask_bits\n"
        "def member_bits(view):\n"
        "    return view.bits\n"
        "a = MSet(g, 3)\n"
        "b = setops.MSet(g, 1)\n"
        "c = _product_bits(g, xs, ys)\n"
        "d = a.intersect_bits(5)\n"
        "e = MSet.from_ids(g, [1])\n"
        "bits = 0\n")
    assert format_uses(src) == [
        (1, "import _mask_bits"), (2, "def member_bits"), (3, ".bits"),
        (4, "MSet(...)"), (5, "MSet(...)"), (6, "_product_bits"),
        (7, ".intersect_bits")]
