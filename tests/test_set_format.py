"""Only setops knows that an MSet stores a boolean mask: every other module
builds sets with the named constructors and reads them through ids,
id_array, member_mask and membership, so the stored format is a change to
one module.  The tests keep to the same surface, except test_setops, which
checks the constructor itself: no test reads the stored attribute or calls
MSet(...) directly."""

import ast
from pathlib import Path

import pytest

import setgrowth

SRC = Path(setgrowth.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
# the stored attribute, and the int-bitset one, so that it does not return
STORED = {"_mask", "bits"}
FORMAT_NAMES = STORED | {"_product_mask"}


def format_uses(path: Path, names=FORMAT_NAMES) -> list[tuple[int, str]]:
    """(line, what) for each place the module reads or builds the format:
    an attribute in names, a direct MSet(...) call, or a name of the
    format helpers in names, used, imported or defined."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in names - STORED:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name in names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in names:
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


# a test may still monkeypatch setops' private kernels to count calls
@pytest.mark.parametrize("module", sorted(
    path.name for path in TESTS.glob("*.py")
    if path.name not in {"test_setops.py", Path(__file__).name}))
def test_no_test_reads_the_stored_set_or_calls_the_constructor(module):
    assert format_uses(TESTS / module, STORED) == []


def test_the_scan_sees_each_kind_of_use(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .setops import MSet, _product_mask\n"
        "def _product_mask(view):\n"
        "    return view._mask\n"
        "a = MSet(g, mask)\n"
        "b = setops.MSet(g, mask)\n"
        "c = _product_mask(g, xs, ys)\n"
        "d = a.bits\n"
        "e = MSet.from_ids(g, [1])\n"
        "f = setops._product_mask\n"
        "bits = _mask = 0\n")
    assert format_uses(src) == [
        (1, "import _product_mask"), (2, "def _product_mask"), (3, "._mask"),
        (4, "MSet(...)"), (5, "MSet(...)"), (6, "_product_mask"),
        (7, ".bits"), (9, "._product_mask")]
    assert format_uses(src, STORED) == [
        (3, "._mask"), (4, "MSet(...)"), (5, "MSet(...)"), (7, ".bits")]


# the per-module sweep helpers that groups._grid and groups._first replaced
DELETED_SWEEPS = {"_conjugation_blocks", "_grid_blocks", "_first_failure",
                  "_require_subgroup", "_is_subgroup"}


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_only_groups_enumerates_a_sweep_grid(module):
    names = DELETED_SWEEPS | ({"unravel_index"} if module != "groups.py" else set())
    uses = format_uses(SRC / module, names)
    assert [use for use in uses if use[1] != "MSet(...)"] == []


# a subgroup is an MSet and a normal subgroup is its groups.QuotientGroup,
# whose kernel is H: the second subgroup format does not return
SECOND_FORMAT = {"frozenset", "NormalSubgroupView"}


def second_format_uses(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each name, attribute, import or definition in
    SECOND_FORMAT."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted((getattr(node, "lineno", 0), name) for node in ast.walk(tree)
                  for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                               or getattr(node, "name", None)]
                  if name in SECOND_FORMAT)


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_a_subgroup_has_one_format(module):
    assert second_format_uses(SRC / module) == []
