"""Cold import: the package root loads no submodule, a submodule loads only
what it imports, and importing the constants runs no fixpoint.  And no
library API without a library caller: every function, class and method
under src/setgrowth/ is named by library code outside its own body.

Each check runs in a fresh interpreter, on the setgrowth package these
tests import.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import setgrowth

_PACKAGE_PARENT = str(Path(setgrowth.__file__).resolve().parent.parent)


def _run(code: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports this setgrowth."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (_PACKAGE_PARENT, path))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _loaded_after(statement: str) -> set[str]:
    out = _run(f"{statement}\nimport sys\n"
               "print(*(m for m in sys.modules if m.startswith('setgrowth.')))")
    return set(out.split())


def _modules(*names: str) -> set[str]:
    return {f"setgrowth.{name}" for name in names}


@pytest.mark.parametrize("statement, loaded", [
    ("import setgrowth", set()),
    ("import setgrowth.structure",
     _modules("constants", "exact", "groups", "setops", "structure")),
    # every module but the cli: perfbench's tracer wraps the entropy layer
    # after importing setgrowth.suites and the workloads' own imports
    ("import setgrowth.suites",
     _modules("bsg", "constants", "entropy", "exact", "families", "groups",
              "heisenberg", "setops", "structure", "suites")),
])
def test_import_loads_only_what_it_reaches(statement, loaded):
    assert _loaded_after(statement) == loaded


def test_constants_import_runs_no_fixpoint():
    # the fixpoint lives in scripts/derive_constants.py; the module body
    # reads its frozen tables and calls positive_power_exponent, nothing more
    out = _run(
        "import sys\n"
        "calls = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_filename.endswith("
        "'constants.py'):\n"
        "        calls.add(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import setgrowth.constants\n"
        "sys.setprofile(None)\n"
        "print(*sorted(calls))\n")
    calls = set(out.split())
    assert "<module>" in calls  # the profile saw the module body run
    assert calls <= {"<module>", "<dictcomp>", "positive_power_exponent"}


def _unreferenced(src: Path, exempt: set[str]) -> list[str]:
    """module.qualname of every function, class and method under src that
    no library code outside its own body names, as a Name or an attribute;
    dunders and the exempt module.name pairs excepted."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    total = sum((names(tree) for tree in trees.values()), Counter())
    found = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                own = names(child)[name]
                dunder = name.startswith("__") and name.endswith("__")
                if (not dunder and total[name] == own
                        and f"{module}.{name}" not in exempt):
                    found.append(f"{module}.{prefix}{name}")
                visit(module, child, f"{prefix}{name}.")
            else:
                visit(module, child, prefix)

    for module, tree in trees.items():
        visit(module, tree, "")
    return found


def _traced_layers() -> set[str]:
    """module.name of each function perfbench/tracer.py's LAYERS wraps."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS":
            layers = ast.literal_eval(node.value)
            return {f"{m}.{name}" for m, names in layers.items() for name in names}
    raise AssertionError("perfbench/tracer.py has no LAYERS")


def test_every_definition_has_a_library_caller():
    # API that only tests or tools call lives next to them, not under src/;
    # only the functions perfbench's tracer wraps may wait for it alone
    src = Path(setgrowth.__file__).resolve().parent
    assert _unreferenced(src, _traced_layers()) == []
