"""Cold import: the package root loads no submodule, a submodule loads only
what it imports, and importing the constants runs no fixpoint.  And no
library API without a library caller: every function, class and method
under src/setgrowth/ is named by library code outside its own body.  And
no option with one value in use: some library call sets each defaulted
parameter.

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


def _unset_defaults(src: Path, exempt: set[str]) -> list[str]:
    """name.parameter of every defaulted parameter of a function or method
    under src that no library call of that name passes, by position,
    keyword, * or **; functions with no library call, and the exempt
    name.parameter pairs, excepted.  A call is matched by name, as a Name
    or an attribute, outside the function's own body; a class call
    matches its __init__, and a method's self takes no argument."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def passed(call, args, offset) -> set[str]:
        positional = [a.arg for a in args.posonlyargs + args.args]
        if any(kw.arg is None for kw in call.keywords):     # **mapping
            return set(positional) | {a.arg for a in args.kwonlyargs}
        if any(isinstance(a, ast.Starred) for a in call.args):
            named = set(positional)
        else:
            named = set(positional[:offset + len(call.args)])
        return named | {kw.arg for kw in call.keywords}

    found = []
    for tree in trees:
        for parent in ast.walk(tree):
            for fn in ast.iter_child_nodes(parent):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults) if d]
                method = isinstance(parent, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list)
                name = parent.name if method and fn.name == "__init__" else fn.name
                own = {id(n) for n in ast.walk(fn)}
                mine = [c for c in calls if callee(c) == name and id(c) not in own]
                if not mine:
                    continue
                set_somewhere = set().union(*(passed(c, args, int(method))
                                              for c in mine))
                found += [f"{fn.name}.{p}" for p in defaulted
                          if p not in set_somewhere
                          and f"{fn.name}.{p}" not in exempt]
    return found


def test_every_default_is_set_by_a_library_caller():
    # a parameter that every library call leaves at its default is a
    # constant; cli.main's argv comes from the command line, not a caller
    src = Path(setgrowth.__file__).resolve().parent
    assert _unset_defaults(src, {"main.argv"}) == []
