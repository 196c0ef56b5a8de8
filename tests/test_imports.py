"""Cold import: the package root loads no submodule and asks OpenBLAS for one
thread unless the caller chose a count, a submodule loads only what it
imports, importing the constants runs no fixpoint, and the report paths
never load numpy.ma.  And no library API without a library caller:
every function, class and method under src/setgrowth/ is named by library
code outside its own body.  And no option with one value in use: some
library call sets each defaulted parameter.  And no stored field without a
library reader: library code reads each record field and each attribute an
__init__ stores.

Each import check runs in a fresh interpreter, on the setgrowth package
these tests import.
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


def _run(code: str, **variables: str | None) -> str:
    """Stdout of `code` in a fresh interpreter that imports this setgrowth;
    each keyword sets that environment variable, or unsets it when None."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (_PACKAGE_PARENT, path))))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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


@pytest.mark.parametrize("preset, kept", [(None, "1"), ("3", "3")])
def test_import_keeps_openblas_to_one_thread_unless_set(preset, kept):
    # no setgrowth routine calls BLAS, so the package root asks OpenBLAS for
    # one thread before any submodule imports numpy; a preset value stays
    out = _run("import os, setgrowth\n"
               "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
               OPENBLAS_NUM_THREADS=preset)
    assert out.split() == [kept]


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


def test_report_paths_load_no_numpy_ma(tmp_path):
    # a numpy routine that imports numpy.ma (np.ma itself, or a helper that
    # reaches it, such as np.unique) cost heisenberg-p7 about 60% of its
    # verify time; one interpreter writes the default suite report and runs
    # the p=7 inverse step, and neither may load numpy.ma
    out = _run(
        "import contextlib, io, sys\n"
        "from setgrowth.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['suite', 'run', '--format', 'both', '--out', out]),\n"
        "             main(['heisen', 'run', '--group',\n"
        "                   'heisenberg(z=Zp^2,p=7;w=Zp^1,p=7;pairing=symplectic)',\n"
        "                   '--set', 'ball_in_word_metric(2;1,7)', '--out', out])]\n"
        "print(*codes, 'numpy.ma' in sys.modules)\n")
    assert out.split() == ["0", "0", "False"]


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


def _annotation(node):
    """The type an annotation gives, as the field gate models types: a
    frozenset of class names (X, m.X, "X", X | Y; a None side dropped), a
    tuple of types for tuple[X, Y], a one-item list holding the element
    type of tuple[X, ...]; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, (ast.Name, ast.Attribute)):
        return frozenset({node.id if isinstance(node, ast.Name) else node.attr})
    if isinstance(node, ast.BinOp):
        sides = [_annotation(node.left), _annotation(node.right)]
        if all(isinstance(s, frozenset) for s in sides):
            return frozenset.union(*sides) - {"None"}
        return None
    if isinstance(node, ast.Subscript) and _annotation(node.value) == {"tuple"}:
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if isinstance(args[-1], ast.Constant) and args[-1].value is Ellipsis:
            return [_annotation(args[0])]
        return tuple(_annotation(a) for a in args)
    return None


def _unread_fields(src: Path) -> list[str]:
    """module.Class.field of every field of a dataclass or NamedTuple under
    src, and every attribute an __init__ stores on self, that library code
    never reads as an attribute.  A field name that one class alone stores
    is read by any load of that attribute name.  A name that several
    classes store is read on the class of the receiver, or the base that
    stores it.  The receiver's type comes from self in a method, an
    annotated parameter, record field or return, a class call, a tuple
    unpacked from a call, an element of a tuple[X, ...] or the value of a
    dict literal of one class; a load on a receiver of unknown type reads
    no class's field of that name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    classes, returns = {}, {}   # class -> (module, bases, {field: type}); def -> type
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):   # a name typed twice is untyped
                kind = _annotation(node.returns)
                same = returns.get(node.name, kind) == kind
                returns[node.name] = kind if same else None
            if not isinstance(node, ast.ClassDef):
                continue
            bases = set().union(*(_annotation(b) or () for b in node.bases))
            record = "NamedTuple" in bases or any(
                "dataclass" in (_annotation(getattr(d, "func", d)) or ())
                for d in node.decorator_list)
            fields = {st.target.id: _annotation(st.annotation)
                      for st in node.body if record
                      and isinstance(st, ast.AnnAssign)
                      and isinstance(st.target, ast.Name)}
            stored = [e for init in node.body if getattr(init, "name", "") == "__init__"
                      for st in ast.walk(init)
                      if isinstance(st, (ast.Assign, ast.AnnAssign))
                      for t in getattr(st, "targets", None) or [st.target]
                      for e in getattr(t, "elts", [t])]
            for e in stored:
                if (isinstance(e, ast.Attribute)
                        and getattr(e.value, "id", None) == "self"):
                    fields.setdefault(e.attr, None)
            classes[node.name] = (module, bases, fields)
    owners = Counter(f for _, _, fields in classes.values() for f in fields)

    def lineage(name):
        """The class and its known bases, nearest first."""
        if name not in classes:
            return []
        return [name] + [c for b in sorted(classes[name][1]) for c in lineage(b)]

    def names(kind):
        return kind if isinstance(kind, frozenset) else ()

    def infer(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            return frozenset({name}) if name in classes else returns.get(name)
        if isinstance(node, ast.Attribute):
            for name in names(infer(node.value, env)):
                for c in lineage(name):
                    if node.attr in classes[c][2]:
                        return classes[c][2][node.attr]
        if isinstance(node, ast.Subscript):
            kind = infer(node.value, env)
            return kind[0] if isinstance(kind, list) else None
        if isinstance(node, ast.Dict):
            kinds = {infer(v, env) for v in node.values}
            return [kinds.pop()] if len(kinds) == 1 else None
        return None

    def bind(target, kind, env, bound):
        """Type a target; a name bound to two types is untyped."""
        if isinstance(target, ast.Name):
            env[target.id] = kind if env.get(target.id, kind) == kind \
                or target.id not in bound else None
            bound.add(target.id)
        elif isinstance(target, ast.Tuple):
            kinds = (kind if isinstance(kind, tuple) and len(kind) == len(target.elts)
                     else (None,) * len(target.elts))
            for t, k in zip(target.elts, kinds):
                bind(t, k, env, bound)

    def scope(body, env, owner, args=None):
        """The types of a function's (or the module's) names, bound in
        source order and flow-insensitively, on top of the enclosing env;
        nested functions and classes are scopes of their own."""
        env, bound = dict(env), set()
        if args is not None:
            params = args.posonlyargs + args.args + args.kwonlyargs
            for i, a in enumerate(params):
                bind(ast.Name(a.arg), frozenset({owner}) if owner and i == 0
                     else _annotation(a.annotation), env, bound)
        todo = body[::-1]
        while todo:
            st = todo.pop()
            if not isinstance(st, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
                todo += list(ast.iter_child_nodes(st))[::-1]
                if isinstance(st, ast.Assign):
                    for t in st.targets:
                        bind(t, infer(st.value, env), env, bound)
                elif isinstance(st, (ast.For, ast.comprehension)):
                    kind = infer(st.iter, env)
                    bind(st.target, kind[0] if isinstance(kind, list) else None,
                         env, bound)
        return env

    read = set()

    def visit(node, env, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                method = owner and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in getattr(child, "decorator_list", []))
                body = child.body if isinstance(child.body, list) else [child.body]
                visit(child, scope(body, env, method and owner, child.args), None)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                field = child.attr
                if owners[field] == 1:
                    read.update((c, field) for c in classes
                                if field in classes[c][2])
                for name in names(infer(child.value, env)) if owners[field] > 1 else ():
                    read.update((c, field) for c in lineage(name)
                                if field in classes[c][2])
            visit(child, env, owner)

    for tree in trees.values():
        visit(tree, scope(tree.body, {}, None), None)
    return sorted(f"{module}.{c}.{f}" for c, (module, _, fields) in classes.items()
                  for f in fields if (c, f) not in read)


# fields kept with no library reader, each with the reason it stays
_KEPT_FIELDS = {
    f"heisenberg.AbelianApproxWitness.{name}":
        "test_inverse_vertical_sets_match_scalar_references compares it set "
        "for set with its scalar construction"
    for name in ("b_prime", "b_tilde", "split")
}


def test_every_field_has_a_library_reader():
    # a value that only tests read is recomputed there, from a kept field,
    # a ledger row or the routine that forms it
    src = Path(setgrowth.__file__).resolve().parent
    assert _unread_fields(src) == sorted(_KEPT_FIELDS)


def test_the_field_gate_keys_a_shared_name_by_its_receiver(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    c: int\n    only_a: int\n"
        "@dataclass\nclass B:\n    c: int\n"
        "class C:\n    def __init__(self, n: int):\n        self.c = n\n"
        "def make() -> B:\n    return B(1)\n"
        "def f(a: A, x):\n    b = make()\n    return b.c + x.c + x.only_a\n")
    # b.c reads B's c; x.c has no known type, so it reads neither A's nor
    # C's; only_a has one owner, so any load of it counts
    assert _unread_fields(tmp_path) == ["m.A.c", "m.C.c"]
