"""Source hygiene: unused imports, dead definitions, and the names the benchmark traces."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mixedae"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json (line 1)"]


def test_scanner_sees_attribute_and_annotation_use():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Sequence\n"
        "def f(x: Sequence[int]):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = PACKAGE.parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")


def definitions(source: str) -> list[tuple[str, int]]:
    """Top-level functions and classes, and the methods of top-level
    classes; dunder methods are called by Python itself and left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return found


def references(source: str) -> set[str]:
    """Names read, attributes accessed, names imported and the dotted parts
    of string constants (the benchmark's tracer names functions as text)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def test_dead_code_scanner():
    source = (
        "import os\n"
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def f(): return A().used()\n"
        "def g(): return os\n"
    )
    refs = references(source + "f()\nTRACED = ('g',)\n")
    assert [name for name, _ in definitions(source) if name not in refs] == ["unused"]


def test_every_definition_is_referenced():
    refs = set().union(
        *(
            references(path.read_text(encoding="utf-8"))
            for folder in SEARCHED
            for path in sorted((ROOT / folder).rglob("*.py"))
        )
    )
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in definitions(path.read_text(encoding="utf-8"))
        if name not in refs
    ]
    assert dead == []


def test_demos_write_no_absolute_tmp_paths():
    """Demos write into the working directory, never to a fixed /tmp path."""
    named = [
        path.name
        for path in sorted((ROOT / "demos").glob("*.py"))
        if "/tmp/" in path.read_text(encoding="utf-8")
    ]
    assert named == []


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's tracer wraps is an attribute of its
    module, so a rename cannot silently break ``perfbench --trace 1``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"{layer}.{fn}"
        for layer, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"mixedae.{layer}"), fn, None))
    ]
    assert traced and missing == []


def test_imports_load_no_process_pool():
    """Only a run that forks loads multiprocessing: importing the package,
    its CLI and its experiment driver does not."""
    code = (
        "import sys, mixedae, mixedae.cli, mixedae.experiments\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


def defaulted_parameters(source: str) -> list[tuple[str, int, str, int | None]]:
    """(function, line, parameter, position or None) for every parameter with
    a default, in every function and method. The position counts from the
    first argument a call spells out, so a method's ``self`` or ``cls`` is
    not counted; a keyword-only parameter has None."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    tree = ast.parse(source)
    bound = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, functions)
        and "staticmethod" not in {getattr(d, "id", None) for d in item.decorator_list}
    }
    found = []
    for node in (node for node in ast.walk(tree) if isinstance(node, functions)):
        args = node.args
        positional = args.posonlyargs + args.args
        first, skip = len(positional) - len(args.defaults), 1 if id(node) in bound else 0
        found.extend(
            (node.name, node.lineno, arg.arg, position - skip)
            for position, arg in enumerate(positional)
            if position >= first
        )
        found.extend(
            (node.name, node.lineno, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )
    return found


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def passed_arguments(source: str) -> dict[str, set]:
    """Per called name, what its calls pass: keyword names, the positions of
    positional arguments, and "*" for a call that unpacks ``*args`` or ``**kwargs``.
    A call through a variable counts for every function named in the
    expression assigned to it, so ``run = f if c else g; run(x=1)`` passes
    ``x`` to both ``f`` and ``g``."""
    tree = ast.parse(source)
    aliases: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            named = {_name(sub) for sub in ast.walk(node.value)} - {None}
            aliases.setdefault(node.targets[0].id, set()).update(named)
    passed: dict[str, set] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _name(node.func) is None:
            continue
        got = {kw.arg or "*" for kw in node.keywords}
        if any(isinstance(a, ast.Starred) for a in node.args):
            got.add("*")
        got.update(range(len(node.args)))
        for name in {_name(node.func)} | aliases.get(_name(node.func), set()):
            passed.setdefault(name, set()).update(got)
    return passed


def test_default_scanner():
    package = (
        "def f(a, b=1, *, c=2): pass\n"
        "def g(a=0, b=1): pass\n"
        "class K:\n"
        "    def m(self, x=0): pass\n"
        "    @staticmethod\n"
        "    def s(x=0): pass\n"
    )
    caller = "f(1, c=3)\nrun = g if True else h\nrun(0, b=2)\nK().m(1)\nK.s()\n"
    passed = passed_arguments(caller)
    unpassed = [
        (fn, param)
        for fn, _, param, position in defaulted_parameters(package)
        if not passed.get(fn, set()) & {param, position, "*"}
    ]
    assert unpassed == [("f", "b"), ("s", "x")]


def test_every_default_is_passed_by_a_caller():
    """A keyword that no caller in the repository passes is a constant."""
    passed: dict[str, set] = {}
    for folder in SEARCHED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, got in passed_arguments(path.read_text(encoding="utf-8")).items():
                passed.setdefault(name, set()).update(got)
    unpassed = [
        f"{path.name}:{line} {fn} {param}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, line, param, position in defaulted_parameters(path.read_text(encoding="utf-8"))
        if not passed.get(fn, set()) & {param, position, "*"}
    ]
    assert unpassed == []


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def readme_dotted_names(text: str) -> list[str]:
    """Backticked ``module.name[.attr...]`` spans whose first part is a module
    of the package (``mixedae.`` allowed in front)."""
    found = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return sorted({n for n in found if n.removeprefix("mixedae.").split(".")[0] in MODULES})


def test_readme_scanner():
    text = "`models._epochs`, `np.sum`, `report.csv`, `mixedae.nn`, `nn.Network.share`, `losses`"
    assert readme_dotted_names(text) == ["mixedae.nn", "models._epochs", "nn.Network.share"]


def test_readme_dotted_names_resolve():
    """The library tour names only attributes the package has."""
    names = readme_dotted_names((ROOT / "README.md").read_text(encoding="utf-8"))
    missing = []
    for name in names:
        module, *attrs = name.removeprefix("mixedae.").split(".")
        obj = importlib.import_module(f"mixedae.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert len(names) >= 16 and missing == []
