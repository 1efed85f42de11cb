"""Source hygiene: unused imports, dead definitions, and the names the benchmark traces."""

import ast
import importlib
import os
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
