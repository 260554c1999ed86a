"""Source hygiene checks that need no linter: every module under
src/grouprobe imports only the standard library, numpy and its own package,
and uses each name it imports.  `__init__.py` is skipped by the unused-name
check because its imports are the package's re-exports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "grouprobe"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def foreign_imports(source: str) -> list[str]:
    """Top-level packages imported that are neither the standard library,
    numpy nor grouprobe; relative imports are the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(roots - sys.stdlib_module_names - {"numpy", "grouprobe"})


def test_scanner_flags_foreign_imports():
    src = ("from __future__ import annotations\nimport os.path, scipy.stats\n"
           "from numpy.linalg import norm\nfrom . import errors\nfrom .linmodel import x\n"
           "from mpmath import mp\nimport grouprobe.cli\n")
    assert foreign_imports(src) == ["mpmath", "scipy"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations, such as -> "LabeledDataset"
    annotations = [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    annotations += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scanner_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\nimport csv\nimport os.path\n"
           "from json import dumps, loads as parse\nfrom re import Match\n"
           "x = os.path.join(parse('1'), 'csv')\n"
           "def f(m: 'list[Match]') -> 'dumps': ...\n")
    assert unused_imports(src) == ["line 2: csv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
