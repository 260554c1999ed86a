"""Source hygiene checks that need no linter: every module under
src/grouprobe uses each name it imports.  `__init__.py` is skipped because
its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "grouprobe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
