"""Source hygiene checks that need no linter: every module under
src/grouprobe imports only the standard library, numpy and its own package,
and uses each name it imports.  `__init__.py` is skipped by the unused-name
check because its imports are the package's re-exports.  Every name the
demos and the README's Python code import from grouprobe must exist, and
the type hints of every dataclass it exports resolve."""

import ast
import dataclasses
import importlib
import re
import sys
import typing
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


ROOT = SRC.parents[1]


def grouprobe_imports(source: str) -> list[tuple[str, str]]:
    """Each (module, name) that `from grouprobe... import name` statements
    in `source` ask for."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "grouprobe" for alias in node.names]


def missing_names(source: str) -> list[str]:
    return [f"{module}.{name}" for module, name in grouprobe_imports(source)
            if not hasattr(importlib.import_module(module), name)]


def readme_python() -> str:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README has no Python block"
    return "\n".join(blocks)


def test_scanner_flags_missing_public_names():
    src = ("import grouprobe\nfrom grouprobe import ConfigError, no_such_name\n"
           "from grouprobe.cli import main\nfrom json import nothing_here\n")
    assert grouprobe_imports(src) == [("grouprobe", "ConfigError"), ("grouprobe", "no_such_name"),
                                      ("grouprobe.cli", "main")]
    assert missing_names(src) == ["grouprobe.no_such_name"]


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py"))
                         + ["README.md"])
def test_demo_and_readme_imports_exist(name):
    source = readme_python() if name == "README.md" else (ROOT / "demos" / name).read_text()
    assert grouprobe_imports(source), "no grouprobe import found"
    assert missing_names(source) == []


def json_readers(source: str) -> list[str]:
    """Each `json.load`/`json.loads` call in `source`, and each import of
    either name from json, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, f"from json import {alias.name}")
                      for alias in node.names if alias.name in ("load", "loads")]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scanner_flags_json_readers():
    src = ("import json\nx = json.loads('1')\njson.dumps(x)\nf = json.load\n"
           "from json import dumps, loads as parse\n")
    assert json_readers(src) == ["line 2: json.loads", "line 4: json.load",
                                 "line 5: from json import loads"]


@pytest.mark.parametrize("path", [p for p in ALL_MODULES if p.name != "experiments.py"],
                         ids=lambda p: p.name)
def test_json_is_read_only_by_experiments(path):
    """Every JSON input goes through experiments' one reader, which reads
    UTF-8 and names the file in its errors."""
    assert json_readers(path.read_text()) == []


EXPORTED_DATACLASSES = sorted(name for name, obj in vars(importlib.import_module("grouprobe")).items()
                              if isinstance(obj, type) and dataclasses.is_dataclass(obj))


@pytest.mark.parametrize("name", EXPORTED_DATACLASSES)
def test_exported_dataclass_hints_resolve(name):
    """Every annotation names something its module can see, so
    typing.get_type_hints (and any tool built on it) reads each field."""
    cls = getattr(importlib.import_module("grouprobe"), name)
    hints = typing.get_type_hints(cls)
    assert {f.name for f in dataclasses.fields(cls)} <= hints.keys()
