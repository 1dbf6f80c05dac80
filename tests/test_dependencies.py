"""The package imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import qcalg

PACKAGE_DIR = Path(qcalg.__file__).resolve().parent


def absolute_imports(path: Path) -> "list[tuple[int, str]]":
    """(line, top-level name) of every absolute import in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_import_is_stdlib_or_qcalg():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) >= 10
    outside = [f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
               for path in modules for line, name in absolute_imports(path)
               if name != "qcalg" and name not in sys.stdlib_module_names]
    assert outside == []


def test_the_scan_sees_a_third_party_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import json\nfrom numpy.linalg import solve\nfrom . import sibling\n")
    names = [name for _, name in absolute_imports(module)]
    assert names == ["json", "numpy"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy"]
