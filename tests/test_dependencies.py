"""The package imports nothing outside the standard library and itself,
and its scalars stay exact: no float literal and no float() or round()."""

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


def inexact_scalars(path: Path) -> "list[tuple[int, str]]":
    """(line, what) of every float literal and float() or round() call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append((node.lineno, f"{node.func.id}()"))
    return sorted(found)


def test_no_module_computes_with_floats():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    inexact = [f"{path.relative_to(PACKAGE_DIR)}:{line}: {what}"
               for path in modules for line, what in inexact_scalars(path)]
    assert inexact == []


def test_the_scan_sees_floats(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("x = 0.5\ny = float(x)\nz = round(y, 2)\nw = Fraction(1, 2)\n"
                      "ok = 'float(3)'\n")
    assert inexact_scalars(module) == [(1, "0.5"), (2, "float()"), (3, "round()")]
