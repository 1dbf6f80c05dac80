"""The package imports nothing outside the standard library and itself,
its scalars stay exact: no float literal and no float() or round(), and
no true division outside ``exactlin.exact_quotient`` and
``PrimeField.parse``, since an integral rational is an ``int`` and
``int / int`` is a float; and zero sums are dropped in one place: no
hand-written add-or-pop block outside ``exactlin.row_add``."""

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


def sites_by_function(path: Path, is_site) -> "list[tuple[int, str]]":
    """(line, innermost enclosing function) of every node that is_site
    accepts; a method is named with its class, as in Class.method."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if isinstance(node, ast.ClassDef):
                    name = f"{node.name}.{name}"
                visit(child, name)
                continue
            if is_site(child):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")
    return found


def true_divisions(path: Path) -> "list[tuple[int, str]]":
    """(line, innermost enclosing function) of every '/' and '/='."""
    return sites_by_function(
        path, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div))


def test_rationals_divide_in_one_place():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    sites = [f"{path.relative_to(PACKAGE_DIR).as_posix()}: {function}"
             for path in modules for _, function in true_divisions(path)]
    assert sites == ["exactlin.py: PrimeField.parse", "exactlin.py: exact_quotient"]


def test_the_scan_sees_true_division(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "half = 1 / 2\n"
        "class Field:\n"
        "    def parse(self, a, b):\n"
        "        def inner(x):\n"
        "            x /= b\n"
        "            return x\n"
        "        return inner(a) / b\n"
        "def divide(a, b):\n"
        "    return a // b, a % b, divmod(a, b), '1/2', a * b\n")
    assert true_divisions(module) == [(1, "<module>"), (5, "inner"), (7, "Field.parse")]


def _is_add_or_pop(node: ast.If) -> bool:
    """Is node 'if v: d[k] = v' with 'else: d.pop(k, None)'?"""
    if len(node.body) != 1 or len(node.orelse) != 1:
        return False
    store, drop = node.body[0], node.orelse[0]
    if not (isinstance(store, ast.Assign) and len(store.targets) == 1
            and isinstance(store.targets[0], ast.Subscript)
            and isinstance(drop, ast.Expr) and isinstance(drop.value, ast.Call)):
        return False
    target, call = store.targets[0], drop.value
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "pop"
            and len(call.args) == 2 and isinstance(call.args[1], ast.Constant)
            and call.args[1].value is None
            and ast.dump(node.test) == ast.dump(store.value)
            and ast.dump(target.value) == ast.dump(call.func.value)
            and ast.dump(target.slice) == ast.dump(call.args[0]))


def add_or_pop_blocks(path: Path) -> "list[tuple[int, str]]":
    """(line, innermost enclosing function) of every add-or-pop block."""
    return sites_by_function(
        path, lambda node: isinstance(node, ast.If) and _is_add_or_pop(node))


def test_zero_sums_are_dropped_in_one_place():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    blocks = [f"{path.relative_to(PACKAGE_DIR).as_posix()}: {function}"
              for path in modules for _, function in add_or_pop_blocks(path)]
    assert blocks == ["exactlin.py: row_add"]


def test_the_scan_sees_add_or_pop_blocks(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def outer(out, key, v):\n"
        "    def add(row, col, c):\n"
        "        w = row.get(col, 0) + c\n"
        "        if w:\n"
        "            row[col] = w\n"
        "        else:\n"
        "            row.pop(col, None)\n"
        "    if v:\n"
        "        out[key] = v\n"
        "    else:\n"
        "        out.pop(key, None)\n"
        "    if v:\n"  # another dict, another key or another value: not the shape
        "        out[key] = v\n"
        "    else:\n"
        "        seen.pop(key, None)\n"
        "    if v:\n"
        "        out[key] = 1\n"
        "    else:\n"
        "        out.pop(key, None)\n"
        "    if v:\n"
        "        out[key] = v\n"
        "    else:\n"
        "        out.pop(other, None)\n")
    assert add_or_pop_blocks(module) == [(4, "add"), (8, "outer")]
