"""The package imports nothing outside the standard library and itself,
its scalars stay exact: no float literal and no float() or round(), and
no true division outside ``exactlin.exact_quotient`` and
``PrimeField.parse``, since an integral rational is an ``int`` and
``int / int`` is a float; zero sums are dropped in one place: no
hand-written add-or-pop block outside ``exactlin.row_add``; every
definition has a caller; and the public names stay as they are."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from test_tracer_targets import TRACER, tracer_targets

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


def definitions(path: Path) -> "list[tuple[str, ast.AST]]":
    """(qualified name, node) of every module-level function and class and
    every method in one module, dunders skipped; a method is named with
    its class, as in Class.method."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{child.name}", child) for child in node.body
                         if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(name, node) for name, node in found
            if not (name.rpartition(".")[2].startswith("__")
                    and name.endswith("__"))]


def name_uses(path: Path) -> "dict[str, list[int]]":
    """{name: lines} of every ast.Name and ast.Attribute in one module."""
    uses: dict = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            uses.setdefault(node.id, []).append(node.lineno)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(node.lineno)
    return uses


def uncalled_definitions(root: Path, kept: "set[str]" = frozenset()) -> "list[str]":
    """'module.py: name' of every definition under root whose name no module
    under root uses outside the definition's own lines, and that is not in
    kept (the same 'module.py: name' form) nor imported by a package
    ``__init__.py`` under root."""
    modules = sorted(root.rglob("*.py"))
    uses = {path: name_uses(path) for path in modules}
    exported = {alias.name for path in modules if path.name == "__init__.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = []
    for path in modules:
        where = path.relative_to(root).as_posix()
        for qualname, node in definitions(path):
            name = qualname.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            called = any(other != path or line not in own
                         for other in modules for line in uses[other].get(name, ()))
            key = f"{where}: {qualname}"
            if not called and key not in kept and qualname not in exported:
                dead.append(key)
    return dead


# Definitions that the package does not call and keeps anyway.  Exported
# names pass on their own: the public API, quotient, coefficient_coalgebra,
# hom_image_sum and socle_annihilator_check among them.  So do tracer
# targets: the benchmark times exactlin.preimage and Subspace.intersect,
# and preimage is the tests' reference wedge and socle series.
KEPT_WITHOUT_A_CALLER = {
    "coalg.py: Coalgebra.span_of_labels":
        "public API: the subspace spanned by named basis vectors",
    "textfmt.py: dumps_comodule":
        "writes the comodule format that loads reads, so the format stays in one module",
}


def test_every_definition_has_a_caller():
    """Every function, class and method under src/qcalg is used by the
    package, exported, wrapped by the benchmark tracer or kept for a stated
    reason.

    The scan matches by name, not by binding: a dead helper whose name is
    also used elsewhere in the package goes unflagged, but a helper the
    package does call is never flagged.
    """
    traced = {f"{'/'.join(module.split('.')[1:])}.py: {attr}"
              for module, attr in tracer_targets(TRACER)}
    assert uncalled_definitions(PACKAGE_DIR, traced | set(KEPT_WITHOUT_A_CALLER)) == []


def test_the_scan_sees_a_definition_without_a_caller(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import Public\n")
    (package / "mod.py").write_text(
        "class Public:\n"
        "    def recurse(self, n):\n"
        "        return self.recurse(n - 1) if n else self.reached()\n"
        "    def reached(self):\n"
        "        return 1\n"
        "    def __repr__(self):\n"
        "        return 'Public'\n"
        "def helper():\n"
        "    return Public()\n"
        "def kept():\n"
        "    pass\n")
    assert uncalled_definitions(package) == [
        "mod.py: Public.recurse", "mod.py: helper", "mod.py: kept"]
    assert uncalled_definitions(package, {"mod.py: kept"}) == [
        "mod.py: Public.recurse", "mod.py: helper"]


def test_the_public_names_are_pinned():
    init = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {
        "GF", "QQ", "Matrix", "Subspace",
        "Coalgebra", "DualAlgebra", "FiltrationChain", "check_axioms",
        "coradical_filtration", "dual_algebra", "ideal_product", "radical",
        "skew_primitives", "wedge",
        "Comodule", "check_comodule", "coefficient_coalgebra", "hom_image_sum",
        "hom_space", "loewy_series", "multiplicity", "quotient",
        "regular_comodule", "socle", "socle_annihilator_check",
        "compile_truncation", "enumerate_paths", "parse_spec",
    }
    assert all(hasattr(qcalg, name) for name in imported)
    assert isinstance(qcalg.__version__, str)
    assert set(qcalg.quiverlab.__all__) == {
        "ClosureError", "DslError", "QuiverSpec", "parse_spec",
        "PathBasis", "compile_truncation", "enumerate_paths", "instantiate",
        "builtin_kind", "builtin_names", "builtin_text",
    }
    assert len(qcalg.quiverlab.__all__) == 11
    assert all(hasattr(qcalg.quiverlab, name) for name in qcalg.quiverlab.__all__)
