"""Every name the benchmark tracer wraps resolves in the package.

perfbench/tracer.py is read with ast, not imported, so this guard runs on
a bare checkout and catches a renamed or deleted stage or kernel before
the benchmark's own smoke run does.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets(path: Path) -> "list[tuple[str, str]]":
    """(module, attribute) of every entry of the module-level TARGETS tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [tuple(entry)[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"{path} assigns no TARGETS")


TARGETS = tracer_targets(TRACER)


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        if part not in vars(owner):
            return False
        owner = vars(owner)[part]
    return callable(owner)


def test_the_tracer_names_the_analyze_stages():
    assert ("qcalg.quiverlab.analyze", "locally_finite_verdict") in TARGETS
    assert ("qcalg.coalg", "skew_primitives") in TARGETS
    assert ("qcalg.exactlin", "Subspace.intersect") in TARGETS


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_every_target_resolves(module, attr):
    assert resolves(module, attr), f"{module}.{attr} is not defined"


def test_a_missing_method_does_not_resolve():
    assert not resolves("qcalg.exactlin", "Subspace.no_such_method")
    assert not resolves("qcalg.coalg", "no_such_function")
