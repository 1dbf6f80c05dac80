from __future__ import annotations

import sys

import pytest

from qcalg.quiverlab import compile_truncation, parse_spec
from qcalg.quiverlab.registry import EX1, EX2


@pytest.fixture
def patch_everywhere(monkeypatch):
    """Replace an object in every loaded qcalg module that holds it, so
    calls through by-name imports see the replacement too."""
    def patch(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "qcalg" or name.startswith("qcalg."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)
    return patch


@pytest.fixture(scope="session")
def ex1_spec():
    return parse_spec(EX1)


@pytest.fixture(scope="session")
def ex2_spec():
    return parse_spec(EX2)


@pytest.fixture(scope="session")
def ex1_n1(ex1_spec):
    return compile_truncation(ex1_spec, 1)


@pytest.fixture(scope="session")
def ex1_n2(ex1_spec):
    return compile_truncation(ex1_spec, 2)


@pytest.fixture(scope="session")
def ex1_n3(ex1_spec):
    return compile_truncation(ex1_spec, 3)


@pytest.fixture(scope="session")
def ex2_n3(ex2_spec):
    return compile_truncation(ex2_spec, 3)
