from __future__ import annotations

import pytest

from qcalg.comod import check_comodule, regular_comodule
from qcalg.exactlin import GF, QQ
from qcalg.textfmt import FormatError, dumps_coalgebra, dumps_comodule, loads

PRIMITIVE = """\
# one grouplike, one primitive
dim 2
label 0 g
label 1 x
delta 0: 0 0 1
delta 1: 0 1 1; 1 0 1
epsilon: 1 0
"""


def test_load_and_labels():
    loaded = loads(PRIMITIVE)
    c = loaded.coalgebra
    assert c.dim == 2 and c.labels == ("g", "x")
    assert c.is_grouplike(0) and not c.is_grouplike(1)
    assert loaded.comodule is None


def test_round_trip_through_dump(ex1_n2):
    c, _ = ex1_n2
    text = dumps_coalgebra(c, name="roundtrip")
    again = loads(text)
    assert again.name == "roundtrip"
    assert again.coalgebra == c


def test_comodule_block_round_trip(ex1_n1):
    c, _ = ex1_n1
    m = regular_comodule(c, "left")
    text = dumps_comodule(m, name="withrho")
    loaded = loads(text)
    assert loaded.comodule is not None
    assert loaded.comodule.side == "left"
    assert check_comodule(loaded.comodule).ok
    assert loaded.comodule.coaction == m.coaction


def test_fraction_scalars_parse_exactly():
    text = "dim 1\ndelta 0: 0 0 1\nepsilon: 2/2\n"
    assert loads(text).coalgebra.epsilon == (QQ.one,)


def test_gf_field_loading():
    loaded = loads(PRIMITIVE, field=GF(7))
    assert loaded.coalgebra.field == GF(7)
    assert loaded.coalgebra.epsilon[0].val == 1


def test_lazy_validation_and_check_flag():
    broken = "dim 1\ndelta 0: 0 0 1\nepsilon: 2\n"  # counit fails
    loads(broken)  # lazy: structural load succeeds
    with pytest.raises(FormatError) as err:
        loads(broken, check=True)
    assert "axioms" in str(err.value)


def test_structural_errors_are_always_caught():
    with pytest.raises(FormatError):
        loads("delta 0: 0 0 1\nepsilon: 1\n")  # missing dim
    with pytest.raises(FormatError):
        loads("dim 1\ndelta 0: 0 3 1\nepsilon: 1\n")  # index out of range
    with pytest.raises(FormatError):
        loads("dim 2\nepsilon: 1\n")  # epsilon length
    with pytest.raises(FormatError):
        loads("dim 1\nwibble 3\nepsilon: 1\n")  # unknown keyword


def test_an_exponent_too_large_to_write_out_is_a_bad_scalar():
    text = "dim 1\ndelta 0: 0 0 1\nepsilon: 1e999999999\n"
    with pytest.raises(FormatError, match="bad scalar '1e999999999'"):
        loads(text)
