"""Acceptance battery: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected number here was either derived by an
independent oracle (hand row-reduction, brute-force socle decomposition,
counting path families) or cross-checked between two computation routes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

from reference import contains, direct_sum, dual_action, sub_comodule

from qcalg.cli import main
from qcalg.coalg import (
    check_axioms,
    coradical_filtration,
    dual_algebra,
    ideal_product,
    radical,
    skew_primitives,
    wedge,
)
from qcalg.comod import (
    coefficient_coalgebra,
    check_comodule,
    hom_image_sum,
    hom_space,
    quotient_with_projection,
    regular_comodule,
    simple_comodule,
    socle_annihilator_check,
)
from qcalg.exactlin import QQ, Subspace
from qcalg.quiverlab import compile_truncation, parse_spec
from qcalg.quiverlab.registry import builtin_text

LOOP_ALL = "coalgebra loop\nvertex a\nvertex b\narrow f: a -> b\narrow g: b -> a\nmode all\n"
CHAIN_ALL = "coalgebra chain\nvertex v[i], i=1..3\narrow e[i]: v[i] -> v[i+1], i=1..2\nmode all\n"


def _passed(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} {text}: PASS")


def _analyze_json(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def _v_span(coalgebra, basis, k):
    rows = [{i: F(1)} for i, p in enumerate(basis.paths)
            if all(ix <= k for ix in p.family_indices())]
    return Subspace.span(QQ, coalgebra.dim, rows)


def test_criterion_01_ex1_coradical_filtration(ex1_spec):
    doc = json.loads(_analyze_json("analyze", "ex1", "--N", "3", "--json"))
    assert doc["results"]["filtration"] == {"dims": [4, 10, 13], "stabilized_at": 2}
    for n in range(1, 6):
        c, _ = compile_truncation(ex1_spec, n)
        chain = coradical_filtration(c)
        assert chain.dims() == (n + 1, 3 * n + 1, 4 * n + 1)
        assert chain.stabilized_at == 2
    _passed(1, "ex1 coradical filtration dims (N+1, 3N+1, 4N+1)")


def test_criterion_02_wedge_idempotence(ex1_spec):
    c4, basis4 = compile_truncation(ex1_spec, 4)
    for n in range(1, 5):
        vn = _v_span(c4, basis4, n)
        assert vn.dim == 4 * n + 1
        assert wedge(vn, vn, c4) == vn
        cn, basisn = compile_truncation(ex1_spec, n)
        vn_top = _v_span(cn, basisn, n)
        assert wedge(vn_top, vn_top, cn) == vn_top
    _passed(2, "wedge idempotence of the V_n subcoalgebras")


def test_criterion_03_wedge_ideal_duality(ex1_spec, ex2_spec):
    pairs_checked = 0
    for spec in (ex1_spec, ex2_spec):
        for n in (1, 2, 3):
            c, basis = compile_truncation(spec, n)
            chain = coradical_filtration(c)
            subspaces = {
                "C0": chain.terms[0],
                "C1": chain.terms[min(1, len(chain.terms) - 1)],
                "V1": _v_span(c, basis, 1),
                "span{a}": c.span_of_labels(["a"]),
            }
            dual = dual_algebra(c)
            for u in subspaces.values():
                for w in subspaces.values():
                    lhs = wedge(u, w, c)
                    rhs = ideal_product(u.perp(), w.perp(), dual).perp()
                    assert lhs == rhs
                    pairs_checked += 1
    assert pairs_checked == 2 * 3 * 16
    _passed(3, "wedge equals perp of the dual ideal product on all pairs")


def test_criterion_04_ex2_verdict_vector():
    doc = json.loads(_analyze_json("analyze", "ex2", "--sweep", "1..5", "--json"))
    verdicts = {v["criterion"]: v for v in doc["results"]["verdicts"]}
    expected = {
        "locally_finite": "holds",
        "right_semiperfect": "holds",
        "left_semiperfect": "fails",
        "left_fnoetherian": "holds",
        "right_fnoetherian": "fails",
        "left_torsion_rat": "holds",
        "right_torsion_rat": "holds",
        "coreflexive": "holds",
    }
    for criterion, want in expected.items():
        assert verdicts[criterion]["verdict"] == want, criterion
    assert verdicts["left_semiperfect"]["witness"]["vertex"] == "a"
    table = verdicts["right_fnoetherian"]["witness"]["table"]
    values = [row["max_multiplicity"] for row in table]
    assert values == [2, 3, 4, 5, 6]  # brute-force socle oracle: N + 1
    assert all(a < b for a, b in zip(values, values[1:]))
    assert "semiperfect" in " ".join(verdicts["left_fnoetherian"]["rule_chain"])
    assert "assumption" in verdicts["coreflexive"]["witness"]
    _passed(4, "ex2 verdict vector with growth witness and coreflexive flag")


def test_criterion_05_radical_dual_annihilates_socle(ex1_spec, ex2_spec):
    rng = random.Random(20260810)
    checked = 0
    for spec, bound in ((ex1_spec, 2), (ex2_spec, 3)):
        c, _ = compile_truncation(spec, bound)
        reg = regular_comodule(c, "right")
        assert socle_annihilator_check(reg)
        assert socle_annihilator_check(regular_comodule(c, "left"))
        ambient = direct_sum([reg, reg])
        assert ambient.dim <= 30
        produced = 0
        while produced < 25:
            seeds = [{rng.randrange(ambient.dim): F(rng.randint(-2, 2))}
                     for _ in range(2)]
            span = Subspace.span(QQ, ambient.dim, seeds)
            while True:
                gens = span.basis_dicts()
                closure = list(gens)
                for i in range(c.dim):
                    act = dual_action({i: F(1)}, ambient)
                    closure.extend(act.apply(v) for v in gens)
                bigger = Subspace.span(QQ, ambient.dim, closure)
                if bigger == span:
                    break
                span = bigger
            if span.dim == 0 or span.dim > 30:
                continue
            sub = sub_comodule(ambient, span)
            assert check_comodule(sub).ok
            assert socle_annihilator_check(sub)
            produced += 1
            checked += 1
    assert checked == 50
    _passed(5, "radical action on duals matches socle annihilators (50 samples)")


def test_criterion_06_wedge_vs_hom_image_sum(ex1_spec, ex2_spec):
    for spec in (ex1_spec, ex2_spec):
        for n in (1, 2, 3):
            c, _ = compile_truncation(spec, n)
            reg = regular_comodule(c, "right")
            grouplikes = c.grouplike_indices()
            for v in grouplikes:
                x = Subspace.span(QQ, c.dim, [{v: F(1)}])
                quot, proj = quotient_with_projection(reg, x)
                for g in grouplikes:
                    s = simple_comodule(c, g, "right")
                    w = coefficient_coalgebra(s)
                    lhs_ambient = wedge(x, w, c)
                    assert contains(lhs_ambient, x)
                    lhs = Subspace.span(QQ, quot.dim,
                                        [proj.apply(u) for u in lhs_ambient.basis_dicts()])
                    rhs = hom_image_sum(s, quot)
                    assert lhs == rhs
    _passed(6, "wedge mod X equals the sum of simple hom images")


def test_criterion_07_radical_coradical_duality(ex1_spec, ex2_spec):
    compiled = []
    for spec in (ex1_spec, ex2_spec):
        compiled.extend(compile_truncation(spec, n) for n in (1, 2, 3, 4))
    compiled.append(compile_truncation(parse_spec(CHAIN_ALL)))
    compiled.append(compile_truncation(parse_spec(LOOP_ALL), depth=3))
    for c, _basis in compiled:
        grouplike_span = Subspace.span(
            QQ, c.dim, [{g: F(1)} for g in c.grouplike_indices()])
        assert radical(dual_algebra(c)) == grouplike_span.perp()
    _passed(7, "radical of the dual is the perp of the grouplike span")


def test_criterion_08_axiom_typo_regression(ex1_n1):
    c, basis = ex1_n1
    assert check_axioms(c).ok
    from qcalg.textfmt import loads
    mutant = loads(builtin_text("mutant-ex1")).coalgebra
    report = check_axioms(mutant)
    assert not report.ok
    positions = {(f.element, f.position) for f in report.failures
                 if f.law == "coassociativity"}
    assert ("p[1]", ("x[1]", "y[1]", "a")) in positions
    assert ("p[1]", ("x[1]", "y[1]", "b[1]")) in positions
    _passed(8, "compiled splitting passes; printed-formula mutant pinpointed")


def test_criterion_09_hom_dimension_growth(ex1_spec):
    for n in range(1, 6):
        c, _ = compile_truncation(ex1_spec, n)
        left = regular_comodule(c, "left")
        c1 = coradical_filtration(c).terms[1]
        quot, _ = quotient_with_projection(left, c1)
        s = simple_comodule(c, c.label_index("a"), "left")
        assert hom_space(s, quot)[0] == n
    _passed(9, "hom dimension into the top quotient grows as N")


def test_criterion_10_skew_primitive_arrow_correspondence(ex1_spec, ex2_spec):
    c2, basis2 = compile_truncation(ex2_spec, 4)
    a2 = basis2.index_of_label("a")
    for n in range(1, 5):
        bn = basis2.index_of_label(f"b[{n}]")
        assert skew_primitives(a2, bn, c2).dim == n + 1
    c1, basis1 = compile_truncation(ex1_spec, 4)
    a1 = basis1.index_of_label("a")
    for n in range(1, 5):
        bn = basis1.index_of_label(f"b[{n}]")
        assert skew_primitives(a1, bn, c1).dim == 2
    _passed(10, "skew primitives count arrows plus the trivial one")


def test_criterion_11_deterministic_reports():
    first = _analyze_json("analyze", "ex2", "--sweep", "1..4", "--json")
    second = _analyze_json("analyze", "ex2", "--sweep", "1..4", "--json")
    assert first.encode("utf-8") == second.encode("utf-8")
    _passed(11, "byte-identical JSON reports across runs")
