from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from reference import (
    compose,
    direct_sum,
    dual_action,
    from_entries,
    is_left_coideal,
    is_right_coideal,
    is_subcoalgebra,
    left_mult_matrix,
    multiply,
    sub_comodule,
    unit_dict,
)
from test_coalg import (
    LADDER_ALL,
    change_basis,
    common_denominator,
    off_by,
    probe_subspaces,
    residue_sums_vanish,
    trigonometric_coalgebra,
    with_epsilon_off,
)

from qcalg.coalg import (
    MAX_FAILURES,
    AxiomFailure,
    AxiomReport,
    Coalgebra,
    FiltrationChain,
    check_axioms,
    coradical_filtration,
    dual_algebra,
    dual_and_radical,
    ideal_product,
    radical,
    wedge,
)
from qcalg.comod import (
    SIDES,
    Comodule,
    check_comodule,
    coefficient_coalgebra,
    hom_image_sum,
    hom_space,
    is_stable,
    loewy_series,
    multiplicity,
    multiplicity_table,
    quotient,
    quotient_with_projection,
    regular_comodule,
    simple_comodule,
    socle,
    socle_annihilator_check,
    weight_space,
)
from qcalg.exactlin import GF, QQ, Subspace, preimage
from qcalg.quiverlab import compile_truncation, parse_spec
from qcalg.textfmt import dumps_coalgebra, loads


def random_subcomodule(rng, ambient, max_seed=2):
    """Close a random seed under the full dual-basis action."""
    cdim = ambient.over.dim
    seeds = [{rng.randrange(ambient.dim): F(rng.randint(-2, 2))}
             for _ in range(max_seed)]
    span = Subspace.span(QQ, ambient.dim, seeds)
    while True:
        gens = span.basis_dicts()
        new = list(gens)
        for i in range(cdim):
            act = dual_action({i: F(1)}, ambient)
            new.extend(act.apply(v) for v in gens)
        bigger = Subspace.span(QQ, ambient.dim, new)
        if bigger == span:
            return span
        span = bigger


class TestCheckComodule:
    def test_regular_both_sides(self, ex1_n1):
        c, _ = ex1_n1
        assert check_comodule(regular_comodule(c, "right")).ok
        assert check_comodule(regular_comodule(c, "left")).ok

    def test_one_dimensional_weight(self, ex1_n1):
        c, basis = ex1_n1
        s = simple_comodule(c, basis.index_of_label("b[1]"), "right")
        assert check_comodule(s).ok

    def test_perturbed_coefficient_fails(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        coaction = list(m.coaction)
        j, k, v = coaction[2][0]
        coaction[2] = ((j, k, v + F(1)),) + coaction[2][1:]
        mutant = Comodule(side="right", dim=m.dim, over=c,
                          coaction=tuple(coaction), labels=m.labels)
        assert not check_comodule(mutant).ok


class TestDualAction:
    def test_counit_acts_as_identity(self, ex2_n3):
        c, _ = ex2_n3
        m = regular_comodule(c, "right")
        eps = unit_dict(dual_algebra(c))
        act = dual_action(eps, m)
        assert act.entries == {(i, i): F(1) for i in range(m.dim)}

    def test_grouplike_dual_projects_weights(self, ex1_n1):
        c, basis = ex1_n1
        b1 = basis.index_of_label("b[1]")
        a = basis.index_of_label("a")
        s = simple_comodule(c, b1, "right")
        assert dual_action({b1: F(1)}, s).entries == {(0, 0): F(1)}
        assert dual_action({a: F(1)}, s).entries == {}

    def test_radical_kills_the_coradical(self, ex1_n2):
        c, _ = ex1_n2
        m = regular_comodule(c, "right")
        j = radical(dual_algebra(c))
        for f in j.basis_dicts():
            act = dual_action(f, m)
            for g in c.grouplike_indices():
                assert act.apply({g: F(1)}) == {}

    def test_representation_compatibility_random(self, ex2_n3):
        c, _ = ex2_n3
        d = dual_algebra(c)
        m = regular_comodule(c, "right")
        rng = random.Random(11)
        for _ in range(100):
            def rv():
                out = {rng.randrange(c.dim): F(rng.randint(-3, 3)) for _ in range(2)}
                return {k: v for k, v in out.items() if v}
            f, g = rv(), rv()
            assert dual_action(multiply(d, f, g), m).entries == \
                compose(dual_action(f, m), dual_action(g, m)).entries

    def test_left_side_reverses_composition(self, ex2_n3):
        c, _ = ex2_n3
        d = dual_algebra(c)
        m = regular_comodule(c, "left")
        rng = random.Random(12)
        for _ in range(50):
            f = {rng.randrange(c.dim): F(1)}
            g = {rng.randrange(c.dim): F(1)}
            assert dual_action(multiply(d, f, g), m).entries == \
                compose(dual_action(g, m), dual_action(f, m)).entries


class TestSocleAndLoewy:
    def test_semisimple_is_its_own_socle(self, ex1_n1):
        c, basis = ex1_n1
        parts = [simple_comodule(c, basis.index_of_label(l), "right")
                 for l in ("a", "b[1]", "a")]
        m = direct_sum(parts)
        assert socle(m) == Subspace.full(QQ, 3)
        chain = loewy_series(m)
        assert chain.dims() == (3,) and chain.stabilized_at == 0

    def test_ex1_loewy_dims(self, ex1_n1):
        chain = loewy_series(regular_comodule(ex1_n1[0], "right"))
        assert chain.dims() == (2, 4, 5)
        assert chain.stabilized_at == 2

    def test_ex2_loewy_dims(self, ex2_n3):
        chain = loewy_series(regular_comodule(ex2_n3[0], "right"))
        assert chain.dims() == (4, 10)

    def test_loewy_matches_coradical_filtration(self, ex1_n3):
        c, _ = ex1_n3
        assert loewy_series(regular_comodule(c, "right")).dims() == \
            coradical_filtration(c).dims()
        assert loewy_series(regular_comodule(c, "left")).dims() == \
            coradical_filtration(c).dims()


class TestMultiplicity:
    def test_regular_multiplicities_are_one(self, ex2_n3):
        c, _ = ex2_n3
        m = regular_comodule(c, "right")
        for g in c.grouplike_indices():
            assert multiplicity(m, c.labels[g]) == 1

    def test_quotient_by_source_vertex(self, ex2_n3):
        c, _ = ex2_n3
        m = regular_comodule(c, "right")
        q = quotient(m, c.span_of_labels(["a"]))
        expected = {"a": 0, "b[1]": 2, "b[2]": 3, "b[3]": 4}
        for label, count in expected.items():
            assert multiplicity(q, label) == count
            # brute-force socle weight space agrees
            assert weight_space(q, c.label_index(label)).dim == count

    def test_zero_comodule(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        z = quotient(m, Subspace.full(QQ, m.dim))
        assert z.dim == 0
        for g in c.grouplike_indices():
            assert multiplicity(z, c.labels[g]) == 0

    def test_additivity_on_direct_sums(self, ex1_n2):
        c, _ = ex1_n2
        m = regular_comodule(c, "right")
        mm = direct_sum([m, m])
        for g in c.grouplike_indices():
            assert multiplicity(mm, c.labels[g]) == 2 * multiplicity(m, c.labels[g])

    def test_unknown_simple_rejected(self, ex1_n1):
        c, _ = ex1_n1
        with pytest.raises(KeyError):
            multiplicity(regular_comodule(c, "right"), "nope")


class TestHomSpace:
    def test_schur_for_pointed_simples(self, ex1_n1):
        c, basis = ex1_n1
        s = simple_comodule(c, basis.index_of_label("a"), "right")
        assert hom_space(s, s)[0] == 1

    def test_disjoint_weights_give_zero(self, ex1_n1):
        c, basis = ex1_n1
        sa = simple_comodule(c, basis.index_of_label("a"), "right")
        sb = simple_comodule(c, basis.index_of_label("b[1]"), "right")
        assert hom_space(sa, sb)[0] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hom_growth_into_top_quotient(self, ex1_spec, n):
        from qcalg.quiverlab import compile_truncation
        c, _ = compile_truncation(ex1_spec, n)
        left = regular_comodule(c, "left")
        c1 = coradical_filtration(c).terms[1]
        target = quotient(left, c1)
        s = simple_comodule(c, c.label_index("a"), "left")
        assert hom_space(s, target)[0] == n

    def test_side_mismatch_rejected(self, ex1_n1):
        c, _ = ex1_n1
        with pytest.raises(ValueError):
            hom_space(regular_comodule(c, "left"), regular_comodule(c, "right"))

    def test_solutions_intertwine(self, ex1_n2):
        c, _ = ex1_n2
        m = regular_comodule(c, "right")
        q = quotient(m, c.span_of_labels(["a"]))
        dim, mats = hom_space(m, q)
        assert dim == len(mats) > 0
        # spot-check the intertwining equation through the coaction pairs
        for phi in mats[:3]:
            for i in range(m.dim):
                lhs: dict = {}
                for (j, k), cf in m.module_coalg_pairs(i).items():
                    for l in range(q.dim):
                        v = phi.entries.get((l, j))
                        if v:
                            key = (l, k)
                            lhs[key] = lhs.get(key, F(0)) + cf * v
                rhs: dict = {}
                for lp in range(q.dim):
                    w = phi.entries.get((lp, i))
                    if not w:
                        continue
                    for (l, k), cf in q.module_coalg_pairs(lp).items():
                        key = (l, k)
                        rhs[key] = rhs.get(key, F(0)) + cf * w
                assert {k: v for k, v in lhs.items() if v} == \
                    {k: v for k, v in rhs.items() if v}


class TestQuotientAndSub:
    def test_quotient_by_zero_is_isomorphic(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        q = quotient(m, Subspace.zero(QQ, m.dim))
        assert q.dim == m.dim
        assert check_comodule(q).ok
        assert loewy_series(q).dims() == loewy_series(m).dims()

    def test_quotient_validates_stability(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        with pytest.raises(ValueError):
            quotient(m, c.span_of_labels(["x[1]"]))

    def test_quotient_comodule_passes_axioms(self, ex2_n3):
        c, _ = ex2_n3
        m = regular_comodule(c, "right")
        q, proj = quotient_with_projection(m, c.span_of_labels(["a"]))
        assert check_comodule(q).ok
        assert q.dim == m.dim - 1
        assert proj.apply({c.label_index("a"): F(1)}) == {}

    def test_sub_comodule_restricts_exactly(self, ex1_n2):
        c, _ = ex1_n2
        m = regular_comodule(c, "right")
        x = c.span_of_labels(["a", "x[1]", "b[1]"])
        assert is_stable(m, x)
        sub = sub_comodule(m, x)
        assert sub.dim == 3
        assert check_comodule(sub).ok

    def test_instability_detected_per_side(self, ex1_n1):
        c, _ = ex1_n1
        x = c.span_of_labels(["x[1]", "b[1]"])
        assert not is_stable(regular_comodule(c, "right"), x)
        assert is_stable(regular_comodule(c, "left"), x)


class TestCoefficientCoalgebra:
    def test_weight_line(self, ex1_n1):
        c, basis = ex1_n1
        b1 = basis.index_of_label("b[1]")
        s = simple_comodule(c, b1, "right")
        assert coefficient_coalgebra(s) == c.span_of_labels(["b[1]"])

    def test_regular_comodule_spans_everything(self, ex2_n3):
        c, _ = ex2_n3
        assert coefficient_coalgebra(regular_comodule(c, "right")) == \
            Subspace.full(QQ, c.dim)

    def test_left_subcomodule_coefficients(self, ex1_n1):
        c, _ = ex1_n1
        left = regular_comodule(c, "left")
        sub = sub_comodule(left, c.span_of_labels(["x[1]", "b[1]"]))
        cf = coefficient_coalgebra(sub)
        assert cf == c.span_of_labels(["a", "x[1]", "b[1]"])
        assert is_subcoalgebra(cf, c)

    def test_minimality(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        w = coefficient_coalgebra(m)
        # no proper subspace W' with coaction(M) <= M (x) W' exists: here W
        # is everything, so check the defining containment instead
        cdim = c.dim
        flank = []
        for u in w.basis_dicts():
            for t in range(m.dim):
                flank.append({t * cdim + k: v for k, v in u.items()})
        target = Subspace.span(QQ, m.dim * cdim, flank)
        for i in range(m.dim):
            img = {}
            for (j, k), cf in m.module_coalg_pairs(i).items():
                img[j * cdim + k] = cf
            assert target.contains_vector(img)


class TestSocleAnnihilator:
    def test_regular_comodule(self, ex1_n2):
        c, _ = ex1_n2
        assert socle_annihilator_check(regular_comodule(c, "right"))
        assert socle_annihilator_check(regular_comodule(c, "left"))

    def test_simple_has_zero_both_sides(self, ex1_n1):
        c, basis = ex1_n1
        s = simple_comodule(c, basis.index_of_label("a"), "right")
        assert socle_annihilator_check(s)

    def test_random_subcomodules_of_double_cover(self, ex1_n2):
        c, _ = ex1_n2
        ambient = direct_sum([regular_comodule(c, "right"),
                              regular_comodule(c, "right")])
        rng = random.Random(77)
        seen = 0
        while seen < 8:
            span = random_subcomodule(rng, ambient)
            if span.dim == 0:
                continue
            sub = sub_comodule(ambient, span)
            assert check_comodule(sub).ok
            assert socle_annihilator_check(sub)
            seen += 1


class TestHomImageSum:
    def test_no_maps_no_image(self, ex1_n1):
        c, basis = ex1_n1
        sa = simple_comodule(c, basis.index_of_label("a"), "right")
        sb = simple_comodule(c, basis.index_of_label("b[1]"), "right")
        assert hom_image_sum(sa, sb).dim == 0

    def test_simple_into_itself_is_isotypic(self, ex1_n1):
        c, basis = ex1_n1
        m = regular_comodule(c, "right")
        sa = simple_comodule(c, basis.index_of_label("a"), "right")
        image = hom_image_sum(sa, m)
        assert image == weight_space(m, basis.index_of_label("a"))

    def test_wedge_comparison_on_quotient(self, ex1_n1):
        c, _ = ex1_n1
        m = regular_comodule(c, "right")
        x = c.span_of_labels(["a"])
        q, proj = quotient_with_projection(m, x)
        s = simple_comodule(c, c.label_index("a"), "right")
        w = coefficient_coalgebra(s)
        lhs_ambient = wedge(x, w, c)
        lhs = Subspace.span(QQ, q.dim, [proj.apply(v) for v in lhs_ambient.basis_dicts()])
        assert lhs == hom_image_sum(s, q)


class TestWedgeHomIdentityDeeper:
    @pytest.mark.parametrize("which", ["ex1", "ex2"])
    def test_single_vertex_pairs_at_bound_four(self, which, ex1_spec, ex2_spec):
        from qcalg.quiverlab import compile_truncation
        spec = ex1_spec if which == "ex1" else ex2_spec
        c, _ = compile_truncation(spec, 4)
        reg = regular_comodule(c, "right")
        grouplikes = c.grouplike_indices()
        for v in grouplikes:
            x = Subspace.span(QQ, c.dim, [{v: F(1)}])
            quot, proj = quotient_with_projection(reg, x)
            for g in grouplikes:
                s = simple_comodule(c, g, "right")
                w = coefficient_coalgebra(s)
                lhs_ambient = wedge(x, w, c)
                lhs = Subspace.span(
                    QQ, quot.dim,
                    [proj.apply(u) for u in lhs_ambient.basis_dicts()])
                assert lhs == hom_image_sum(s, quot)


def test_dual_action_rejects_foreign_vectors(ex1_n1):
    c, _ = ex1_n1
    m = regular_comodule(c, "right")
    with pytest.raises(ValueError):
        dual_action({c.dim + 3: F(1)}, m)


class TestMultiplicityTable:
    def test_counts_sum_to_socle_dimension(self, ex2_n3):
        c, _ = ex2_n3
        m = regular_comodule(c, "right")
        q = quotient(m, c.span_of_labels(["a"]))
        table = multiplicity_table(q)
        assert table == {"a": 0, "b[1]": 2, "b[2]": 3, "b[3]": 4}
        assert sum(table.values()) == socle(q).dim

    def test_agrees_with_hom_route(self, ex1_n2):
        c, _ = ex1_n2
        m = regular_comodule(c, "left")
        for label, count in multiplicity_table(m).items():
            s = simple_comodule(c, c.label_index(label), "left")
            assert count == hom_space(s, m)[0] == multiplicity(m, label)


# -- the socle series and coaction stability against their textbook forms ------

def loewy_by_preimages(m):
    """Reference socle series: L_{-1} = 0 and L_{n+1} is the meet, over a
    basis of the radical J, of the preimages a^{-1}(L_n)."""
    _, j = dual_and_radical(m.over)
    mats = [dual_action(f, m) for f in j.basis_dicts()]
    full = Subspace.full(m.field, m.dim)
    term, terms = Subspace.zero(m.field, m.dim), []
    while term.dim < m.dim:
        nxt = full
        for a in mats:
            nxt = nxt.intersect(preimage(a, term, m.field))
        if nxt == term:
            return FiltrationChain(tuple(terms), None)
        terms.append(nxt)
        term = nxt
    return FiltrationChain(tuple(terms), len(terms) - 1)


def is_stable_by_flank(m, x):
    """Reference stability test: rho(u) in the span of X (x) C (resp.
    C (x) X), flattened to dim * cdim coordinates, for each u in X's basis."""
    cdim = m.over.dim
    flank = [{j * cdim + t: v for j, v in u.items()}
             for u in x.basis_dicts() for t in range(cdim)]
    target = Subspace.span(m.field, m.dim * cdim, flank)
    for u in x.basis_dicts():
        image: dict = {}
        for i, ui in u.items():
            for (j, k), c in m.module_coalg_pairs(i).items():
                key = j * cdim + k
                image[key] = image.get(key, m.field.zero) + ui * c
        if not target.contains_vector(image):
            return False
    return True


class TestSocleSeriesEquivalence:
    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("case", ["ex1-3", "ex2-4", "ex2-3-gf101",
                                      "ex1-2-integer-basis", "ex2-3-quotient",
                                      "ladder-3-quotient"])
    def test_matches_the_meet_of_preimages(self, case, side, ex1_spec, ex2_spec):
        if case == "ladder-3-quotient":
            c, _ = compile_truncation(parse_spec(LADDER_ALL), 3)
            m = quotient(regular_comodule(c, side), c.span_of_labels(["v[1]"]))
        elif case == "ex1-3":
            m = regular_comodule(compile_truncation(ex1_spec, 3)[0], side)
        elif case == "ex2-4":
            m = regular_comodule(compile_truncation(ex2_spec, 4)[0], side)
        elif case == "ex2-3-gf101":
            c, _ = compile_truncation(replace(ex2_spec, field=GF(101)), 3)
            m = regular_comodule(c, side)
        elif case == "ex1-2-integer-basis":
            c = change_basis(compile_truncation(ex1_spec, 2)[0], seed=7)
            assert any(v not in (0, 1) for terms in c.delta for _, _, v in terms)
            m = regular_comodule(c, side)
        else:
            c, _ = compile_truncation(ex2_spec, 3)
            m = quotient(regular_comodule(c, side), c.span_of_labels(["a"]))
        chain = loewy_series(m)
        assert chain == loewy_by_preimages(m)
        assert chain.stabilized_at == len(chain.terms) - 1
        assert chain.terms[0] == socle(m)

    def test_reads_no_ideal_product_and_no_coradical(self, ex1_n3, patch_everywhere):
        def forbidden(*args, **kwargs):
            raise AssertionError("the socle series read the filtration route")
        patch_everywhere(ideal_product, forbidden)
        patch_everywhere(coradical_filtration, forbidden)
        c, _ = ex1_n3
        assert loewy_series(regular_comodule(c, "right")).dims() == (4, 10, 13)


class TestStabilityEquivalence:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_the_tensor_flank_in_an_integer_basis(self, side, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        m = regular_comodule(c, side)
        rng = random.Random(5)
        spaces = probe_subspaces(c, rng, count=12)
        spaces += [random_subcomodule(rng, m) for _ in range(4)]
        verdicts = [is_stable(m, x) for x in spaces]
        assert verdicts == [is_stable_by_flank(m, x) for x in spaces]
        assert set(verdicts) == {True, False}

    def test_coideal_predicates_match_the_flank(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        right, left = regular_comodule(c, "right"), regular_comodule(c, "left")
        for x in probe_subspaces(c, random.Random(6), count=12):
            assert is_right_coideal(x, c) == is_stable_by_flank(right, x)
            assert is_left_coideal(x, c) == is_stable_by_flank(left, x)
            assert is_subcoalgebra(x, c) == (is_stable_by_flank(right, x)
                                             and is_stable_by_flank(left, x))


# -- the weight table against one weight_space solve per grouplike -------------

def weight_space_table(m):
    return {m.over.labels[g]: weight_space(m, g).dim for g in m.over.grouplike_indices()}


def regular_and_vertex_quotients(c, side):
    reg = regular_comodule(c, side)
    return [reg] + [quotient(reg, c.span_of_labels([c.labels[g]]))
                    for g in c.grouplike_indices()]


def change_module_basis(m, rng, max_den=1):
    """m in the basis f_i = m_i + sum_{a > i} p_ia m_a, each p_ia a random
    integer in [-2, 2] divided by one in [1, max_den]."""
    n = m.dim

    def entry():
        num = rng.randint(-2, 2)
        return F(num, rng.randint(1, max_den)) if max_den > 1 else F(num)

    p = [[F(int(a == i)) if a <= i else entry() for a in range(n)]
         for i in range(n)]
    q = [[F(int(a == i)) for a in range(n)] for i in range(n)]  # p^{-1}
    for i in reversed(range(n)):
        for a in range(i + 1, n):
            for b in range(n):
                q[i][b] -= p[i][a] * q[a][b]
    coaction = []
    for i in range(n):
        acc = {}
        for a in range(n):
            if not p[i][a]:
                continue
            for (j, k), c in m.module_coalg_pairs(a).items():
                for b in range(n):
                    v = p[i][a] * c * q[j][b]
                    if v:
                        acc[(b, k)] = acc.get((b, k), F(0)) + v
        coaction.append(tuple((b, k, v) if m.side == "right" else (k, b, v)
                              for (b, k), v in sorted(acc.items()) if v))
    return Comodule(side=m.side, dim=n, over=m.over, coaction=tuple(coaction),
                    labels=tuple(f"f{i}" for i in range(n)))


class TestWeightTableEquivalence:
    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    @pytest.mark.parametrize("which,n", [("ex1", 1), ("ex1", 3), ("ex2", 2), ("ex2", 4)])
    def test_regular_and_vertex_quotients(self, which, n, field, side, ex1_spec, ex2_spec):
        spec = ex1_spec if which == "ex1" else ex2_spec
        c, _ = compile_truncation(replace(spec, field=field), n)
        for m in regular_and_vertex_quotients(c, side):
            table = multiplicity_table(m)
            assert table == weight_space_table(m)
            assert set(table) == {c.labels[g] for g in c.grouplike_indices()}

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_integer_basis(self, side, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        for m in regular_and_vertex_quotients(c, side):
            assert multiplicity_table(m) == weight_space_table(m)
        # The same comodules over the path basis, whose grouplikes survive,
        # in a unitriangular integer basis of the module.
        for seed, m in enumerate(regular_and_vertex_quotients(ex1_n2[0], side)):
            changed = change_module_basis(m, random.Random(seed))
            assert any(v not in (0, 1) for terms in changed.coaction for _, _, v in terms)
            assert multiplicity_table(changed) == weight_space_table(changed)
            assert multiplicity_table(changed) == multiplicity_table(m)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_direct_sum_of_two_quotients(self, side, ex2_n3):
        c, _ = ex2_n3
        reg = regular_comodule(c, side)
        m = direct_sum([quotient(reg, c.span_of_labels(["a"])),
                        quotient(reg, c.span_of_labels(["b[2]"]))])
        table = multiplicity_table(m)
        assert table == weight_space_table(m)
        assert sum(table.values()) == socle(m).dim

    @pytest.mark.parametrize("seed", range(6))
    def test_structure_constants_off_the_comodule_axioms(self, seed, ex1_n1):
        """Equal on any coaction constants: a mostly grouplike coaction with
        stray terms, which breaks coassociativity."""
        c, _ = ex1_n1
        grouplikes = c.grouplike_indices()
        rng = random.Random(seed)
        n = 5
        coaction = []
        for i in range(n):
            terms = [(i, rng.choice(grouplikes), F(1))]
            for _ in range(rng.randint(1, 3)):
                k = rng.choice(grouplikes) if rng.random() < 0.8 else rng.randrange(c.dim)
                terms.append((rng.randrange(n), k, F(rng.randint(-2, 2))))
            coaction.append(tuple(terms))
        m = Comodule(side="right", dim=n, over=c, coaction=tuple(coaction),
                     labels=tuple(f"m{i}" for i in range(n)))
        assert not check_comodule(m).ok
        assert multiplicity_table(m) == weight_space_table(m)

    def test_a_vector_fixed_by_one_grouplike_but_moved_by_another(self, ex1_n1):
        c, _ = ex1_n1
        g, h = c.grouplike_indices()[:2]
        # rho(m0) = m0 (x) g + m1 (x) h: rho_g(m0) = m0, yet m0 is no weight vector.
        m = Comodule(side="right", dim=2, over=c,
                     coaction=(((0, g, F(1)), (1, h, F(1))), ((1, g, F(1)),)),
                     labels=("m0", "m1"))
        table = multiplicity_table(m)
        assert table == weight_space_table(m)
        assert table[c.labels[g]] == 1

    def test_no_grouplike_basis_vector(self):
        c = trigonometric_coalgebra()
        assert check_axioms(c).ok and c.grouplike_indices() == ()
        for side in SIDES:
            assert multiplicity_table(regular_comodule(c, side)) == {}

    def test_reads_neither_socle_nor_radical(self, ex2_n3, patch_everywhere):
        def forbidden(*args, **kwargs):
            raise AssertionError("the weight table read the socle or the radical")
        for original in (socle, radical, dual_and_radical):
            patch_everywhere(original, forbidden)
        c, _ = ex2_n3
        q = quotient(regular_comodule(c, "right"), c.span_of_labels(["a"]))
        assert multiplicity_table(q) == {"a": 0, "b[1]": 2, "b[2]": 3, "b[3]": 4}


# -- the axiom check against sums of field scalars -----------------------------

def check_comodule_in_field_scalars(m):
    """Reference comodule check: both sides of coaction coassociativity
    accumulate field scalars term by term, then the counit law as
    check_comodule."""
    c = m.over
    zero, fmt = c.field.zero, c.field.format
    failures = []
    right = m.side == "right"
    for i in range(m.dim):
        lhs, rhs = {}, {}
        for (j, k), coeff in m.module_coalg_pairs(i).items():
            for (l, s), coeff2 in m.module_coalg_pairs(j).items():
                key = (l, s, k) if right else (k, s, l)
                lhs[key] = lhs.get(key, zero) + coeff * coeff2
            for (r, s), coeff2 in c.delta_dict(k).items():
                key = (j, r, s) if right else (r, s, j)
                rhs[key] = rhs.get(key, zero) + coeff * coeff2
        for key in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(key, zero), rhs.get(key, zero)
            if a != b:
                if right:
                    pos = (m.labels[key[0]], c.labels[key[1]], c.labels[key[2]])
                else:
                    pos = (c.labels[key[0]], c.labels[key[1]], m.labels[key[2]])
                failures.append(AxiomFailure("coaction-coassociativity",
                                             m.labels[i], pos, fmt(a), fmt(b)))
                if len(failures) >= MAX_FAILURES:
                    return AxiomReport(False, tuple(failures))
    for i in range(m.dim):
        got = {}
        for (j, k), coeff in m.module_coalg_pairs(i).items():
            v = got.get(j, zero) + coeff * c.epsilon[k]
            if v:
                got[j] = v
            else:
                got.pop(j, None)
        if got != {i: c.field.one}:
            bad = min(j for j in set(got) | {i}
                      if got.get(j, zero) != (c.field.one if j == i else zero))
            failures.append(AxiomFailure(
                "coaction-counit", m.labels[i], (m.labels[bad],),
                fmt(got.get(bad, zero)), fmt(c.field.one if bad == i else zero)))
            if len(failures) >= MAX_FAILURES:
                return AxiomReport(False, tuple(failures))
    return AxiomReport(not failures, tuple(failures))


# Delta and a left coaction that repeat (j, k) pairs.  x is x0 - 7a for an
# arrow x0: a -> b, so Delta(x) carries 7 a (x) b, written 3 + 4: zero over
# GF(7), where eps(x) = -7 is zero too.  The pairs 2 + (-1),
# 1 + (-1) and 3 + (-2) cancel or merge over every field.
REPEATS = """\
coalgebra repeats
dim 4
label 0 a
label 1 b
label 2 x
label 3 z
delta 0: 0 0 2; 0 0 -1
delta 1: 1 1 1
delta 2: 0 2 1; 2 1 1; 0 1 3; 0 1 4; 2 0 1; 2 0 -1
delta 3: 0 3 1; 3 1 1
epsilon: 1 1 -7 0
side left
rho 0: 0 0 1
rho 1: 1 1 3; 1 1 -2
rho 2: 0 2 1; 2 1 1; 0 1 3; 0 1 4; 1 2 1; 1 2 -1
rho 3: 0 3 1; 3 1 1
"""


class TestZeroBoundary:
    """Sums over repeated (j, k) pairs are merged, and a sum that cancels
    is never stored, whether it cancels over QQ or only mod 7."""

    FIELDS = pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])

    @staticmethod
    def scalars(field, vec):
        return {k: field.from_int(v) for k, v in vec.items()}

    @FIELDS
    def test_delta_and_coaction_are_merged_once(self, field):
        loaded = loads(REPEATS, field)
        c, m = loaded.coalgebra, loaded.comodule
        one = field.one
        assert c.delta_dict(0) == {(0, 0): one}  # 2 + (-1)
        # (x, a) cancels over every field, (a, b) = 3 + 4 only over GF(7).
        assert c.delta_dict(2) == self.scalars(
            field, {(0, 2): 1, (2, 1): 1} | ({(0, 1): 7} if field == QQ else {}))
        # The left coaction is keyed (module, coalg).
        assert m.module_coalg_pairs(1) == {(1, 1): one}  # 3 + (-2)
        assert m.module_coalg_pairs(2) == self.scalars(
            field, {(2, 0): 1, (1, 2): 1} | ({(1, 0): 7} if field == QQ else {}))
        for i in range(c.dim):
            assert all(c.delta_dict(i).values())
            assert all(m.module_coalg_pairs(i).values())
            assert c.delta_dict(i) is c.delta_dict(i)
            assert m.module_coalg_pairs(i) is m.module_coalg_pairs(i)
        assert c.grouplike_indices() == (0, 1)

    @FIELDS
    def test_the_right_regular_comodule_reads_the_merged_delta(self, field):
        # Its coaction is Delta itself, so it shares the coalgebra's table;
        # the left one is keyed (module, coalg), so it merges its own.
        c = loads(REPEATS, field).coalgebra
        right, left = regular_comodule(c, "right"), regular_comodule(c, "left")
        for i in range(c.dim):
            assert right.module_coalg_pairs(i) is c.delta_dict(i)
            assert left.module_coalg_pairs(i) == {
                (k, j): v for (j, k), v in c.delta_dict(i).items()}

    @pytest.mark.parametrize("field,u,v,product", [
        (QQ, {0: 1, 3: -1}, {3: 1, 1: 1}, {2: 7}),  # the z terms: 1 + (-1)
        (QQ, {0: 3, 2: 4}, {2: 1, 1: 1}, {2: 28}),
        (GF(7), {0: 3, 2: 4}, {2: 1, 1: 1}, {}),  # 3 + 4
    ], ids=["QQ-cancels", "QQ", "GF7-cancels"])
    def test_dual_products(self, field, u, v, product):
        d = dual_algebra(loads(REPEATS, field).coalgebra)
        assert multiply(d, self.scalars(field, u), self.scalars(field, v)) == \
            self.scalars(field, product)
        # e_x^* picks up 7 from e_a^* and -7 from e_x^* at column b over QQ,
        # and nothing from e_a^* over GF(7).
        u = {0: 1, 2: -7} if field == QQ else {0: 1}
        diagonal = self.scalars(field, {(0, 0): 1, (2, 2): 1, (3, 3): 1})
        assert left_mult_matrix(d, self.scalars(field, u)).entries == diagonal

    @pytest.mark.parametrize("field,a,b", [(QQ, 1, -1), (GF(7), 3, 4)], ids=["QQ", "GF7"])
    def test_matrix_apply(self, field, a, b):
        mat = from_entries(2, 2, self.scalars(field, {(0, 0): a, (0, 1): b,
                                                      (1, 0): 2}))
        assert mat.apply(self.scalars(field, {0: 1, 1: 1})) == {1: field.from_int(2)}

    @FIELDS
    def test_action_and_hom_matrices(self, field):
        loaded = loads(REPEATS, field)
        c, m = loaded.coalgebra, loaded.comodule
        # Entry (m_1, m_x) is f(x) + 7 f(a): zero for this f over QQ, and
        # 7 f(a) is gone over GF(7).
        f = {0: 1, 2: -7} if field == QQ else {0: 1}
        act = dual_action(self.scalars(field, f), m)
        assert act.entries == self.scalars(field, {(0, 0): 1, (2, 2): 1, (3, 3): 1})
        for f in [{k: field.one} for k in range(c.dim)] + [unit_dict(dual_algebra(c))]:
            assert all(dual_action(f, m).entries.values())
        for target in (m, regular_comodule(c, "left")):
            for g in c.grouplike_indices():
                dim, mats = hom_space(simple_comodule(c, g, "left"), target)
                assert dim == len(mats) == 1
                assert all(all(mat.entries.values()) for mat in mats)
            _, mats = hom_space(target, target)
            assert mats and all(all(mat.entries.values()) for mat in mats)

    @FIELDS
    def test_quotients(self, field):
        loaded = loads(REPEATS, field)
        c, m = loaded.coalgebra, loaded.comodule
        for target in (m, regular_comodule(c, "left"), regular_comodule(c, "right")):
            for x in (socle(target), c.span_of_labels(["a"]), c.span_of_labels(["b"])):
                quot, proj = quotient_with_projection(target, x)
                assert quot.dim == target.dim - x.dim
                assert all(proj.entries.values())
                assert all(v for terms in quot.coaction for _, _, v in terms)


def with_coaction_off(m, label, by):
    """m with the first constant of the coaction of label off by by."""
    coaction = list(m.coaction)
    i = m.label_index(label)
    coaction[i] = off_by(coaction[i], by)
    return Comodule(side=m.side, dim=m.dim, over=m.over, coaction=tuple(coaction),
                    labels=m.labels)


class TestAxiomCheckEquivalence:
    """check_comodule sums integer images; the reference sums field scalars."""

    @staticmethod
    def report(m):
        report = check_comodule(m)
        assert report == check_comodule_in_field_scalars(m)
        # A failure is reported only where its two sides differ.
        assert all(f.lhs != f.rhs for f in report.failures)
        return report

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("name,bound", [("ex1", 2), ("ex2", 3)])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_regular_and_vertex_quotients(self, side, name, bound, field,
                                          ex1_spec, ex2_spec):
        spec = replace(ex1_spec if name == "ex1" else ex2_spec, field=field)
        c, _ = compile_truncation(spec, bound)
        for m in regular_and_vertex_quotients(c, side):
            assert self.report(m).ok

    @pytest.mark.parametrize("side", SIDES)
    def test_integer_bases(self, side, ex1_n2):
        m = change_module_basis(regular_comodule(change_basis(ex1_n2[0], seed=5), side),
                                random.Random(3))
        assert self.report(m).ok

    @pytest.mark.parametrize("side", SIDES)
    def test_coaction_and_delta_denominators_differ(self, side, ex1_n2):
        # An integer coalgebra basis and a rational module basis: one
        # common scale serves both sums.
        c = change_basis(ex1_n2[0], seed=5)
        m = change_module_basis(regular_comodule(c, side), random.Random(4), max_den=3)
        coaction = [x for terms in m.coaction for _, _, x in terms]
        delta = [x for terms in c.delta for _, _, x in terms]
        assert common_denominator(coaction) > common_denominator(delta) == 1
        assert self.report(m).ok

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_trigonometric(self, side, field):
        assert self.report(regular_comodule(trigonometric_coalgebra(field), side)).ok

    @pytest.mark.parametrize("side", SIDES)
    def test_sums_that_vanish_only_mod_p(self, side, ex1_n2):
        text = dumps_coalgebra(change_basis(ex1_n2[0], seed=3, max_den=3))
        c = loads(text, GF(7)).coalgebra
        assert not residue_sums_vanish(c)
        assert self.report(regular_comodule(c, side)).ok

    @pytest.mark.parametrize("side", SIDES)
    def test_mutant_off_by_a_third(self, side, ex1_n2):
        m = regular_comodule(change_basis(ex1_n2[0], seed=5), side)
        report = self.report(with_coaction_off(m, "x[1]", F(1, 3)))
        assert not report.ok
        assert any("/" in f.lhs + f.rhs for f in report.failures)

    @pytest.mark.parametrize("side", SIDES)
    def test_mutant_off_by_two_over_gf(self, side, ex2_spec):
        c, _ = compile_truncation(replace(ex2_spec, field=GF(101)), 2)
        m = with_coaction_off(regular_comodule(c, side), "b[1]", GF(101).from_int(2))
        assert not self.report(m).ok

    @pytest.mark.parametrize("side", SIDES)
    def test_failures_stop_at_the_cap(self, side, ex2_n3):
        m = regular_comodule(change_basis(ex2_n3[0], seed=5), side)
        assert len(self.report(with_coaction_off(m, "a", F(1, 3))).failures) == MAX_FAILURES

    @pytest.mark.parametrize("side", SIDES)
    def test_counit_off_by_a_third(self, side, ex1_n2):
        c = with_epsilon_off(change_basis(ex1_n2[0], seed=5), "x[1]", F(1, 3))
        report = self.report(regular_comodule(c, side))
        assert {f.law for f in report.failures} == {"coaction-counit"}
        assert any("/" in f.lhs + f.rhs for f in report.failures)

    @pytest.mark.parametrize("side", SIDES)
    def test_counit_off_by_two_over_gf(self, side, ex2_spec):
        c, _ = compile_truncation(replace(ex2_spec, field=GF(101)), 2)
        m = regular_comodule(with_epsilon_off(c, "a", GF(101).from_int(2)), side)
        assert {f.law for f in self.report(m).failures} == {"coaction-counit"}

    @pytest.mark.parametrize("side", SIDES)
    def test_counit_names_the_first_position_that_differs(self, side, ex1_n1):
        c, _ = ex1_n1
        g = c.grouplike_indices()[0]
        # rho(m0) = m0 (x) g + m1 (x) g, so (id (x) epsilon)rho(m0) = m0 + m1.
        terms = (((0, g, F(1)), (1, g, F(1))), ((1, g, F(1)),))
        if side == "left":
            terms = tuple(tuple((k, j, v) for j, k, v in t) for t in terms)
        m = Comodule(side=side, dim=2, over=c, coaction=terms, labels=("m0", "m1"))
        counit = next(f for f in self.report(m).failures if f.law == "coaction-counit")
        assert (counit.element, counit.position, counit.lhs, counit.rhs) == \
            ("m0", ("m1",), "1", "0")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_coactions(self, seed, ex1_n1):
        c, _ = ex1_n1
        rng = random.Random(seed)
        for side in SIDES:
            coaction = tuple(
                tuple((rng.randrange(3), rng.randrange(c.dim), F(rng.randint(-2, 2), 2))
                      if side == "right" else
                      (rng.randrange(c.dim), rng.randrange(3), F(rng.randint(-2, 2), 2))
                      for _ in range(rng.randint(1, 4)))
                for _ in range(3))
            m = Comodule(side=side, dim=3, over=c, coaction=coaction,
                         labels=("m0", "m1", "m2"))
            assert not self.report(m).ok
