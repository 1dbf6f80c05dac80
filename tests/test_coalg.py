from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from reference import (
    contains,
    delta_matrix,
    is_left_coideal,
    is_right_coideal,
    is_subcoalgebra,
    left_mult_matrix,
    multiply,
    unit_dict,
)

from qcalg.coalg import (
    MAX_FAILURES,
    AxiomFailure,
    AxiomReport,
    Coalgebra,
    RadicalRangeError,
    check_axioms,
    coradical_filtration,
    dual_algebra,
    grouplike_product_perps,
    ideal_product,
    radical,
    skew_primitives,
    wedge,
)
from qcalg.comod import (
    check_comodule,
    regular_comodule,
)
from qcalg.exactlin import GF, QQ, GFElement, PrimeField, Rationals, Subspace, preimage
from qcalg.quiverlab import compile_truncation, parse_spec
from qcalg.quiverlab.registry import EX1, EX2
from qcalg.textfmt import dumps_coalgebra, loads


def grouplike_coalgebra():
    return Coalgebra(field=QQ, dim=1, labels=("g",),
                     delta=(((0, 0, F(1)),),), epsilon=(F(1),))


def primitive_pair_coalgebra():
    # span{g, x} with x primitive over the grouplike g
    return Coalgebra(
        field=QQ, dim=2, labels=("g", "x"),
        delta=(((0, 0, F(1)),), ((0, 1, F(1)), (1, 0, F(1)))),
        epsilon=(F(1), F(0)))


def mutant_ex1(ex1_n1):
    """ex1 at bound 1 with the final splitting of p[1] rewired to b[1]."""
    c, basis = ex1_n1
    p, a, b1 = (basis.index_of_label(l) for l in ("p[1]", "a", "b[1]"))
    delta = list(c.delta)
    delta[p] = tuple((j, b1 if (j, k) == (p, a) else k, v) for j, k, v in delta[p])
    return Coalgebra(field=c.field, dim=c.dim, labels=c.labels,
                     delta=tuple(delta), epsilon=c.epsilon)


class TestAxioms:
    def test_grouplike_passes(self):
        assert check_axioms(grouplike_coalgebra()).ok

    def test_compiled_truncation_passes(self, ex1_n3):
        assert check_axioms(ex1_n3[0]).ok

    def test_mutant_fails_at_conflicting_entry(self, ex1_n1):
        report = check_axioms(mutant_ex1(ex1_n1))
        assert not report.ok
        positions = {(f.element, f.position) for f in report.failures
                     if f.law == "coassociativity"}
        # The two expansions disagree exactly where the last tensorand is
        # a respectively b[1].
        assert ("p[1]", ("x[1]", "y[1]", "a")) in positions
        assert ("p[1]", ("x[1]", "y[1]", "b[1]")) in positions

    def test_broken_counit_detected(self):
        c = Coalgebra(field=QQ, dim=1, labels=("g",),
                      delta=(((0, 0, F(1)),),), epsilon=(F(2),))
        report = check_axioms(c)
        assert not report.ok
        assert any(f.law.startswith("counit") for f in report.failures)


class TestDualAlgebra:
    def test_grouplike_dual_is_the_field(self):
        d = dual_algebra(grouplike_coalgebra())
        one = unit_dict(d)
        assert multiply(d, one, one) == one

    def test_primitive_dual_square_zero(self):
        d = dual_algebra(primitive_pair_coalgebra())
        x = {1: F(1)}
        assert multiply(d, x, x) == {}
        assert multiply(d, unit_dict(d), x) == x

    def test_ex1_concatenation_convolution(self, ex1_n1):
        c, basis = ex1_n1
        d = dual_algebra(c)
        x1, y1, p1 = ({basis.index_of_label(l): F(1)} for l in ("x[1]", "y[1]", "p[1]"))
        assert multiply(d, x1, y1) == p1
        assert multiply(d, y1, x1) == {}

    def test_grouplike_idempotents_diagonal(self, ex1_n1):
        c, basis = ex1_n1
        d = dual_algebra(c)
        gls = c.grouplike_indices()
        for g in gls:
            for h in gls:
                prod = multiply(d, {g: F(1)}, {h: F(1)})
                assert prod == ({g: F(1)} if g == h else {})

    def test_associativity_and_unit_on_random_vectors(self, ex1_n2):
        c, _ = ex1_n2
        d = dual_algebra(c)
        rng = random.Random(5)
        unit = unit_dict(d)
        for _ in range(60):
            def rv():
                out = {rng.randrange(c.dim): F(rng.randint(-3, 3)) for _ in range(3)}
                return {k: v for k, v in out.items() if v}
            f, g, h = rv(), rv(), rv()
            assert multiply(d, multiply(d, f, g), h) == multiply(d, f, multiply(d, g, h))
            assert multiply(d, unit, f) == f
            assert multiply(d, f, unit) == f


class TestRadical:
    def test_field_has_zero_radical(self):
        d = dual_algebra(grouplike_coalgebra())
        assert radical(d).dim == 0

    def test_primitive_dual_radical(self):
        d = dual_algebra(primitive_pair_coalgebra())
        assert radical(d) == Subspace.span(QQ, 2, [{1: F(1)}])

    def test_ex1_radical_is_coradical_perp(self, ex1_n1):
        c, _ = ex1_n1
        j = radical(dual_algebra(c))
        assert j.dim == 3
        assert j == c.span_of_labels(["a", "b[1]"]).perp()

    def test_out_of_range_characteristic_rejected(self):
        # GF(2) and dimension 2: the trace criterion is not valid there.
        c = Coalgebra(field=GF(2), dim=2, labels=("g", "h"),
                      delta=(((0, 0, GF(2).one),), ((1, 1, GF(2).one),)),
                      epsilon=(GF(2).one, GF(2).one))
        with pytest.raises(RadicalRangeError):
            radical(dual_algebra(c))

    def test_large_prime_field_works(self, ex1_spec):
        import dataclasses
        spec = dataclasses.replace(ex1_spec, field=GF(101))
        c, _ = compile_truncation(spec, 1)
        j = radical(dual_algebra(c))
        assert j.dim == 3


class TestCoradicalFiltration:
    def test_cosemisimple_stabilizes_immediately(self):
        c = Coalgebra(field=QQ, dim=2, labels=("g", "h"),
                      delta=(((0, 0, F(1)),), ((1, 1, F(1)),)),
                      epsilon=(F(1), F(1)))
        chain = coradical_filtration(c)
        assert chain.dims() == (2,)
        assert chain.stabilized_at == 0

    def test_ex1_dims(self, ex1_n3):
        chain = coradical_filtration(ex1_n3[0])
        assert chain.dims() == (4, 10, 13)
        assert chain.stabilized_at == 2

    def test_ex2_stabilizes_at_one(self, ex2_n3):
        chain = coradical_filtration(ex2_n3[0])
        assert chain.dims() == (4, 10)
        assert chain.stabilized_at == 1

    def test_terms_ascend_and_are_subcoalgebras(self, ex1_n2):
        c, _ = ex1_n2
        chain = coradical_filtration(c)
        for lo, hi in zip(chain.terms, chain.terms[1:]):
            assert contains(hi, lo)
        for term in chain.terms:
            assert is_subcoalgebra(term, c)

    def test_radical_powers_give_the_terms(self, ex1_n2):
        c, _ = ex1_n2
        d = dual_algebra(c)
        j = radical(d)
        power = j
        for term in coradical_filtration(c).terms:
            assert power.perp() == term
            power = ideal_product(power, j, d)


class TestWedge:
    def test_idempotent_on_the_v_subcoalgebras(self, ex1_n1):
        c, _ = ex1_n1
        v1 = Subspace.full(QQ, c.dim)
        assert wedge(v1, v1, c) == v1

    def test_no_loops_at_a_vertex(self, ex1_n1):
        c, _ = ex1_n1
        sa = c.span_of_labels(["a"])
        assert wedge(sa, sa, c) == sa

    def test_coradical_wedge_gives_next_term(self, ex1_n1):
        c, _ = ex1_n1
        c0 = c.span_of_labels(["a", "b[1]"])
        c1 = c.span_of_labels(["a", "b[1]", "x[1]", "y[1]"])
        assert wedge(c0, c0, c) == c1

    def test_monotone_and_contains_sum(self, ex1_n2):
        c, _ = ex1_n2
        chain = coradical_filtration(c)
        pieces = [c.span_of_labels(["a"]), chain.terms[0], chain.terms[1]]
        for u in pieces:
            for w in pieces:
                joined = wedge(u, w, c)
                assert contains(joined, u + w)
                for bigger in pieces:
                    if contains(bigger, w):
                        assert contains(wedge(u, bigger, c), joined)

    def test_ambient_mismatch(self, ex1_n1):
        c, _ = ex1_n1
        with pytest.raises(ValueError):
            wedge(Subspace.zero(QQ, 3), Subspace.zero(QQ, 3), c)


class TestIdealProduct:
    def test_unital_full_times_full(self, ex1_n1):
        c, _ = ex1_n1
        d = dual_algebra(c)
        full = Subspace.full(QQ, c.dim)
        assert ideal_product(full, full, d) == full

    def test_duality_with_wedge(self, ex1_n1):
        c, _ = ex1_n1
        d = dual_algebra(c)
        c0 = c.span_of_labels(["a", "b[1]"])
        c1 = c.span_of_labels(["a", "b[1]", "x[1]", "y[1]"])
        assert ideal_product(c0.perp(), c0.perp(), d) == c1.perp()
        assert ideal_product(c0.perp(), c0.perp(), d) == wedge(c0, c0, c).perp()

    def test_radical_square_annihilates_c1(self, ex1_n2):
        c, _ = ex1_n2
        d = dual_algebra(c)
        j = radical(d)
        c1 = coradical_filtration(c).terms[1]
        assert ideal_product(j, j, d) == c1.perp()


class TestCoidealPredicates:
    def test_grouplike_span_is_subcoalgebra(self, ex2_n3):
        c, _ = ex2_n3
        gl = c.span_of_labels([c.labels[g] for g in c.grouplike_indices()])
        assert is_subcoalgebra(gl, c)

    def test_mixed_span_verdicts(self, ex1_n1):
        c, _ = ex1_n1
        x = c.span_of_labels(["a", "x[1]"])
        assert is_right_coideal(x, c)
        assert not is_left_coideal(x, c)
        assert not is_subcoalgebra(x, c)

    def test_zero_subspace_satisfies_all(self, ex1_n1):
        c, _ = ex1_n1
        z = Subspace.zero(QQ, c.dim)
        assert is_subcoalgebra(z, c)
        assert is_left_coideal(z, c)
        assert is_right_coideal(z, c)


class TestSkewPrimitives:
    def test_no_loops_means_zero(self, ex1_n1):
        c, basis = ex1_n1
        a = basis.index_of_label("a")
        assert skew_primitives(a, a, c).dim == 0

    def test_ex1_pair(self, ex1_n1):
        c, basis = ex1_n1
        a, b1 = basis.index_of_label("a"), basis.index_of_label("b[1]")
        space = skew_primitives(a, b1, c)
        assert space.dim == 2
        x1 = basis.index_of_label("x[1]")
        assert space.contains_vector({x1: F(1)})
        assert space.contains_vector({a: F(1), b1: F(-1)})

    def test_ex2_parallel_arrows(self, ex2_n3):
        c, basis = ex2_n3
        a, b3 = basis.index_of_label("a"), basis.index_of_label("b[3]")
        space = skew_primitives(a, b3, c)
        assert space.dim == 4

    def test_rejects_non_grouplike(self, ex1_n1):
        c, basis = ex1_n1
        with pytest.raises(ValueError):
            skew_primitives(basis.index_of_label("x[1]"),
                            basis.index_of_label("a"), c)


LADDER_ALL = """\
coalgebra ladder
param N = 3
vertex v[k], k=0..N
arrow x[k,i]: v[k-1] -> v[k], k=1..N, i=1..2
mode all
"""

# Loops at every vertex, k of them at b[k], so P_{g,g} is not zero.
LOOPS_ALL = """\
coalgebra loops
param N = 3
vertex a
vertex b[k], k=1..N
arrow s: a -> a
arrow x[k]: a -> b[k], k=1..N
arrow t[k,i]: b[k] -> b[k], k=1..N, i=1..k
mode all
"""


def grid_truncations(text, field):
    """The truncations of text over field at bounds 1..4 and every depth."""
    spec = replace(parse_spec(text), field=field)
    # A cyclic all-mode quiver has no unbounded truncation.
    depths = [1, 2, 3] if text == LOOPS_ALL else [1, 2, 3, None]
    for bound in range(1, 5):
        for depth in depths:
            yield compile_truncation(spec, bound, depth)[0]


def assert_pair_tables_match(c):
    """Each grouplike-pair entry of both tables equals the wedge and the
    perp of the ideal product computed for that pair alone."""
    grouplikes = c.grouplike_indices()
    dual = dual_algebra(c)
    lines = {g: Subspace.span(c.field, c.dim, [{g: c.field.one}]) for g in grouplikes}
    perps = {g: line.perp() for g, line in lines.items()}
    products = grouplike_product_perps(dual, grouplikes)
    pairs = {(g, h) for g in grouplikes for h in grouplikes}
    assert set(c.grouplike_wedges) == set(products) == pairs
    for g, h in pairs:
        assert c.grouplike_wedges[(g, h)] == wedge(lines[g], lines[h], c)
        assert products[(g, h)] == ideal_product(perps[g], perps[h], dual).perp()


class TestGrouplikeWedges:
    """Taft-Wilson: kg ^ kh = kg + kh + P_{g,h} with g not in P_{g,h}."""

    @pytest.mark.parametrize("text", [EX1, EX2, LADDER_ALL, LOOPS_ALL],
                             ids=["ex1", "ex2", "ladder", "loops"])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_wedge_dim_is_one_more_than_the_skew_primitives(self, text, field):
        for c in grid_truncations(text, field):
            grouplikes = c.grouplike_indices()
            assert set(c.grouplike_wedges) == {
                (g, h) for g in grouplikes for h in grouplikes}
            for (g, h), space in c.grouplike_wedges.items():
                assert space.dim - 1 == skew_primitives(g, h, c).dim

    @pytest.mark.parametrize("text", [EX1, EX2, LADDER_ALL, LOOPS_ALL],
                             ids=["ex1", "ex2", "ladder", "loops"])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_entries_equal_the_pairwise_wedge_and_product(self, text, field):
        for c in grid_truncations(text, field):
            assert_pair_tables_match(c)

    @pytest.mark.parametrize("seed,max_den", [(5, 1), (7, 3)])
    def test_entries_match_with_coefficients_other_than_0_and_1(
            self, seed, max_den, ex1_n2):
        c = change_basis(ex1_n2[0], seed, max_den, keep_grouplikes=True)
        assert c.grouplike_indices() == ex1_n2[0].grouplike_indices() != ()
        assert {x for terms in c.delta for _, _, x in terms} - {F(0), F(1)}
        assert_pair_tables_match(c)

    def test_the_table_is_built_once(self, ex1_n1):
        c, _ = ex1_n1
        assert c.grouplike_wedges is c.grouplike_wedges


def test_ideal_product_ambient_mismatch(ex1_n1):
    c, _ = ex1_n1
    d = dual_algebra(c)
    with pytest.raises(ValueError):
        ideal_product(Subspace.zero(QQ, 3), Subspace.zero(QQ, 3), d)


# -- the wedge and the dual product against their textbook formulas ----------

def wedge_by_pullback(x, y, c):
    """Reference wedge: preimage(Delta, X (x) C + C (x) Y) in dim^2 coordinates."""
    n = c.dim
    rows = []
    for u in x.basis_dicts():
        for t in range(n):
            rows.append({j * n + t: v for j, v in u.items()})
    for u in y.basis_dicts():
        for t in range(n):
            rows.append({t * n + k: v for k, v in u.items()})
    return preimage(delta_matrix(c), Subspace.span(c.field, n * n, rows), c.field)


def multiply_all_pairs(c, u, v, deltas=None):
    """Reference product: every (i, j) pair against every Delta(e_k).

    deltas, if given, is [c.delta_dict(k) for every k], computed once."""
    zero = c.field.zero
    if deltas is None:
        deltas = [c.delta_dict(k) for k in range(c.dim)]
    out = {}
    for i in range(c.dim):
        for j in range(c.dim):
            w = u.get(i, zero) * v.get(j, zero)
            if not w:
                continue
            for k in range(c.dim):
                coeff = deltas[k].get((i, j))
                if coeff:
                    out[k] = out.get(k, zero) + w * coeff
    return {k: val for k, val in out.items() if val}


def random_vector(rng, c):
    vec = {rng.randrange(c.dim): c.field.from_int(rng.randint(-3, 3))
           for _ in range(rng.randint(1, 4))}
    return {j: v for j, v in vec.items() if v}


def probe_subspaces(c, rng, count=6):
    """zero, full, the first filtration terms and random spans."""
    chain = coradical_filtration(c)
    spaces = [Subspace.zero(c.field, c.dim), Subspace.full(c.field, c.dim),
              *chain.terms[:2]]
    for _ in range(count):
        spaces.append(Subspace.span(c.field, c.dim,
                                    [random_vector(rng, c) for _ in range(rng.randint(1, 4))]))
    return spaces


def change_basis(c, seed, max_den=1, keep_grouplikes=False):
    """The structure-constants file of c in a unitriangular basis.

    f_i = e_i + sum_{a > i} p_ia e_a, each p_ia an integer in [-2, 2]
    divided by one in [1, max_den]; the file is written and loaded back
    with the axioms checked, so its coefficients are no longer 0/1.
    With keep_grouplikes, f_g = e_g for each grouplike basis vector e_g of
    c, so those stay grouplike basis vectors.
    """
    rng = random.Random(seed)
    n = c.dim
    kept = set(c.grouplike_indices()) if keep_grouplikes else set()

    def entry():
        num = rng.randint(-2, 2)
        return F(num, rng.randint(1, max_den)) if max_den > 1 else F(num)

    p = [[F(int(a == i)) if a <= i or i in kept else entry() for a in range(n)]
         for i in range(n)]
    q = [[F(int(a == i)) for a in range(n)] for i in range(n)]  # p^{-1}
    for i in reversed(range(n)):
        for a in range(i + 1, n):
            for b in range(n):
                q[i][b] -= p[i][a] * q[a][b]
    q_rows = [[(b, v) for b, v in enumerate(row) if v] for row in q]
    delta = []
    for i in range(n):
        # Delta(f_i) in the old basis, then each tensor leg in the new one.
        acc = {}
        for a in range(n):
            if p[i][a]:
                for j, k, coeff in c.delta[a]:
                    acc[(j, k)] = acc.get((j, k), F(0)) + p[i][a] * coeff
        for leg in (0, 1):
            moved = {}
            for key, w in acc.items():
                for b, v in q_rows[key[leg]]:
                    new = (b, key[1]) if leg == 0 else (key[0], b)
                    moved[new] = moved.get(new, F(0)) + w * v
            acc = moved
        delta.append(tuple((b, d, v) for (b, d), v in sorted(acc.items()) if v))
    epsilon = tuple(sum((p[i][a] * c.epsilon[a] for a in range(n)), F(0))
                    for i in range(n))
    changed = Coalgebra(field=QQ, dim=n, labels=c.labels, delta=tuple(delta),
                        epsilon=epsilon)
    return loads(dumps_coalgebra(changed), check=True).coalgebra


class TestWedgeEquivalence:
    @pytest.mark.parametrize("name,bound", [("ex1", 1), ("ex1", 3), ("ex2", 2), ("ex2", 4)])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_matches_the_pullback_on_truncations(self, name, bound, field,
                                                 ex1_spec, ex2_spec):
        spec = replace(ex1_spec if name == "ex1" else ex2_spec, field=field)
        c, basis = compile_truncation(spec, bound)
        rng = random.Random(bound)
        spaces = probe_subspaces(c, rng)
        # a span that is not a subcoalgebra
        mixed = c.span_of_labels(["a", basis.paths[-1].label])
        assert not is_subcoalgebra(mixed, c)
        spaces.append(mixed)
        for x in spaces:
            for y in spaces:
                assert wedge(x, y, c) == wedge_by_pullback(x, y, c)

    def test_matches_the_pullback_in_an_integer_basis(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        assert any(v not in (0, 1) for terms in c.delta for _, _, v in terms)
        spaces = probe_subspaces(c, random.Random(3))
        for x in spaces:
            for y in spaces:
                assert wedge(x, y, c) == wedge_by_pullback(x, y, c)

    def test_never_builds_the_pullback(self, ex1_n1):
        # The dim^2 Delta matrix lives only in the tests' reference module.
        assert not hasattr(Coalgebra, "delta_matrix")
        c, _ = ex1_n1
        c0 = c.span_of_labels(["a", "b[1]"])
        assert wedge(c0, c0, c).dim == 4


class TestMultiplyEquivalence:
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_matches_the_all_pairs_loop(self, field, ex2_spec):
        c, _ = compile_truncation(replace(ex2_spec, field=field), 3)
        d = dual_algebra(c)
        rng = random.Random(11)
        for _ in range(40):
            u, v = random_vector(rng, c), random_vector(rng, c)
            assert multiply(d, u, v) == multiply_all_pairs(c, u, v)

    def test_matches_the_all_pairs_loop_in_an_integer_basis(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        d = dual_algebra(c)
        rng = random.Random(13)
        basis_vectors = [{i: F(1)} for i in range(c.dim)]
        for u in basis_vectors:
            for v in basis_vectors:
                assert multiply(d, u, v) == multiply_all_pairs(c, u, v)
        for _ in range(40):
            u, v = random_vector(rng, c), random_vector(rng, c)
            assert multiply(d, u, v) == multiply_all_pairs(c, u, v)

    def test_left_mult_matrix_agrees_with_multiply(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=5)
        d = dual_algebra(c)
        rng = random.Random(17)
        for _ in range(20):
            u, v = random_vector(rng, c), random_vector(rng, c)
            assert left_mult_matrix(d, u).apply(v) == multiply_all_pairs(c, u, v)


def ideal_product_by_pairs(x, y, c):
    """Reference ideal product: the span of u * v over every pair of basis
    vectors, each product taken against every Delta(e_k)."""
    deltas = [c.delta_dict(k) for k in range(c.dim)]
    return Subspace.span(c.field, c.dim, [multiply_all_pairs(c, u, v, deltas)
                                          for u in x.basis_dicts()
                                          for v in y.basis_dicts()])


def filtration_by_pairs(c):
    """Reference coradical filtration: perps of the powers of the radical,
    each power taken with the reference ideal product."""
    j = radical(dual_algebra(c))
    power, terms = j, [j.perp()]
    while terms[-1].dim < c.dim:
        power = ideal_product_by_pairs(power, j, c)
        if power.perp() == terms[-1]:
            break
        terms.append(power.perp())
    return tuple(terms)


class TestIdealProductEquivalence:
    @staticmethod
    def operands(c, rng):
        """zero, full, C0, C1, two random spans, and the perps of each."""
        spaces = probe_subspaces(c, rng, count=2)
        return list(dict.fromkeys(spaces + [s.perp() for s in spaces]))

    @staticmethod
    def assert_matches(c, spaces):
        d = dual_algebra(c)
        full = Subspace.full(c.field, c.dim)
        # some operands are not one-sided ideals of the dual
        assert any(not contains(x, ideal_product(full, x, d)) for x in spaces)
        for x in spaces:
            for y in spaces:
                assert ideal_product(x, y, d) == ideal_product_by_pairs(x, y, c)

    @pytest.mark.parametrize("name,bound", [("ex1", 1), ("ex1", 2), ("ex2", 2), ("ex2", 3)])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_matches_the_span_of_all_pairs(self, name, bound, field,
                                           ex1_spec, ex2_spec):
        spec = replace(ex1_spec if name == "ex1" else ex2_spec, field=field)
        c, _ = compile_truncation(spec, bound)
        self.assert_matches(c, self.operands(c, random.Random(bound)))

    def test_matches_the_span_of_all_pairs_in_an_integer_basis(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        spaces = self.operands(c, random.Random(5))
        assert any(len(row) > 1 for s in spaces for row in s.basis)
        self.assert_matches(c, spaces)

    @pytest.mark.parametrize("name,bound", [("ex1", 3), ("ex2", 3)])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_filtration_terms_unchanged(self, name, bound, field, ex1_spec, ex2_spec):
        spec = replace(ex1_spec if name == "ex1" else ex2_spec, field=field)
        c, _ = compile_truncation(spec, bound)
        assert coradical_filtration(c).terms == filtration_by_pairs(c)

    def test_filtration_terms_unchanged_in_an_integer_basis(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=7)
        assert coradical_filtration(c).terms == filtration_by_pairs(c)


# -- the axiom check against sums of field scalars -----------------------------

def check_axioms_in_field_scalars(c):
    """Reference axiom check: both sides of coassociativity accumulate
    field scalars term by term, then the counit laws as check_axioms."""
    zero, fmt = c.field.zero, c.field.format
    failures = []
    for i in range(c.dim):
        lhs, rhs = {}, {}
        for j, k, coeff in c.delta[i]:
            for r, s, coeff2 in c.delta[j]:
                lhs[(r, s, k)] = lhs.get((r, s, k), zero) + coeff * coeff2
            for r, s, coeff2 in c.delta[k]:
                rhs[(j, r, s)] = rhs.get((j, r, s), zero) + coeff * coeff2
        for key in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(key, zero), rhs.get(key, zero)
            if a != b:
                failures.append(AxiomFailure(
                    "coassociativity", c.labels[i],
                    tuple(c.labels[t] for t in key), fmt(a), fmt(b)))
                if len(failures) >= MAX_FAILURES:
                    return AxiomReport(False, tuple(failures))
    for i in range(c.dim):
        left, right = {}, {}
        for j, k, coeff in c.delta[i]:
            left[k] = left.get(k, zero) + coeff * c.epsilon[j]
            right[j] = right.get(j, zero) + coeff * c.epsilon[k]
        expected = {i: c.field.one}
        for law, got in (("counit-left", left), ("counit-right", right)):
            got = {k: v for k, v in got.items() if v}
            if got != expected:
                bad = min(k for k in set(got) | set(expected)
                          if got.get(k, zero) != expected.get(k, zero))
                failures.append(AxiomFailure(
                    law, c.labels[i], (c.labels[bad],),
                    fmt(got.get(bad, zero)), fmt(expected.get(bad, zero))))
                if len(failures) >= MAX_FAILURES:
                    return AxiomReport(False, tuple(failures))
    return AxiomReport(not failures, tuple(failures))


def trigonometric_coalgebra(field=QQ):
    """span{c, s} with Delta c = c c - s s, Delta s = s c + c s: simple over
    QQ, and no basis vector is grouplike."""
    one = field.one
    return Coalgebra(field=field, dim=2, labels=("c", "s"),
                     delta=(((0, 0, one), (1, 1, -one)), ((0, 1, one), (1, 0, one))),
                     epsilon=(one, field.zero))


def off_by(terms, by):
    """terms with by added to the constant of its first entry."""
    (j, k, v), *rest = terms
    return ((j, k, v + by), *rest)


def with_delta_off(c, label, by):
    """c with the first constant of Delta(label) off by by."""
    delta = list(c.delta)
    i = c.label_index(label)
    delta[i] = off_by(delta[i], by)
    return Coalgebra(field=c.field, dim=c.dim, labels=c.labels,
                     delta=tuple(delta), epsilon=c.epsilon)


def with_epsilon_off(c, label, by):
    """c with the counit of label off by by."""
    epsilon = list(c.epsilon)
    epsilon[c.label_index(label)] += by
    return replace(c, epsilon=tuple(epsilon))


# Delta(a) = a (x) a + a (x) b, so (epsilon (x) id)Delta(a) = a + b agrees
# with a at a and first differs at b.
COUNIT_EXAMPLE = ("dim 2\nlabel 0 a\nlabel 1 b\ndelta 0: 0 0 1; 0 1 1\n"
                  "delta 1: 1 1 1\nepsilon: 1 1\n")


def common_denominator(constants):
    return lcm(*(x.denominator for x in constants))


def residue_sums_vanish(c):
    """Whether the coassociativity sums of GF(p) residues, taken as plain
    integers without reduction, are all zero."""
    for i in range(c.dim):
        diff = {}
        for j, k, a in c.delta[i]:
            for r, s, b in c.delta[j]:
                diff[(r, s, k)] = diff.get((r, s, k), 0) + a.val * b.val
            for r, s, b in c.delta[k]:
                diff[(j, r, s)] = diff.get((j, r, s), 0) - a.val * b.val
        if any(diff.values()):
            return False
    return True


class TestAxiomCheckEquivalence:
    """check_axioms sums integer images; the reference sums field scalars."""

    @staticmethod
    def report(c):
        report = check_axioms(c)
        assert report == check_axioms_in_field_scalars(c)
        # A failure is reported only where its two sides differ.
        assert all(f.lhs != f.rhs for f in report.failures)
        return report

    @pytest.mark.parametrize("name,bound", [("ex1", 1), ("ex1", 3), ("ex2", 2), ("ex2", 3)])
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_truncations(self, name, bound, field, ex1_spec, ex2_spec):
        spec = replace(ex1_spec if name == "ex1" else ex2_spec, field=field)
        assert self.report(compile_truncation(spec, bound)[0]).ok

    @pytest.mark.parametrize("seed", [5, 7])
    def test_integer_basis(self, seed, ex1_n2):
        assert self.report(change_basis(ex1_n2[0], seed)).ok

    def test_rational_basis(self, ex1_n2):
        c = change_basis(ex1_n2[0], seed=3, max_den=3)
        assert common_denominator(x for terms in c.delta for _, _, x in terms) > 1
        assert self.report(c).ok

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_trigonometric(self, field):
        assert self.report(trigonometric_coalgebra(field)).ok

    @pytest.mark.parametrize("field", [GF(5), GF(7)], ids=["GF5", "GF7"])
    def test_sums_that_vanish_only_mod_p(self, field, ex1_n2):
        # A rational basis read over GF(p): the residues of its fractions
        # satisfy coassociativity mod p only.
        text = dumps_coalgebra(change_basis(ex1_n2[0], seed=3, max_den=3))
        c = loads(text, field).coalgebra
        assert not residue_sums_vanish(c)
        assert self.report(c).ok

    def test_mutant_off_by_a_third(self, ex1_n2):
        c = with_delta_off(change_basis(ex1_n2[0], seed=5), "x[1]", F(1, 3))
        report = self.report(c)
        assert not report.ok
        assert any("/" in f.lhs + f.rhs for f in report.failures)

    def test_mutant_off_by_two_over_gf(self, ex2_spec):
        c, _ = compile_truncation(replace(ex2_spec, field=GF(101)), 2)
        report = self.report(with_delta_off(c, "x[1,1]", GF(101).from_int(2)))
        assert not report.ok

    def test_printed_mutant(self, ex1_n1):
        report = self.report(mutant_ex1(ex1_n1))
        assert [f.law for f in report.failures] == ["coassociativity"] * 2

    def test_failures_stop_at_the_cap(self, ex2_n3):
        c = with_delta_off(change_basis(ex2_n3[0], seed=5), "a", F(1, 3))
        assert len(self.report(c).failures) == MAX_FAILURES

    def test_counit_off_by_a_third(self, ex1_n2):
        c = with_epsilon_off(change_basis(ex1_n2[0], seed=5), "x[1]", F(1, 3))
        report = self.report(c)
        assert {f.law for f in report.failures} == {"counit-left", "counit-right"}
        assert any("/" in f.lhs + f.rhs for f in report.failures)

    def test_counit_off_by_two_over_gf(self, ex2_spec):
        c, _ = compile_truncation(replace(ex2_spec, field=GF(101)), 2)
        report = self.report(with_epsilon_off(c, "a", GF(101).from_int(2)))
        assert {f.law for f in report.failures} == {"counit-left", "counit-right"}

    def test_counit_names_the_first_position_that_differs(self):
        report = self.report(loads(COUNIT_EXAMPLE).coalgebra)
        left = next(f for f in report.failures if f.law == "counit-left")
        assert (left.element, left.position, left.lhs, left.rhs) == ("a", ("b",), "1", "0")

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_passing_inputs_do_no_field_arithmetic(self, field, ex1_spec, monkeypatch):
        c, _ = compile_truncation(replace(ex1_spec, field=field), 3)
        modules = [regular_comodule(c, side) for side in ("left", "right")]

        def forbidden(*args):
            raise AssertionError("the axiom check did field arithmetic")
        for field_type in (Rationals, PrimeField):
            for name in ("zero", "one"):
                monkeypatch.setattr(field_type, name, property(forbidden))
        for scalar_type in (F, GFElement):
            for name in ("__add__", "__sub__", "__mul__"):
                monkeypatch.setattr(scalar_type, name, forbidden)
        assert check_axioms(c).ok
        assert all(check_comodule(m).ok for m in modules)
