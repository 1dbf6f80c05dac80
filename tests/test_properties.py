"""Cross-cutting properties on randomly generated acyclic quivers.

Each generated presentation uses all-paths mode on a random DAG, so the
enumerated basis is automatically subpath-closed; the checks below are
the package-wide invariants that every compiled truncation must satisfy.
The radical and socle-series properties run on changed-basis images of
ex1, ex2 and the ladder, whose structure constants are no longer 0/1.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dual_action, is_subcoalgebra, left_mult_matrix, row_dicts, vstack
from test_coalg import LADDER_ALL, change_basis
from test_comod import loewy_by_preimages
from test_quiverlab import _record_calls

from qcalg import coalg, exactlin
from qcalg.coalg import (
    DualAlgebra,
    check_axioms,
    coradical_filtration,
    dual_algebra,
    dual_and_radical,
    ideal_product,
    radical,
    wedge,
)
from qcalg.comod import (
    hom_space,
    loewy_series,
    quotient,
    regular_comodule,
    simple_comodule,
    socle,
    socle_annihilator_check,
)
from qcalg.exactlin import GF, QQ, Matrix, Subspace, kernel, kernel_on
from qcalg.quiverlab import compile_truncation, parse_spec
from qcalg.quiverlab.registry import EX1, EX2
from qcalg.textfmt import dumps_coalgebra, loads


def random_dag_spec(rng: random.Random) -> str:
    n_vertices = rng.randint(2, 5)
    lines = [f"coalgebra dag{rng.randrange(10**6)}", "mode all"]
    for i in range(1, n_vertices + 1):
        lines.append(f"vertex v{i}")
    arrow_id = 0
    for i in range(1, n_vertices + 1):
        for j in range(i + 1, n_vertices + 1):
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                arrow_id += 1
                lines.append(f"arrow e{arrow_id}: v{i} -> v{j}")
    return "\n".join(lines) + "\n"


def test_random_dags_satisfy_the_package_invariants():
    rng = random.Random(424242)
    for _ in range(20):
        spec = parse_spec(random_dag_spec(rng))
        depth = rng.randint(1, 3)
        c, basis = compile_truncation(spec, depth=depth)
        assert check_axioms(c).ok

        grouplikes = Subspace.span(QQ, c.dim,
                                   [{g: F(1)} for g in c.grouplike_indices()])
        d = dual_algebra(c)
        j = radical(d)
        assert j == grouplikes.perp()

        chain = coradical_filtration(c)
        for term in chain.terms:
            assert is_subcoalgebra(term, c)
        assert loewy_series(regular_comodule(c, "right")).dims() == chain.dims()
        assert loewy_series(regular_comodule(c, "left")).dims() == chain.dims()
        assert socle_annihilator_check(regular_comodule(c, "right"))

        # wedge/ideal-product duality on the filtration terms
        for u in chain.terms:
            for w in chain.terms:
                assert wedge(u, w, c) == ideal_product(u.perp(), w.perp(), d).perp()


def test_depth_coherence_on_random_dags():
    rng = random.Random(99)
    for _ in range(8):
        spec = parse_spec(random_dag_spec(rng))
        shallow, sbasis = compile_truncation(spec, depth=1)
        deep, dbasis = compile_truncation(spec, depth=3)
        inject = Matrix(deep.dim, shallow.dim,
                        {(dbasis.index_of_label(l), i): F(1)
                         for i, l in enumerate(sbasis.labels())})
        span = Subspace.span(QQ, deep.dim,
                             [{dbasis.index_of_label(l): F(1)}
                              for l in sbasis.labels()])
        for i, label in enumerate(sbasis.labels()):
            got = deep.delta_dict(dbasis.index_of_label(label))
            want = {(dbasis.index_of_label(sbasis.labels()[j]),
                     dbasis.index_of_label(sbasis.labels()[k])): v
                    for (j, k), v in shallow.delta_dict(i).items()}
            assert got == want
        c0 = coradical_filtration(shallow).terms[0]
        w_shallow = wedge(c0, c0, shallow)
        c0_deep = Subspace.span(QQ, deep.dim,
                                [inject.apply(v) for v in c0.basis_dicts()])
        w_deep = wedge(c0_deep, c0_deep, deep)
        embedded = Subspace.span(QQ, deep.dim,
                                 [inject.apply(v) for v in w_shallow.basis_dicts()])
        assert embedded == w_deep.intersect(span)


def test_concurrent_evaluation_matches_serial(ex1_n3):
    c, _ = ex1_n3
    chain = coradical_filtration(c)
    pieces = [chain.terms[0], chain.terms[1], c.span_of_labels(["a"])]
    jobs = [(u, w) for u in pieces for w in pieces]
    serial = [wedge(u, w, c) for u, w in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda uw: wedge(uw[0], uw[1], c), jobs))
    assert serial == parallel


@lru_cache(maxsize=None)
def truncation(name: str, bound: int):
    text = {"ex1": EX1, "ex2": EX2, "ladder": LADDER_ALL}[name]
    return compile_truncation(parse_spec(text), bound)[0]


def trace_gram_by_pairs(a: DualAlgebra) -> dict:
    """Reference Gram matrix: tr(L_i L_j) from the left-multiplication
    matrices of the dual basis, zeros dropped."""
    mats = [left_mult_matrix(a, {i: a.field.one}).entries for i in range(a.dim)]
    gram = {}
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            acc = a.field.zero
            for (k, t), v in mi.items():
                if (t, k) in mj:
                    acc = acc + v * mj[(t, k)]
            if acc:
                gram[(i, j)] = acc
    return gram


def next_prime_above(n: int) -> int:
    p = n + 1
    while any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("ex1", 1), ("ex1", 2), ("ex2", 1), ("ex2", 2),
                        ("ladder", 1), ("ladder", 2)]),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([1, 3]),
       st.sampled_from(["QQ", "GF(p), p just above dim", "GF(10007)"]))
def test_radical_gram_is_the_trace_form(case, seed, max_den, field):
    c = change_basis(truncation(*case), seed=seed, max_den=max_den)
    if field != "QQ":
        p = 10007 if field == "GF(10007)" else next_prime_above(c.dim)
        c = loads(dumps_coalgebra(c), field=GF(p), check=True).coalgebra
    a = dual_algebra(c)
    with mock.patch.object(coalg, "kernel", wraps=coalg.kernel) as spy:
        j = radical(a)
    old = trace_gram_by_pairs(a)
    assert [{(r, col): v for r, row in call.args[0].items() for col, v in row.items()}
            for call in spy.call_args_list] == [old]
    gram = Matrix(a.dim, a.dim, old)
    assert j == kernel(dict(enumerate(row_dicts(gram))), gram.cols, a.field)


def test_radical_builds_no_left_mult_matrix(patch_everywhere):
    # The Gram matrix is read off the structure constants: no L_x is built,
    # and the package has no way to build one.
    a = dual_algebra(change_basis(truncation("ex1", 2), seed=3))
    kernels = _record_calls(patch_everywhere, exactlin, "kernel")
    j = radical(a)
    assert (len(kernels), j.dim) == (1, 6)
    assert not hasattr(DualAlgebra, "left_mult_matrix")


@lru_cache(maxsize=None)
def changed_truncation(case, seed: int, max_den: int, prime: bool):
    """A changed-basis image of a truncation whose grouplikes stay basis
    vectors, over QQ or over GF(p) for the least prime p above its dim."""
    c = change_basis(truncation(*case), seed=seed, max_den=max_den,
                     keep_grouplikes=True)
    if prime:
        p = next_prime_above(c.dim)
        c = loads(dumps_coalgebra(c), field=GF(p), check=True).coalgebra
    return c


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("ex1", 1), ("ex1", 2), ("ex1", 3), ("ex2", 1), ("ex2", 2),
                        ("ex2", 3), ("ladder", 1), ("ladder", 2)]),
       st.sampled_from([0, 1]),
       st.sampled_from([1, 2]),
       st.booleans(),
       st.sampled_from(["right", "left"]),
       st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
def test_socle_series_is_the_meet_of_preimages(case, seed, max_den, prime, side,
                                               vertex):
    # M is C or C/kv, v a grouplike; the stacked radical action must give
    # the reference series, the socle of the per-element action matrices
    # and the annihilator identity.  The ladder stops at bound 2: its
    # changed-basis image at bound 3 is dense in dim 26 and takes seconds
    # per example; TestSocleSeriesEquivalence runs its 0/1 basis.
    c = changed_truncation(case, seed, max_den, prime)
    m = regular_comodule(c, side)
    if vertex is not None:
        grouplikes = c.grouplike_indices()
        g = grouplikes[vertex % len(grouplikes)]
        m = quotient(m, c.span_of_labels([c.labels[g]]))
    _, j = dual_and_radical(c)
    actions = vstack([dual_action(f, m) for f in j.basis_dicts()])
    assert loewy_series(m) == loewy_by_preimages(m)
    assert socle(m) == kernel(dict(enumerate(row_dicts(actions))), actions.cols, c.field)
    assert socle_annihilator_check(m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("ex1", 1), ("ex1", 2), ("ex1", 3), ("ex2", 1), ("ex2", 2),
                        ("ex2", 3)]),
       st.sampled_from([0, 1, 2]))
def test_rational_scalars_are_ints_or_fractions(case, seed):
    # Over QQ an integral scalar is an int and any other a Fraction: a
    # float would be an inexact quotient, a bool a comparison taken for a
    # number.  The changed basis puts denominators up to 3 into Delta.
    c = changed_truncation(case, seed, 3, False)
    assert c.field == QQ
    c0, c1 = coradical_filtration(c).terms[:2]
    j = radical(dual_algebra(c))
    m = regular_comodule(c, "right")
    spaces = [
        j,
        kernel(dict(enumerate(j.basis_dicts())), c.dim, QQ),
        kernel_on(c1, [c0.reduce_vector(b) for b in c1.basis_dicts()]),
        wedge(c0, c0, c).intersect(c1),
        wedge(c0, c1, c),
        *loewy_series(m).terms,
    ]
    scalars = [v for space in spaces for row in space.basis for _, v in row]
    for g in c.grouplike_indices():
        _, maps = hom_space(simple_comodule(c, g, "right"), m)
        scalars.extend(v for f in maps for v in f.entries.values())
    assert scalars
    assert {type(v) for v in scalars} <= {int, F}
