"""Cross-cutting properties on randomly generated acyclic quivers.

Each generated presentation uses all-paths mode on a random DAG, so the
enumerated basis is automatically subpath-closed; the checks below are
the package-wide invariants that every compiled truncation must satisfy.
The radical and socle-series properties run on changed-basis images of
ex1, ex2 and the ladder, whose structure constants are no longer 0/1.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (basis_embedding, dual_action, image_rows, is_subcoalgebra,
                       left_mult_matrix, reference_compile, reference_declared_basis,
                       row_dicts, vstack)
from test_coalg import LADDER_ALL, STAR_ALL, change_basis
from test_comod import loewy_by_preimages
from test_quiverlab import GROWING, MOVING, _record_calls

from qcalg import coalg, comod, exactlin
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
    multiplicity_table,
    quotient,
    regular_comodule,
    simple_comodule,
    socle,
    socle_annihilator_check,
    weight_space,
)
from qcalg.exactlin import GF, QQ, Matrix, Subspace, kernel, kernel_on
from qcalg.quiverlab import DslError, analyze, compile_truncation, enumerate_paths, parse_spec
from qcalg.quiverlab.analyze import fnoetherian_sweep
from qcalg.quiverlab.paths import (Path, PathBasis, enumerate_instance, instantiate,
                                   path_counts)
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


def declared_dag_spec(rng: random.Random) -> str:
    """random_dag_spec in declared mode: a random set of its walks of
    length two or more, closed under subpaths, each declared as a path."""
    text = random_dag_spec(rng)
    walks = [p.arrows for p in enumerate_paths(parse_spec(text)).paths if p.length >= 2]
    chosen = {w for w in walks if rng.random() < 0.4}
    for w in list(chosen):
        chosen.update(w[i:j] for i in range(len(w)) for j in range(i + 2, len(w) + 1))
    lines = text.replace("mode all", "mode declared").splitlines()
    for k, w in enumerate(sorted(chosen, key=lambda w: [a.label for a in w])):
        lines.append(f"path w{k} = {' . '.join(a.label for a in w)}")
    return "\n".join(lines) + "\n"


def outcome(route, *args):
    """What route(*args) returns, or the type, message and line of the
    DslError it raises."""
    try:
        return route(*args)
    except DslError as err:
        return (type(err), str(err), err.line)


def counted_paths_match_the_enumeration(spec, inst) -> bool:
    """path_counts of an instance against its enumeration, per side and
    vertex, or, where the enumeration refuses the instance, the same
    refusal: one type, message and line."""
    basis = outcome(enumerate_instance, spec, inst)
    counts = outcome(path_counts, spec, inst)
    if not isinstance(basis, PathBasis):
        return counts == basis
    for side, end in (("left", "target"), ("right", "source")):
        enumerated = Counter(getattr(p, end).label for p in basis.paths)
        if counts[side] != dict(enumerated):
            return False
    return True


@st.composite
def drawn_quivers(draw, mode: str):
    """A spec in mode of up to four vertices and two to six arrows, loops and
    cycles allowed, over QQ or GF(7), and its instance."""
    n = draw(st.integers(min_value=1, max_value=4))
    ends = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                         min_size=2, max_size=6))
    lines = ["coalgebra drawn", f"mode {mode}"]
    lines += [f"vertex v{i}" for i in range(1, n + 1)]
    lines += [f"arrow e{k}: v{i} -> v{j}" for k, (i, j) in enumerate(ends)]
    spec = replace(parse_spec("\n".join(lines) + "\n"),
                   field=draw(st.sampled_from([QQ, GF(7)])))
    return spec, instantiate(spec)


@st.composite
def declared_lists(draw):
    """A declared-mode spec and its instance with a drawn declared list:
    one to four walks of up to four arrows, closed under subpaths and
    listed in a drawn order, then perhaps broken by up to three faults.  A
    fault drops the prefix, the tail or the middle of a listed chain, one
    of two arrows or more, or lists a chain twice.  Labels are
    distinct and lines drawn from 1..9, so coinciding paths may share one."""
    spec, inst = draw(drawn_quivers("declared"))
    chains: set = set()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        chain = [draw(st.sampled_from(inst.arrows))]
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            after = [a for a in inst.arrows if a.src == chain[-1].dst]
            if not after:
                break
            chain.append(draw(st.sampled_from(after)))
        chains.update(tuple(chain[i:j]) for i in range(len(chain))
                      for j in range(i + 2, len(chain) + 1))
    listed = list(draw(st.permutations(sorted(chains, key=lambda c: [a.label for a in c]))))
    faults = draw(st.lists(st.sampled_from(["prefix", "tail", "middle", "twice"]),
                           max_size=3))
    for fault in faults:
        # The cut has two arrows or more, so it is a listed chain.
        fit = [c for c in listed if len(c) >= (4 if fault == "middle" else 3)
               or fault == "twice"]
        if not fit:
            continue
        chain = draw(st.sampled_from(fit))
        if fault == "twice":
            listed.insert(draw(st.integers(min_value=0, max_value=len(listed))), chain)
        else:
            cut = {"prefix": chain[:-1], "tail": chain[1:], "middle": chain[1:-1]}[fault]
            listed = [c for c in listed if c != cut]
    declared = tuple(Path(f"w{k}", c[0].src, c[-1].dst, c,
                          draw(st.integers(min_value=1, max_value=9)))
                     for k, c in enumerate(listed))
    return spec, replace(inst, declared_paths=declared)


@settings(max_examples=300, deadline=None)
@given(declared_lists(), st.sampled_from([None, 1, 2]))
def test_a_declared_list_is_checked_and_linked_as_by_every_subpath(drawn, depth):
    # Checking each path's prefix and tail in canonical order refuses what
    # checking every subpath refuses, with the same message and line, and
    # linking by key gives the links that walking each path's arrows gives.
    spec, inst = drawn
    assert outcome(enumerate_instance, spec, inst, depth) == \
        outcome(reference_declared_basis, inst, depth)
    assert counted_paths_match_the_enumeration(spec, inst)


@settings(max_examples=100, deadline=None)
@given(drawn_quivers("all"))
def test_counts_refuse_a_cyclic_all_mode_instance_as_enumeration_does(drawn):
    spec, inst = drawn
    assert counted_paths_match_the_enumeration(spec, inst)


class TestTrieCompileMatchesTheKeyTupleCompile:
    """compile_truncation walks the prefix and tail links of the path
    trie; reference_compile looks every Delta term up by key tuples.  Both
    must give the same labels, Delta and epsilon."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("mode", ["all", "declared"])
    def test_random_dags(self, mode, field):
        rng = random.Random(2024)
        make = random_dag_spec if mode == "all" else declared_dag_spec
        for _ in range(15):
            spec = replace(parse_spec(make(rng)), field=field)
            assert spec.path_mode == mode
            for depth in (None, 0, 1, 2):
                assert compile_truncation(spec, depth=depth)[0] == \
                    reference_compile(spec, depth=depth)
            assert counted_paths_match_the_enumeration(spec, instantiate(spec))

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("depth", [None, 0, 1, 2])
    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_ex1_and_ex2(self, name, depth, field):
        spec = replace(parse_spec({"ex1": EX1, "ex2": EX2}[name]), field=field)
        for n in range(9):
            assert compile_truncation(spec, n, depth)[0] == reference_compile(spec, n, depth)
            assert counted_paths_match_the_enumeration(spec, instantiate(spec, n))

    @pytest.mark.parametrize("depth", [None, 0, 1, 2])
    @pytest.mark.parametrize("text", [LADDER_ALL, STAR_ALL], ids=["ladder", "star"])
    def test_the_ladder_and_the_star(self, text, depth):
        spec = replace(parse_spec(text), field=GF(7))
        for n in range(6):
            assert compile_truncation(spec, n, depth)[0] == reference_compile(spec, n, depth)
            assert counted_paths_match_the_enumeration(spec, instantiate(spec, n))


def own_table_columns(spec, sweep, depth) -> dict:
    """The sweep's columns with every bound compiled and read from its own
    grouplike_wedges, the route before bounds were placed in a reference."""
    first, _ = compile_truncation(spec, min(sweep), depth)
    vertices = sorted(first.labels[g] for g in first.grouplike_indices())
    tables = {side: {v: [] for v in vertices} for side in ("left", "right")}
    for bound in sweep:
        c, _ = compile_truncation(spec, bound, depth)
        at = {c.labels[g]: g for g in c.grouplike_indices()}
        vertices = [v for v in vertices if v in at]
        for side, columns in tables.items():
            for v in vertices:
                best, best_simple = 0, None
                for h in c.grouplike_indices():
                    pair = (at[v], h) if side == "right" else (h, at[v])
                    if c.grouplike_wedges[pair].dim - 1 > best:
                        best, best_simple = c.grouplike_wedges[pair].dim - 1, c.labels[h]
                columns[v].append({"N": bound, "max_multiplicity": best,
                                   "at_simple": best_simple})
    return {side: {v: columns[v] for v in vertices} for side, columns in tables.items()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["dag", "declared-dag", "moving", "growing"]),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([QQ, GF(7)]),
       st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=4),
       st.sampled_from([None, 0, 1, 2]))
def test_a_placed_sweep_bound_reads_what_its_compile_gives(family, seed, field, sweep,
                                                           n, depth):
    # On every sweep bound, the instance test (PathBasis.place_in) agrees
    # with basis_embedding of the compiled bound, and the sweep's tables
    # equal those of the route that compiles every bound.
    text = {"dag": lambda: random_dag_spec(random.Random(seed)),
            "declared-dag": lambda: declared_dag_spec(random.Random(seed)),
            "moving": lambda: MOVING, "growing": lambda: GROWING}[family]()
    spec = replace(parse_spec(text), field=field)
    top = max(max(sweep), n)
    reference, reference_basis = compile_truncation(spec, top, depth)
    for bound in sweep:
        sub, basis = compile_truncation(spec, bound, depth)
        assert basis.place_in(reference_basis) == basis_embedding(sub, reference)
    got = fnoetherian_sweep(spec, sweep, depth, n, compile_truncation(spec, n, depth))
    assert {side: got[side]["tables"] for side in got} == own_table_columns(spec, sweep, depth)


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
        kernel_on(c1, image_rows([c0.reduce_vector(b) for b in c1.basis_dicts()])),
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


def recording_kernel_on(reads: list):
    """kernel_on, appending to reads, per call, its space, its rows, and
    deep copies of the space's columns and of the rows as the call starts."""
    def recorder(space, rows):
        reads.append((space, copy.deepcopy(space.columns), rows, copy.deepcopy(rows)))
        return exactlin.kernel_on(space, rows)
    return recorder


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("ex1", 1), ("ex1", 2), ("ex2", 1), ("ex2", 2)]),
       st.sampled_from([QQ, GF(7)]),
       st.sampled_from(["right", "left"]),
       st.integers(min_value=0, max_value=3))
def test_the_cuts_write_no_columns_and_no_rows(case, field, side, vertex):
    # The weight table's shared rows and a sweep bound's reads of the
    # reference table are handed to kernel_on once per grouplike or pair:
    # neither the rows nor the columns they are cut from may change.
    name, bound = case
    spec = replace(parse_spec({"ex1": EX1, "ex2": EX2}[name]), field=field)
    sub, sub_basis = compile_truncation(spec, bound)
    reference, reference_basis = compile_truncation(spec, bound + 1)
    grouplikes = sub.grouplike_indices()
    g = grouplikes[vertex % len(grouplikes)]
    m = quotient(regular_comodule(sub, side), sub.span_of_labels([sub.labels[g]]))
    reads: list = []
    with mock.patch.object(comod, "kernel_on", recording_kernel_on(reads)):
        table = multiplicity_table(m)
    assert table == {sub.labels[h]: weight_space(m, h).dim for h in grouplikes}
    table_columns = {pair: copy.deepcopy(space.columns)
                     for pair, space in reference.grouplike_wedges.items()}
    place = sub_basis.place_in(reference_basis)
    assert place == [reference.label_index(label) for label in sub.labels]
    read = analyze._pair_wedges(reference, place)
    with mock.patch.object(analyze, "kernel_on", recording_kernel_on(reads)):
        wedges = {(u, w): read((u, w)) for u in grouplikes for w in grouplikes}
    for (u, w), space in wedges.items():
        own = sub.grouplike_wedges[(u, w)]
        assert space == Subspace.span(field, reference.dim,
                                      [{place[j]: c for j, c in row}
                                       for row in own.basis])
    assert len(reads) == len(grouplikes) + len(wedges)
    for space, columns, rows, handed in reads:
        assert space.columns == columns and rows == handed
    assert {pair: space.columns for pair, space in reference.grouplike_wedges.items()} \
        == table_columns
