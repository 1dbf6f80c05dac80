"""Cross-cutting properties on randomly generated acyclic quivers.

Each generated presentation uses all-paths mode on a random DAG, so the
enumerated basis is automatically subpath-closed; the checks below are
the package-wide invariants that every compiled truncation must satisfy.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

from qcalg.coalg import (
    check_axioms,
    coradical_filtration,
    dual_algebra,
    ideal_product,
    radical,
    wedge,
)
from qcalg.comod import (
    is_subcoalgebra,
    loewy_series,
    regular_comodule,
    socle_annihilator_check,
)
from qcalg.exactlin import QQ, Matrix, Subspace
from qcalg.quiverlab import compile_truncation, parse_spec


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
