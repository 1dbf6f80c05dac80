from __future__ import annotations

import ast
import inspect
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from reference import basis_embedding
from test_coalg import LADDER_ALL, LOOPS_ALL, STAR_ALL

from qcalg import coalg, comod, exactlin
from qcalg.coalg import Coalgebra, check_axioms, coradical_filtration, wedge
from qcalg.comod import (
    dual_and_radical,
    loewy_series,
    multiplicity_table,
    quotient_with_projection,
    regular_comodule,
)
from qcalg.exactlin import GF, QQ, Matrix, Subspace
from qcalg.quiverlab import (
    ClosureError,
    DslError,
    compile_truncation,
    enumerate_paths,
    instantiate,
    parse_spec,
)
from qcalg.quiverlab import analyze, dsl, paths
from qcalg.quiverlab.paths import Arrow, Vertex
from qcalg.quiverlab.analyze import (
    analyze_spec,
    degree_tables,
    fnoetherian_sweep,
    locally_finite_verdict,
    semiperfect_verdict,
)
from qcalg.quiverlab.registry import EX1, EX2, builtin_names, builtin_text

UNBOUNDED = """\
coalgebra unbounded
param N = 2
vertex a
vertex b
arrow z[k]: a -> b, k=1..N
"""

LOOP = """\
coalgebra loop
vertex a
vertex b
arrow f: a -> b
arrow g: b -> a
mode all
"""

# The endpoint b[M] names no parameter, but the range i=1..N-2 has no
# values at the default N = 2.
LAZY_ENDPOINT = """\
coalgebra lazy
param N = 2
vertex a
vertex b[n], n=1..N
arrow x[i]: a -> b[M], i=1..N-2
"""

CHAIN = """\
coalgebra chain
vertex v[i], i=1..3
arrow e[i]: v[i] -> v[i+1], i=1..2
mode all
"""

SINGLE = """\
coalgebra single
vertex only
"""

# A two-cycle b <-> c with a tail in (a -> b) and a tail out (c -> d).
CYCLE_WITH_TAILS = """\
coalgebra tails
vertex a
vertex b
vertex c
vertex d
arrow e1: a -> b
arrow e2: b -> c
arrow e3: c -> b
arrow e4: c -> d
mode all
"""

# A two-cycle x <-> y feeding a loop at z; vertices declared out of order.
CYCLE_INTO_LOOP = """\
coalgebra loops
vertex z
vertex y
vertex x
vertex w
arrow f1: w -> x
arrow f2: x -> y
arrow f3: y -> x
arrow f4: y -> z
arrow f5: z -> z
mode all
"""

# The ladder with its two arrows per rung declared y before x, so the
# walks out of each vertex grow in another order than they are declared.
TWO_DECL_LADDER = """\
coalgebra order
param N = 3
vertex v[k], k=0..N
arrow y[k]: v[k-1] -> v[k], k=1..N
arrow x[k]: v[k-1] -> v[k], k=1..N
mode all
"""


class TestParsing:
    def test_builtin_ex1_shape(self):
        spec = parse_spec(EX1)
        assert spec.name == "ex1"
        assert [v.name for v in spec.vertices] == ["a", "b"]
        assert [a.name for a in spec.arrows] == ["x", "y"]
        assert [p.name for p in spec.extra_paths] == ["p"]
        assert spec.param_map() == {"N": 3}

    def test_builtin_ex2_triangular_ranges(self):
        spec = parse_spec(EX2)
        inst = instantiate(spec, 3)
        assert len(inst.arrows) == 6  # 1 + 2 + 3

    def test_missing_arrow_is_a_closure_error(self):
        text = "coalgebra bad\nvertex u\nvertex v\narrow x: u -> v\npath q = x . y\n"
        with pytest.raises(ClosureError) as err:
            parse_spec(text)
        assert "y" in str(err.value)

    def test_dangling_endpoint(self):
        with pytest.raises(DslError) as err:
            parse_spec("coalgebra bad\nvertex u\narrow x: u -> w\n")
        assert "w" in str(err.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(DslError) as err:
            parse_spec("coalgebra ok\nvertex u\nfrobnicate u\n")
        assert err.value.line == 3

    def test_non_composable_path(self):
        text = ("coalgebra bad\nvertex u\nvertex v\n"
                "arrow x: u -> v\narrow y: u -> v\npath q = x . y\n")
        with pytest.raises(DslError) as err:
            parse_spec(text)
        assert "ends at" in str(err.value)

    def test_subpath_closure_of_longer_paths(self):
        base = ("coalgebra deep\nvertex u\nvertex v\nvertex w\nvertex z\n"
                "arrow e1: u -> v\narrow e2: v -> w\narrow e3: w -> z\n")
        with pytest.raises(ClosureError) as err:
            parse_spec(base + "path long = e1 . e2 . e3\n")
        assert "e1.e2" in str(err.value) or "e2.e3" in str(err.value)
        # Its prefix declared, its tail not.
        with pytest.raises(ClosureError) as err:
            parse_spec(base + "path m12 = e1 . e2\npath long = e1 . e2 . e3\n")
        assert str(err.value) == "line 10, col 1: subpath e2.e3 of long is not declared"
        ok = parse_spec(base + "path m12 = e1 . e2\npath m23 = e2 . e3\n"
                               "path long = e1 . e2 . e3\n")
        basis = enumerate_paths(ok)
        assert len(basis) == 4 + 3 + 2 + 1

    def test_closure_error_carries_the_path_line(self):
        text = ("coalgebra bad\nvertex u\nvertex v\nvertex w\n# arrows\n"
                "arrow x: u -> v\narrow y: v -> w\npath q = x . y . z\n"
                "arrow z: w -> u\npath yz = y . z\n")
        with pytest.raises(ClosureError) as err:
            parse_spec(text)
        assert err.value.line == 8
        assert "x.y" in str(err.value)

    def test_a_closed_declared_list_parses_without_the_subpath_scan(self,
                                                                    monkeypatch):
        # A chain u0 -> ... -> u4 that declares each of its 6 paths of 2 to
        # 4 arrows: every prefix and tail is listed, so parsing never scans
        # for a missing subpath.
        def forbidden(*args):
            raise AssertionError("the subpath scan ran on a closed list")

        monkeypatch.setattr(paths, "_closure_check", forbidden)
        lines = ["coalgebra chain", "vertex u[i], i=0..4",
                 "arrow e[i]: u[i-1] -> u[i], i=1..4"]
        lines += [f"path p{i}{j} = " + " . ".join(f"e[{k}]" for k in range(i + 1, j + 1))
                  for i in range(5) for j in range(i + 2, 5)]
        spec = parse_spec("\n".join(lines) + "\n")
        assert len(spec.extra_paths) == 6
        assert len(enumerate_paths(spec)) == 5 + 4 + 3 + 2 + 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(DslError):
            parse_spec("coalgebra bad\nvertex u\narrow u: u -> u\n")

    @pytest.mark.parametrize("text", [
        "coalgebra bad\nvertex a\nvertex b\nvertex a\n",
        "coalgebra bad\nvertex u\narrow a: u -> u\nvertex a\n",
    ], ids=["vertex-vertex", "arrow-vertex"])
    def test_duplicate_name_carries_the_later_line(self, text):
        with pytest.raises(DslError) as err:
            parse_spec(text)
        assert err.value.line == 4
        assert "'a' is declared twice" in str(err.value)

    def test_coinciding_paths_carry_the_later_line(self):
        text = ("coalgebra twice\nvertex u\nvertex v\nvertex w\n"
                "arrow x: u -> v\narrow y: v -> w\npath p = x . y\npath q = x . y\n")
        with pytest.raises(DslError) as err:
            enumerate_paths(parse_spec(text))
        assert err.value.line == 8
        assert "paths p and q coincide" in str(err.value)

    def test_mode_validation(self):
        with pytest.raises(DslError):
            parse_spec("coalgebra bad\nvertex u\nmode sometimes\n")

    def test_index_arithmetic_in_ranges_and_refs(self):
        spec = parse_spec(CHAIN)
        inst = instantiate(spec)
        assert {a.label for a in inst.arrows} == {"e[1]", "e[2]"}
        assert {a.dst.label for a in inst.arrows} == {"v[2]", "v[3]"}

    @pytest.mark.parametrize("src,want", [
        ("n", 4), (" n ", 4), ("(n)", 4), ("n+1", 5), ("-n", -4), ("2*n-N", 5), ("7", 7),
        ("M", "line 9, col 1: unknown name 'M' in index expression"),
        (" M", "line 9, col 1: unknown name 'M' in index expression"),
        ("M+1", "line 9, col 1: unknown name 'M' in index expression"),
        ("None", "line 9, col 1: unsupported construct in index expression 'None'"),
        ("n.real", "line 9, col 1: unsupported construct in index expression 'n.real'"),
    ])
    def test_index_expression_values_and_faults(self, src, want):
        # Each expression is compiled once into a closure over its names,
        # constants and + - * nodes, and a fault is raised when the closure
        # reaches it.  _eval_expr, the compiled evaluator itself and a
        # reference, which keeps its evaluators, all give each value and
        # each fault, every time.
        ref = dsl.Ref("r", (src,), 9)
        routes = [lambda env: dsl._eval_expr(src, env, 9),
                  lambda env: dsl._expr_plan(src.strip())(env, 9),
                  lambda env: ref.instantiate(env)[1][0]]
        for route in routes:
            for _ in range(2):
                if isinstance(want, int):
                    assert route({"n": 4, "N": 3}) == want
                else:
                    with pytest.raises(DslError) as err:
                        route({"n": 4, "N": 3})
                    assert str(err.value) == want

    def test_a_bad_index_expression_keeps_its_column_and_is_not_cached(self):
        with pytest.raises(SyntaxError) as syntax:
            ast.parse("n n", mode="eval")
        held = dsl._expr_plan.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DslError) as err:
                dsl._eval_expr(" n n ", {"n": 4}, 9)
            assert str(err.value) == \
                f"line 9, col {syntax.value.offset}: bad index expression 'n n'"
        assert dsl._expr_plan.cache_info().currsize == held

    def test_a_reference_refuses_its_expressions_in_order(self):
        # An unknown name before a syntax error is refused first, as each
        # expression is evaluated in turn; the syntax error comes once the
        # name is known, with its column, and is not cached.
        with pytest.raises(SyntaxError) as syntax:
            ast.parse("n n", mode="eval")
        ref = dsl.Ref("b", ("M", "n n"), 9)
        dsl._expr_plan("M")
        held = dsl._expr_plan.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DslError) as err:
                ref.instantiate({"n": 4})
            assert str(err.value) == "line 9, col 1: unknown name 'M' in index expression"
            with pytest.raises(DslError) as err:
                ref.instantiate({"n": 4, "M": 1})
            assert str(err.value) == \
                f"line 9, col {syntax.value.offset}: bad index expression 'n n'"
        assert dsl._expr_plan.cache_info().currsize == held

    def test_an_expression_on_a_range_with_no_values_is_never_evaluated(self):
        # At N = 2 the range i=1..N-2 is empty, so b[M] is not evaluated
        # and the text parses; at N = 3 it has a value and M is unknown.
        spec = parse_spec(LAZY_ENDPOINT)
        assert instantiate(spec).arrows == ()
        for _ in range(2):
            with pytest.raises(DslError) as err:
                instantiate(spec, 3)
            assert str(err.value) == "line 5, col 1: unknown name 'M' in index expression"
        assert instantiate(spec, 2).arrows == ()

    @pytest.mark.parametrize("fault, line", [
        ("vertex c[k], k=1..M", 3),
        ("arrow z[k]: a -> b[k], k=M..1", 4),
        ("arrow z: a -> b[M]", 6),
        ("arrow z: b[M] -> a", 7),
        ("path p = x[1] . y[M]", 8),
    ], ids=["vertex-range", "arrow-range", "target", "source", "path-segment"])
    def test_each_expression_fails_at_its_own_line(self, fault, line):
        lines = ["coalgebra faulty", "param N = 2", "vertex a", "vertex b[n], n=1..N",
                 "arrow x[n]: a -> b[n], n=1..N", "arrow y[n]: b[n] -> a, n=1..N",
                 "mode declared"]
        lines.insert(line - 1, fault)
        with pytest.raises(DslError) as err:
            parse_spec("\n".join(lines) + "\n")
        assert (str(err.value), err.value.line) == (
            f"line {line}, col 1: unknown name 'M' in index expression", line)


class TestEnumeration:
    def test_all_mode_walks_skip_the_closure_check(self, monkeypatch, ex1_spec):
        spec = parse_spec(LADDER_ALL)

        def forbidden(candidates):
            raise AssertionError("the closure check ran on valid paths")
        monkeypatch.setattr(paths, "_closure_check", forbidden)
        # 5 vertices and 2^l walks of each length l from each of 5 - l vertices.
        assert len(enumerate_paths(spec, 4)) == 5 + 4 * 2 + 3 * 4 + 2 * 8 + 16
        # A valid declared list is closed by the check of each path's prefix
        # and tail, so the subpath search runs only to name a fault.  ex1 at
        # 6: 7 vertices, 12 arrows x[k], y[k] and 6 paths p[k] = x[k] . y[k].
        assert len(enumerate_paths(ex1_spec, 6)) == 7 + 12 + 6
        for inst in probe_instances(ex1_spec, 6):
            # Into a: a, each y[k] and each p[k]; out of a: a, each x[k] and each p[k].
            counts, k = paths.path_counts(ex1_spec, inst), len(inst.declared_paths)
            assert counts["left"]["a"] == counts["right"]["a"] == 1 + 2 * k

    @pytest.mark.parametrize("budget", [56, 57])
    @pytest.mark.parametrize("text", [LADDER_ALL, TWO_DECL_LADDER],
                             ids=["ladder", "two-declarations"])
    def test_counts_and_enumeration_read_one_budget(self, text, budget, monkeypatch):
        # The all-mode ladder at N=4 has 57 paths: past a budget of 56, and
        # within one of 57.  Both routes refuse it, with one message and
        # line, that of the last arrow of path 56 in canonical order, or
        # both accept it with the same counts.
        spec = parse_spec(text)
        inst = instantiate(spec, 4)
        last_arrow_line = enumerate_paths(spec, 4).paths[56].arrows[-1].line
        monkeypatch.setattr(paths, "SIZE_BUDGET", budget)

        def outcome(route):
            try:
                return route(spec, inst)
            except DslError as err:
                return (str(err), err.line)
        counts, basis = outcome(paths.path_counts), outcome(paths.enumerate_instance)
        if budget == 56:
            assert counts == basis
            assert "more than 56 paths in all-paths mode" in basis[0]
            assert basis[1] == last_arrow_line
        else:
            assert len(basis) == 57
            assert counts["left"] == dict(Counter(p.target.label for p in basis.paths))
            assert counts["right"] == dict(Counter(p.source.label for p in basis.paths))

    @pytest.mark.parametrize("budget", [12, 13, 56, 57])
    def test_a_filled_table_leaves_the_budget_to_each_instance(self, budget, monkeypatch):
        # The ladder at N=4 has 5 vertices and 8 arrows, past a budget of
        # 12, and 57 paths, past one of 13 or 56.  Bounds 1 to 3 and 6 fill
        # the spec's table with 7 vertices and 12 arrows first; each
        # refusal at N=4, with its message and line, is still that of a
        # fresh spec.
        filled = parse_spec(LADDER_ALL)
        for bound in (1, 2, 3, 6):
            enumerate_paths(filled, bound)
        assert len(filled.table.vertices) + len(filled.table.arrows) == 19
        monkeypatch.setattr(paths, "SIZE_BUDGET", budget)

        def outcome(spec):
            try:
                inst = instantiate(spec, 4)
                return paths.path_counts(spec, inst), paths.enumerate_instance(spec, inst)
            except DslError as err:
                return (str(err), err.line)
        got = outcome(filled)
        assert got == outcome(parse_spec(LADDER_ALL))
        if budget == 12:
            assert got == ("line 4, col 1: more than 12 vertices, arrows and declared "
                           "paths: past the size budget", 4)
        elif budget < 57:
            assert f"more than {budget} paths in all-paths mode" in got[0]
        else:
            assert len(got[1]) == 57

    def test_ex1_bound1_depth2(self):
        basis = enumerate_paths(parse_spec(EX1), 1, 2)
        assert basis.labels() == ("a", "b[1]", "x[1]", "y[1]", "p[1]")

    def test_ex2_bound3_depth1(self):
        basis = enumerate_paths(parse_spec(EX2), 3, 1)
        assert len(basis) == 10

    def test_depth_zero_is_vertices_only(self):
        for text in (EX1, EX2):
            basis = enumerate_paths(parse_spec(text), 3, 0)
            assert all(p.length == 0 for p in basis.paths)

    def test_canonical_serialization(self):
        basis = enumerate_paths(parse_spec(EX1), 1)
        assert [(p.label, p.source.label, p.target.label,
                 tuple(a.label for a in p.arrows)) for p in basis.paths] == [
            ("a", "a", "a", ()),
            ("b[1]", "b[1]", "b[1]", ()),
            ("x[1]", "a", "b[1]", ("x[1]",)),
            ("y[1]", "b[1]", "a", ("y[1]",)),
            ("p[1]", "a", "a", ("x[1]", "y[1]")),
        ]

    def test_all_mode_walks_the_dag(self):
        basis = enumerate_paths(parse_spec(CHAIN))
        labels = set(basis.labels())
        assert "e[1].e[2]" in labels
        assert len(basis) == 3 + 2 + 1

    def test_all_mode_cycle_needs_depth(self):
        spec = parse_spec(LOOP)
        with pytest.raises(DslError) as err:
            enumerate_paths(spec)
        assert "cycle" in str(err.value)
        basis = enumerate_paths(spec, depth=3)
        assert len(basis) == 8
        c, _ = compile_truncation(spec, depth=3)
        assert check_axioms(c).ok

    @pytest.mark.parametrize("text, on_cycle", [
        (LOOP, {"a", "b"}),
        (CYCLE_WITH_TAILS, {"b", "c"}),
        (CYCLE_INTO_LOOP, {"x", "y", "z"}),
    ])
    def test_cycle_error_names_a_vertex_on_the_cycle(self, text, on_cycle):
        with pytest.raises(DslError) as err:
            enumerate_paths(parse_spec(text))
        message = str(err.value)
        assert "cycle" in message
        named = set(re.findall(r"[A-Za-z_]\w*", message.split("(cycle", 1)[1]))
        assert named & on_cycle
        # The reported line declares an arrow whose ends both lie on the cycle.
        declaration = text.splitlines()[err.value.line - 1]
        assert declaration.startswith("arrow ")
        assert set(re.findall(r"[A-Za-z_]\w*", declaration.split(":", 1)[1])) <= on_cycle


class TestCompilation:
    def test_ex1_splitting_formulas(self, ex1_n1):
        c, basis = ex1_n1
        idx = {l: basis.index_of_label(l) for l in c.labels}
        one = F(1)
        assert c.delta_dict(idx["x[1]"]) == {(idx["a"], idx["x[1]"]): one,
                                             (idx["x[1]"], idx["b[1]"]): one}
        assert c.delta_dict(idx["p[1]"]) == {(idx["a"], idx["p[1]"]): one,
                                             (idx["x[1]"], idx["y[1]"]): one,
                                             (idx["p[1]"], idx["a"]): one}
        assert c.epsilon[idx["a"]] == one and c.epsilon[idx["p[1]"]] == F(0)

    def test_ex2_splitting(self, ex2_n3):
        c, basis = ex2_n3
        idx = {l: basis.index_of_label(l) for l in ("a", "b[2]", "x[2,1]")}
        assert c.delta_dict(idx["x[2,1]"]) == {(idx["a"], idx["x[2,1]"]): F(1),
                                               (idx["x[2,1]"], idx["b[2]"]): F(1)}

    def test_depth_zero_compiles_cosemisimple(self, ex1_spec):
        c, _ = compile_truncation(ex1_spec, 3, 0)
        assert check_axioms(c).ok
        chain = coradical_filtration(c)
        assert chain.dims() == (c.dim,) and chain.stabilized_at == 0

    def test_every_compiled_truncation_passes_axioms(self, ex1_spec, ex2_spec):
        for spec in (ex1_spec, ex2_spec):
            for n in (1, 2, 4):
                c, _ = compile_truncation(spec, n)
                assert check_axioms(c).ok

    def test_truncation_coherence(self, ex1_spec):
        shallow, sbasis = compile_truncation(ex1_spec, 2, 1)
        deep, dbasis = compile_truncation(ex1_spec, 2, 2)
        # the depth-1 span sits inside the deeper compile with the same delta
        inject = Matrix(deep.dim, shallow.dim,
                        {(dbasis.index_of_label(l), i): F(1)
                         for i, l in enumerate(sbasis.labels())})
        span = Subspace.span(QQ, deep.dim,
                             [{dbasis.index_of_label(l): F(1)} for l in sbasis.labels()])
        for i, label in enumerate(sbasis.labels()):
            got = deep.delta_dict(dbasis.index_of_label(label))
            expected = {(dbasis.index_of_label(sbasis.labels()[j]),
                         dbasis.index_of_label(sbasis.labels()[k])): v
                        for (j, k), v in shallow.delta_dict(i).items()}
            assert got == expected
        # wedges computed at the two depths agree after embedding
        for xlabels in (["a"], ["a", "b[1]"], ["a", "b[1]", "x[1]", "y[1]"]):
            x_sh = shallow.span_of_labels(xlabels)
            x_dp = deep.span_of_labels(xlabels)
            w_sh = wedge(x_sh, x_sh, shallow)
            w_dp = wedge(x_dp, x_dp, deep)
            embedded = Subspace.span(QQ, deep.dim,
                                     [inject.apply(v) for v in w_sh.basis_dicts()])
            assert embedded == w_dp.intersect(span)


def probe_instances(spec, n: int) -> list:
    """The instances at the probe bounds N, N+1, N+2, which analyze_spec
    builds once and hands to degree_tables and semiperfect_verdict."""
    return [instantiate(spec, bound) for bound in (n, n + 1, n + 2)]


class TestDegreeTables:
    def test_ex2_source_vertex_grows(self, ex2_spec):
        table = degree_tables(3, probe_instances(ex2_spec, 3))
        a = table["vertices"]["a"]
        assert a["arrows_out"] == 6 and a["out_growing"]
        assert not a["in_growing"]
        b2 = table["vertices"]["b[2]"]
        assert b2["arrows_in"] == 2 and not b2["in_growing"]

    def test_ex1_center_vertex_grows_both_ways(self, ex1_spec):
        table = degree_tables(3, probe_instances(ex1_spec, 3))
        a = table["vertices"]["a"]
        assert a["in_growing"] and a["out_growing"]
        b1 = table["vertices"]["b[1]"]
        assert b1["arrows_in"] == 1 and b1["arrows_out"] == 1
        assert not b1["in_growing"] and not b1["out_growing"]

    def test_pair_counts(self, ex2_spec):
        table = degree_tables(3, probe_instances(ex2_spec, 3))
        pair = {(p["src"], p["dst"]): p for p in table["pairs"]}
        assert pair[("a", "b[3]")]["count"] == 3
        assert not pair[("a", "b[3]")]["growing"]


def hull_bases(spec, side: str, vertex: str, n: int) -> "list[list[str]]":
    """The basis of the side's injective indecomposable at a vertex, at
    each probe bound, from the probe's enumeration; the count the
    semiperfect verdict reads must be its length."""
    bases = []
    for inst in probe_instances(spec, n):
        basis = [p.label for p in paths.enumerate_instance(spec, inst).paths
                 if (p.target if side == "left" else p.source).label == vertex]
        assert paths.path_counts(spec, inst)[side][vertex] == len(basis)
        bases.append(basis)
    return bases


class TestInjectives:
    def test_ex2_sink_hull_is_finite(self, ex2_spec):
        bases = hull_bases(ex2_spec, "left", "b[2]", 3)
        assert bases[0] == ["b[2]", "x[2,1]", "x[2,2]"]
        assert [len(b) for b in bases] == [3, 3, 3]

    def test_ex2_source_hull_grows(self, ex2_spec):
        bases = hull_bases(ex2_spec, "right", "a", 3)
        assert [len(b) for b in bases] == [7, 11, 16]

    def test_isolated_vertex(self):
        bases = hull_bases(parse_spec(SINGLE), "left", "only", 1)
        assert bases == [["only"], ["only"], ["only"]]


class TestLocallyFinite:
    def test_ex1_holds(self, ex1_spec, ex1_n3):
        entry = locally_finite_verdict(
            ex1_spec, 3, degree_tables(3, probe_instances(ex1_spec, 3)), ex1_n3)
        assert entry.verdict == "holds"

    def test_ex2_holds(self, ex2_spec, ex2_n3):
        entry = locally_finite_verdict(
            ex2_spec, 3, degree_tables(3, probe_instances(ex2_spec, 3)), ex2_n3)
        assert entry.verdict == "holds"

    def test_unbounded_pair_fails_with_witness(self):
        spec = parse_spec(UNBOUNDED)
        entry = locally_finite_verdict(spec, 2, degree_tables(2, probe_instances(spec, 2)),
                                       compile_truncation(spec, 2))
        assert entry.verdict == "fails"
        assert entry.witness["pair"] == ["a", "b"]
        assert entry.witness["arrow_probe_counts"] == [2, 3, 4]


class TestSemiperfect:
    def test_ex2_sides(self, ex2_spec):
        verdicts = semiperfect_verdict(ex2_spec, 3, probe_instances(ex2_spec, 3))
        assert verdicts["right"].verdict == "holds"
        left = verdicts["left"]
        assert left.verdict == "fails"
        assert left.witness["vertex"] == "a"

    def test_ex1_fails_both_sides_at_the_hub(self, ex1_spec):
        verdicts = semiperfect_verdict(ex1_spec, 3, probe_instances(ex1_spec, 3))
        for side, entry in verdicts.items():
            assert entry.criterion == f"{side}_semiperfect"
            assert entry.verdict == "fails"
            assert entry.witness["vertex"] == "a"

    def test_single_vertex_holds(self):
        spec = parse_spec(SINGLE)
        verdicts = semiperfect_verdict(spec, 1, probe_instances(spec, 1))
        assert list(verdicts) == ["right", "left"]
        assert all(entry.verdict == "holds" for entry in verdicts.values())

    @pytest.mark.parametrize("paths_text,error,line", [
        # At the probe N + 2 = 4, q runs through x[3] and y[3], as p does.
        ("path p = x[3] . y[3]\npath q = x[N-1] . y[N-1]\n",
         "paths p and q coincide", 8),
        # At the probe N + 1 = 3, q needs the subpath y[3].x[3], which s
        # does not declare.
        ("path r[k] = x[k] . y[k], k=1..5\npath s[k] = y[k] . x[k], k=1..2\n"
         "path q = x[N] . y[N] . x[N]\n", "subpath y[3].x[3] of q is not declared", 9),
    ], ids=["coincide", "closure"])
    def test_a_probe_that_enumeration_refuses_is_refused(self, paths_text, error, line):
        # Valid at N = 2, and the counts stay fixed over the probes, so no
        # witness enumerates them: the declared list is checked before it
        # is counted, and refused by the enumeration at its line.
        text = ("coalgebra refused\nparam N = 2\nvertex a\nvertex b[k], k=1..5\n"
                "arrow x[k]: a -> b[k], k=1..5\narrow y[k]: b[k] -> a, k=1..5\n"
                + paths_text)
        spec = parse_spec(text)
        probes = probe_instances(spec, 2)
        with pytest.raises(DslError) as err:
            semiperfect_verdict(spec, 2, probes)
        assert err.value.line == line
        assert error in str(err.value)

    def test_cycle_makes_path_families_infinite(self):
        spec = parse_spec(LOOP)
        entry = semiperfect_verdict(spec, 1, probe_instances(spec, 1))["right"]
        assert entry.verdict == "fails"
        assert "cycle" in entry.witness["note"]

    @pytest.mark.parametrize("text, right, left", [
        (CYCLE_WITH_TAILS, ("b", "b"), ("a", "b")),
        (CYCLE_INTO_LOOP, ("x", "x"), ("w", "x")),
    ])
    def test_cycle_witness_vertices(self, text, right, left):
        spec = parse_spec(text)
        verdicts = semiperfect_verdict(spec, 1, probe_instances(spec, 1))
        for side, want in (("right", right), ("left", left)):
            witness = verdicts[side].witness
            assert (witness["vertex"], witness["cycle_through"]) == want


def sweep_tables(spec, sweep):
    """The sweep as analyze_spec runs it, analyzed at the last bound."""
    n = sweep[-1]
    return fnoetherian_sweep(spec, sweep, None, n, compile_truncation(spec, n))


class TestFNoetherianSweep:
    def test_ex2_right_refuted_with_growing_table(self, ex2_spec):
        sweep = sweep_tables(ex2_spec, [1, 2, 3, 4, 5])["right"]
        assert (sweep["side"], sweep["sweep"]) == ("right", [1, 2, 3, 4, 5])
        witness = sweep["witness"]
        assert witness is not None and witness["quotient_by"] == "a"
        assert [row["max_multiplicity"] for row in witness["table"]] == [2, 3, 4, 5, 6]

    def test_ex2_left_finds_no_growth(self, ex2_spec):
        assert sweep_tables(ex2_spec, [1, 2, 3, 4])["left"]["witness"] is None

    def test_ex1_finds_no_growth_either_side(self, ex1_spec):
        sweeps = sweep_tables(ex1_spec, [1, 2, 3])
        assert [sweep["side"] for sweep in sweeps.values()] == ["left", "right"]
        assert all(sweep["witness"] is None for sweep in sweeps.values())

    def test_single_vertex_constant_table(self):
        sweep = sweep_tables(parse_spec(SINGLE), [1, 2, 3])["right"]
        assert sweep["witness"] is None
        assert [r["max_multiplicity"] for r in sweep["tables"]["only"]] == [0, 0, 0]

    def test_two_bounds_are_not_growth(self, ex2_spec):
        # Growth needs two strict increases, as for the three probes.
        sweep = sweep_tables(ex2_spec, [1, 2])["right"]
        assert [r["max_multiplicity"] for r in sweep["tables"]["a"]] == [2, 3]
        assert sweep["witness"] is None
        assert sweep_tables(ex2_spec, [1, 2, 3])["right"]["witness"] is not None

    def test_an_empty_sweep_is_refused(self, ex2_spec):
        with pytest.raises(ValueError, match="empty sweep"):
            fnoetherian_sweep(ex2_spec, [], None, 1, compile_truncation(ex2_spec, 1))
        # Only None means the default sweep.
        with pytest.raises(ValueError, match="empty sweep"):
            analyze_spec(ex2_spec, 3, sweep=[])

    def test_reads_the_analyzed_truncation_at_its_bound(self, ex2_spec,
                                                         patch_everywhere):
        # Only the reference at bound 3 is compiled: bounds 1 and 2 embed
        # in it, bound 2 as the analyzed truncation and bound 1 from its
        # instance alone.
        truncation = compile_truncation(ex2_spec, 2)
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        instantiations = _record_calls(patch_everywhere, paths, "instantiate")
        sweeps = fnoetherian_sweep(ex2_spec, [1, 2, 3], None, 2, truncation)
        assert [call[1:3] for call in compiles] == [(3, None)]
        assert [call[1] for call in instantiations] == [1, 3]
        assert sweeps == sweep_tables(ex2_spec, [1, 2, 3])


def quotient_route_columns(spec, sweep, depth) -> "dict[str, dict]":
    """The sweep's columns by the route it replaced: the regular comodule
    modulo each vertex span, then the maximum of multiplicity_table, the
    first simple in grouplike order winning a tie."""
    first, _ = compile_truncation(spec, min(sweep), depth)
    vertices = sorted(first.labels[g] for g in first.grouplike_indices())
    tables = {side: {v: [] for v in vertices} for side in ("left", "right")}
    for bound in sweep:
        c, _ = compile_truncation(spec, bound, depth)
        for side, columns in tables.items():
            reg = regular_comodule(c, side)
            for v in vertices:
                quot, _ = quotient_with_projection(reg, c.span_of_labels([v]))
                best, at = 0, None
                for simple, mult in multiplicity_table(quot).items():
                    if mult > best:
                        best, at = mult, simple
                columns[v].append({"N": bound, "max_multiplicity": best,
                                   "at_simple": at})
    return tables


class TestSweepReadsThePairTable:
    """[soc(C/kv) : S_h] = dim(kv ^ kh) - 1 on the right and
    dim(kh ^ kv) - 1 on the left, checked against the quotient route."""

    # (text, depth): ex2 and the ladder differ between sides; LOOPS_ALL has
    # loops (the v = h entries) and, like LOOP, is cyclic, so needs a depth;
    # depth 0 keeps the vertices alone.
    GRID = {"ex1": (EX1, None), "ex1-depth0": (EX1, 0), "ex2": (EX2, None),
            "ex2-depth1": (EX2, 1), "ex2-depth0": (EX2, 0),
            "ladder": (LADDER_ALL, None), "ladder-depth1": (LADDER_ALL, 1),
            "ladder-depth0": (LADDER_ALL, 0), "loops-depth2": (LOOPS_ALL, 2),
            "loops-depth3": (LOOPS_ALL, 3), "loops-depth0": (LOOPS_ALL, 0),
            "two-cycle-depth2": (LOOP, 2)}

    @pytest.mark.parametrize("text,depth", GRID.values(), ids=GRID.keys())
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_columns_match_the_quotient_route(self, text, depth, field):
        spec = replace(parse_spec(text), field=field)
        sweep = [1, 2, 3]
        truncation = compile_truncation(spec, 2, depth)
        got = fnoetherian_sweep(spec, sweep, depth, 2, truncation)
        assert {side: got[side]["tables"] for side in got} == \
            quotient_route_columns(spec, sweep, depth)

    def test_the_grid_tells_the_sides_and_the_trivial_line_apart(self):
        # ex2's right columns grow and its left ones do not, and a loop at
        # v makes kv ^ kv larger than kv, so a swap of sides or a count
        # that keeps kv differs from the quotient route above.
        ex2 = quotient_route_columns(parse_spec(EX2), [1, 2, 3], None)
        assert [r["max_multiplicity"] for r in ex2["right"]["a"]] == [2, 3, 4]
        assert [r["max_multiplicity"] for r in ex2["left"]["a"]] == [1, 1, 1]
        loops = quotient_route_columns(parse_spec(LOOPS_ALL), [3], 1)
        assert loops["right"]["b[3]"] == [
            {"N": 3, "max_multiplicity": 3, "at_simple": "b[3]"}]


# The perfbench sweep family: arrow pairs a -> b[n] grow with N.
GROWING = """\
coalgebra growing
param N = 3
vertex a
vertex b[n], n=1..N
arrow x[n,i]: a -> b[n], n=1..N, i=1..N
arrow y[i]: b[1] -> a, i=1..N
mode declared
"""

# The arrows x[i] keep their labels but move to b[N] with N, so no bound
# embeds in a larger one.
MOVING = """\
coalgebra moving
param N = 3
vertex a
vertex b[n], n=1..N
arrow x[i]: a -> b[N], i=1..N
"""


class TestSpecTable:
    """instantiate hands out one object per vertex and per arrow of a spec
    at every bound (QuiverSpec.table), keyed by its endpoints too."""

    def test_a_moving_arrow_ends_where_its_bound_puts_it(self):
        spec = parse_spec(MOVING)
        at3, at2 = instantiate(spec, 3), instantiate(spec, 2)
        moved = {a.label: a for a in at2.arrows}["x[1]"]
        assert moved.dst.label == "b[2]"
        assert {a.label: a.dst.label for a in at3.arrows}["x[1]"] == "b[3]"
        assert moved == Arrow("x", (1,), Vertex("a", ()), Vertex("b", (2,)))
        assert paths.enumerate_instance(spec, at2).paths[3].target.label == "b[2]"
        # The vertices are shared; x[1] at 3 and at 2 are two arrows.
        assert at2.vertices == at3.vertices[:3]
        assert all(v is w for v, w in zip(at2.vertices, at3.vertices))
        assert moved not in at3.arrows

    def test_a_vertex_or_an_arrow_is_one_object_at_every_bound(self):
        spec = parse_spec(GROWING)
        small, large = instantiate(spec, 2), instantiate(spec, 4)
        shared = {a.label: a for a in large.arrows}
        # x[n,i] for n, i <= 2 is the same arrow at both bounds; y[i]
        # too, as it ends at a whatever the bound.
        assert all(shared[a.label] is a for a in small.arrows)
        assert all(a.path is a.path and a.path.arrows == (a,) for a in small.arrows)
        assert len(spec.table.arrows) == len(large.arrows)
        # A fresh spec builds its own objects, equal to these.
        again = instantiate(parse_spec(GROWING), 2)
        assert again == small and again.arrows[0] is not small.arrows[0]


def _pair_tables_built(monkeypatch) -> list:
    """Record the owner of each grouplike_wedges table built from now on."""
    pair_table = Coalgebra.__dict__["grouplike_wedges"]
    build = pair_table.func
    owners: list = []

    def recorder(c):
        owners.append(c)
        return build(c)

    monkeypatch.setattr(pair_table, "func", recorder)
    return owners


# The declared path p keeps its label but runs through b[N], so its links
# differ between bounds while its vertices and arrows at bound 1 are all
# in the truncation at bound 2.
SHIFTING_PATH = """\
coalgebra shiftpath
param N = 2
vertex a
vertex b[k], k=1..N
vertex c
arrow x[k]: a -> b[k], k=1..N
arrow y[k]: b[k] -> c, k=1..N
path p = x[N] . y[N]
mode declared
"""


class TestSweepReadsOneReferenceTable:
    """A bound D whose paths lie in the reference truncation C
    (PathBasis.place_in) reads X ^_D Y = (X ^_C Y) meet D from C's table;
    one that does not reads its own.  TestSweepReadsThePairTable stays the
    end-to-end reference."""

    GRID = {"ex1": (EX1, None), "ex2": (EX2, None), "ladder": (LADDER_ALL, None),
            "ladder-depth1": (LADDER_ALL, 1), "ladder-depth0": (LADDER_ALL, 0),
            "loops-depth2": (LOOPS_ALL, 2), "loops-depth3": (LOOPS_ALL, 3),
            "growing": (GROWING, None)}

    @pytest.mark.parametrize("text,depth", GRID.values(), ids=GRID.keys())
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    def test_each_entry_read_through_the_reference_is_the_bounds_own(
            self, text, depth, field):
        # With no depth bound, the truncations at (4, 1) and (4, 2), which
        # the cross-check reads, are placed in the reference at (4, None).
        spec = replace(parse_spec(text), field=field)
        reference, reference_basis = compile_truncation(spec, 4, depth)
        subs = [(bound, depth) for bound in (1, 2, 3)]
        subs += [(4, 1), (4, 2)] if depth is None else []
        for bound, sub_depth in subs:
            sub, basis = compile_truncation(spec, bound, sub_depth)
            place = basis.place_in(reference_basis)
            assert place is not None
            assert place == basis_embedding(sub, reference)
            back = {j: i for i, j in enumerate(place)}
            read = analyze._pair_wedges(reference, place)
            for pair, own in sub.grouplike_wedges.items():
                within = read(pair)
                assert within.ambient_dim == reference.dim
                assert Subspace.span(field, sub.dim, [
                    {back[j]: c for j, c in row} for row in within.basis]) == own

    def test_each_pair_is_solved_once_per_bound(self, patch_everywhere):
        # The right side reads (v, h) and the left side (h, v): a second
        # read of either is the first one's subspace, with no solve.
        spec = parse_spec(EX2)
        reference, reference_basis = compile_truncation(spec, 4)
        sub, basis = compile_truncation(spec, 2)
        read = analyze._pair_wedges(reference, basis.place_in(reference_basis))
        reference.grouplike_wedges  # built once, before the count
        solves = _record_calls(patch_everywhere, exactlin, "kernel_on")
        g, h = sub.grouplike_indices()[:2]
        first = [read((g, h)), read((h, g))]
        assert all(read(pair) is wedge for pair, wedge in zip([(g, h), (h, g)], first))
        assert len(solves) == 2

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
    @pytest.mark.parametrize("text,tables", [(MOVING, 3), (GROWING, 1)],
                             ids=["moving", "growing"])
    def test_a_bound_that_does_not_embed_builds_its_own_table(
            self, text, tables, field, monkeypatch, patch_everywhere):
        # MOVING's bounds 1 and 2 do not embed, so each is compiled; the
        # truncation at 3 is the reference.  GROWING's embed and only the
        # reference builds a table.
        spec = replace(parse_spec(text), field=field)
        sweep = [1, 2, 3]
        truncation = compile_truncation(spec, 3)
        for bound in (1, 2):
            sub, basis = compile_truncation(spec, bound)
            place = basis.place_in(truncation[1])
            assert (place is not None) == (text == GROWING)
            assert place == basis_embedding(sub, truncation[0])
        owners = _pair_tables_built(monkeypatch)
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        got = fnoetherian_sweep(spec, sweep, None, 3, truncation)
        assert len(owners) == tables and owners[-1] is truncation[0]
        assert [call[1] for call in compiles] == ([] if text == GROWING else [1, 2])
        assert {side: got[side]["tables"] for side in got} == \
            quotient_route_columns(spec, sweep, None)

    def test_a_path_is_placed_by_its_links(self):
        # At bound 1 every vertex and arrow is one of bound 2's, and p
        # keeps its label, but its prefix x[1] is not the prefix x[2] of
        # p at bound 2: p is not placed, and Delta tells the same.
        spec = parse_spec(SHIFTING_PATH)
        sub, basis = compile_truncation(spec, 1)
        reference, reference_basis = compile_truncation(spec, 2)
        assert {p.label for p in basis.paths} <= {p.label for p in reference_basis.paths}
        assert basis.place_in(reference_basis) is None
        assert basis_embedding(sub, reference) is None
        assert reference_basis.place_in(reference_basis) == list(range(reference.dim))

    def test_the_reference_embedding_is_checked_label_for_label(self, ex1_spec):
        # Same labels, one Delta changed: every right factor of p[1] is b[1].
        sub, _ = compile_truncation(ex1_spec, 1)
        reference, _ = compile_truncation(ex1_spec, 2)
        assert basis_embedding(sub, reference) is not None
        p, b1 = sub.label_index("p[1]"), sub.label_index("b[1]")
        delta = list(sub.delta)
        delta[p] = tuple((j, b1, c) for j, k, c in delta[p])
        broken = replace(sub, delta=tuple(delta))
        assert basis_embedding(broken, reference) is None
        counit = replace(sub, epsilon=(sub.field.zero,) * sub.dim)
        assert basis_embedding(counit, reference) is None
        over_gf = replace(sub, field=GF(101))
        assert basis_embedding(over_gf, reference) is None


def verdict_entries(spec, n: int, sweep: "list[int]") -> "dict[str, dict]":
    """The verdict entries of one analysis, by criterion."""
    return {e["criterion"]: e for e in analyze_spec(spec, n, sweep)["verdicts"]}


class TestTorsionRatChain:
    def test_ex2_vector(self, ex2_spec):
        entries = verdict_entries(ex2_spec, 3, [1, 2, 3, 4, 5])
        got = {c: e["verdict"] for c, e in entries.items()}
        assert got == {
            "locally_finite": "holds",
            "right_semiperfect": "holds",
            "left_semiperfect": "fails",
            "left_fnoetherian": "holds",
            "right_fnoetherian": "fails",
            "left_torsion_rat": "holds",
            "right_torsion_rat": "holds",
            "coreflexive": "holds",
        }
        assert "assumption" in entries["coreflexive"]["witness"]

    def test_ex1_reports_undecided_sides(self, ex1_spec):
        entries = verdict_entries(ex1_spec, 3, [1, 2, 3])
        got = {c: e["verdict"] for c, e in entries.items()}
        assert got["locally_finite"] == "holds"
        assert got["left_fnoetherian"] == "undecided"
        assert got["right_fnoetherian"] == "undecided"
        assert got["left_torsion_rat"] == "undecided"
        assert got["right_torsion_rat"] == "undecided"
        for side in ("left", "right"):
            entry = entries[f"{side}_torsion_rat"]
            assert entry["rule_chain"]  # undecided still explains itself

    def test_unbounded_family_fails_torsion_via_local_finiteness(self):
        entries = verdict_entries(parse_spec(UNBOUNDED), 2, [1, 2, 3])
        assert entries["locally_finite"]["verdict"] == "fails"
        assert entries["left_torsion_rat"]["verdict"] == "fails"
        assert entries["right_torsion_rat"]["verdict"] == "fails"
        assert entries["coreflexive"]["verdict"] == "fails"

    def test_holds_entries_carry_rule_chains(self, ex2_spec):
        for entry in verdict_entries(ex2_spec, 2, [1, 2]).values():
            if entry["verdict"] == "holds":
                assert entry["rule_chain"]
            if entry["verdict"] == "fails":
                assert entry["witness"] is not None


class TestRegistry:
    def test_builtins_present(self):
        assert set(builtin_names()) == {"ex1", "ex2", "mutant-ex1"}

    def test_mutant_is_deterministic_and_broken(self):
        text1, text2 = builtin_text("mutant-ex1"), builtin_text("mutant-ex1")
        assert text1 == text2
        from qcalg.textfmt import loads
        loaded = loads(text1)
        assert not check_axioms(loaded.coalgebra).ok


class TestPrimeFieldSpecs:
    def test_field_line_in_dsl(self):
        text = EX1.replace("field rational", "field gf(7)")
        spec = parse_spec(text)
        c, _ = compile_truncation(spec, 1)
        assert c.field.p == 7
        assert check_axioms(c).ok
        assert coradical_filtration(c).dims() == (2, 4, 5)

    def test_wedge_matches_rational_route(self, ex1_spec):
        text = EX1.replace("field rational", "field gf(101)")
        c7, basis7 = compile_truncation(parse_spec(text), 1)
        cq, basisq = compile_truncation(ex1_spec, 1)
        c0_7 = c7.span_of_labels(["a", "b[1]"])
        c0_q = cq.span_of_labels(["a", "b[1]"])
        dims7 = wedge(c0_7, c0_7, c7).dim
        dimsq = wedge(c0_q, c0_q, cq).dim
        assert dims7 == dimsq == 4


class TestSingleVertexAnalysis:
    def test_everything_holds_trivially(self):
        entries = verdict_entries(parse_spec(SINGLE), 1, [1, 2])
        assert {e["verdict"] for e in entries.values()} == {"holds"}


def _record_calls(patch_everywhere, module, name) -> list:
    """Wrap module.name everywhere it is imported; the returned list
    collects each call's arguments, defaults filled in, as a tuple."""
    original = getattr(module, name)
    signature = inspect.signature(original)
    calls: list = []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments.values()))
        return original(*args, **kwargs)

    patch_everywhere(original, recorder)
    return calls


class TestEachStepOnce:
    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_analyze_compiles_and_filters_once(self, text, patch_everywhere):
        spec = parse_spec(text)
        dual_and_radical.cache_clear()
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        filtrations = _record_calls(patch_everywhere, coalg, "coradical_filtration")
        radicals = _record_calls(patch_everywhere, coalg, "radical")
        tables = _record_calls(patch_everywhere, analyze, "degree_tables")
        verdicts = _record_calls(patch_everywhere, analyze, "locally_finite_verdict")
        # The sweep leaves out N: it reads its own bounds.
        analyze_spec(spec, 3, [1, 2], None)
        assert len(filtrations) == 1
        assert len(radicals) == 1
        assert [call[:3] for call in compiles].count((spec, 3, None)) == 1
        probes = probe_instances(spec, 3)
        assert tables == [(3, probes)]
        # The bundle calls the public verdict, on the one set of tables and
        # the analyzed truncation.
        truncation = compile_truncation(spec, 3)
        assert verdicts == [(spec, 3, degree_tables(3, probes), truncation)]

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_analyze_compiles_each_truncation_once(self, text, patch_everywhere):
        # Only the analyzed truncation: ex1's cross-check depth 1, which
        # drops the paths p[n], its depth 2 and ex2's depth 1 all embed in
        # it, and so do the sweep bounds 1 and 2; none is compiled.
        spec = parse_spec(text)
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        stages = [_record_calls(patch_everywhere, analyze, name)
                  for name in ("semiperfect_verdict", "fnoetherian_sweep")]
        analyze_spec(spec, 3, [1, 2], None)
        assert [call[1:3] for call in compiles] == [(3, None)]
        probes = probe_instances(spec, 3)
        assert all(call[3] is compiles[0][3] for call in compiles)
        truncation = compile_truncation(spec, 3)
        assert stages == [[(spec, 3, probes, truncation[1])],
                          [(spec, [1, 2], None, 3, truncation)]]

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_the_default_sweep_compiles_each_truncation_once(self, text,
                                                             patch_everywhere):
        # The default sweep 1..N reads the analyzed truncation at N, and
        # its bounds 1 and 2 embed in it, as do the cross-check's depths,
        # so the one compile is the analyzed truncation's.
        spec = parse_spec(text)
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        analyze_spec(spec, 3)
        assert [call[1:3] for call in compiles] == [(3, None)]

    def test_the_default_sweep_of_the_star_compiles_no_bound(self, patch_everywhere):
        # Every bound of the star's default sweep 1..N embeds in the
        # truncation at N, and so do the cross-check's depths 1 and 2,
        # which drop its longer walks: the one compile is the analyzed
        # truncation.
        spec = parse_spec(STAR_ALL)
        compiles = _record_calls(patch_everywhere, paths, "compile_truncation")
        analyze_spec(spec, 6)
        assert [call[1:3] for call in compiles] == [(6, None)]

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_grouplike_pair_spaces_come_from_one_table(self, text, patch_everywhere):
        # Six oracle subspaces (C0, C1 and four vertex spans) give 36 pairs.
        # Only the 4 pairs of two filtration terms are full wedges: the 16
        # pairs of two lines come from the grouplike-pair table the
        # cross-check read, and the 16 pairs of a line with C0 or C1 are
        # cuts of C0 ^ C0, C0 ^ C1 and C1 ^ C0.  The table makes one wedge,
        # kG ^ kG, and cuts each kg ^ kG from it: 1 + 4 = 5.  ex1's
        # cross-check depth 1, without the paths p[n], and the sweep's
        # bounds 1 and 2 embed in the analyzed truncation and read its
        # table, so they add none.
        spec = parse_spec(text)
        wedge_calls = _record_calls(patch_everywhere, coalg, "wedge")
        skew_calls = _record_calls(patch_everywhere, coalg, "skew_primitives")
        analyze_spec(spec, 3, [1, 2], None)
        assert skew_calls == []
        assert len(wedge_calls) == 5

    def test_the_pair_table_solves_one_wedge(self, patch_everywhere):
        # The star at N=6 has 7 grouplikes.  Its 49 entries are cut from
        # kG ^ kG, each kg ^ kG first, so kG is the one operand.
        c, _ = compile_truncation(parse_spec(STAR_ALL), 6)
        wedge_calls = _record_calls(patch_everywhere, coalg, "wedge")
        assert len(c.grouplike_wedges) == 49
        span = Subspace.coordinates(c.field, c.dim, c.grouplike_indices())
        assert [call[:2] for call in wedge_calls] == [(span, span)]

    @pytest.mark.parametrize("text,top,placed", [(EX1, 3, 3), (EX2, 3, 2),
                                                 (EX1, 5, 4), (EX2, 5, 3)],
                             ids=["ex1", "ex2", "ex1-past-N", "ex2-past-N"])
    def test_a_held_truncations_own_paths_are_not_placed(self, text, top, placed,
                                                         monkeypatch):
        # The sweep's bound 3 is the analyzed truncation, and so are ex1's
        # cross-check depth 2 and ex2's depth 1: each reads the table as
        # it stands.  Only the bounds 1 and 2, and ex1's depth 1, which
        # drops the paths p[n], are placed.  A sweep past N holds its top
        # bound's truncation before the analyzed one; its bound 4 is placed
        # there, but bound 3 still reads the analyzed truncation's table.
        place_in = paths.PathBasis.place_in
        calls: list = []

        def recorder(basis, other):
            calls.append(len(basis))
            return place_in(basis, other)

        monkeypatch.setattr(paths.PathBasis, "place_in", recorder)
        analyze_spec(parse_spec(text), 3, list(range(1, top + 1)))
        assert len(calls) == placed

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_the_oracle_makes_one_ideal_product_per_pair_of_terms(
            self, text, patch_everywhere):
        # The oracle's only full ideal products are those of the 4 pairs
        # (C_i, C_j), i, j in {0, 1}.  Every pair with a vertex line, two
        # lines included, is cut from their perps: P_g from that of
        # (C0, C0), and each (I_g * I_h)^perp from P_g.
        c, _ = compile_truncation(parse_spec(text), 3)
        chain = coradical_filtration(c)
        products = _record_calls(patch_everywhere, coalg, "ideal_product")
        analyze._duality_oracle(c, chain)
        perps = [term.perp() for term in chain.terms[:2]]
        assert [call[:2] for call in products] == [(x, y) for x in perps for y in perps]

    def test_each_wedge_operand_is_projected_once(self, monkeypatch, patch_everywhere):
        # ex2's 5 wedges read 10 residual tables, of 3 operands: the
        # table's span kG of the grouplikes (1 wedge, kG ^ kG), and the
        # oracle's C0 and C1 (4 wedges, C_i ^ C_j for i, j in {0, 1}), each
        # built once, on its first read.  The cuts of the line pairs, in
        # the table and in the oracle, reread these tables and build none.
        # The sweep reads its bounds 1 and 2 from the pair table and adds
        # no operand.
        residuals = Subspace.__dict__["residuals"]
        build = residuals.func
        builds: list = []

        def recorder(subspace):
            builds.append(subspace)
            return build(subspace)

        monkeypatch.setattr(residuals, "func", recorder)
        wedge_calls = _record_calls(patch_everywhere, coalg, "wedge")
        analyze_spec(parse_spec(EX2), 3, [1, 2], None)
        operands = {id(s): s for call in wedge_calls for s in call[:2]}
        assert (len(wedge_calls), len(operands)) == (5, 3)
        assert sorted(id(s) for s in builds if id(s) in operands) == sorted(operands)

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_each_truncation_builds_one_pair_table(self, text, monkeypatch):
        # One table at N=3 for the cross-check, the sweep and the oracle
        # together: the cross-check's depths (ex1's depth 1 drops the paths
        # p[n]) and the sweep bounds 1 and 2 embed in the truncation at N=3
        # and build none.
        owners = _pair_tables_built(monkeypatch)
        spec = parse_spec(text)
        analyze_spec(spec, 3)
        assert owners == [compile_truncation(spec, 3)[0]]

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_analyze_builds_no_matrix(self, text, monkeypatch):
        # Every kernel takes the rows its caller builds: no wedge, radical,
        # socle series or other system goes through a Matrix.
        built: list = []
        init = Matrix.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Matrix, "__init__", counting)
        dual_and_radical.cache_clear()
        analyze_spec(parse_spec(text), 3)
        assert built == []

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_analyze_solves_no_quotient_for_the_sweep(self, text, patch_everywhere):
        # The sweep reads grouplike_wedges, and the socle series reads the
        # stacked radical action: neither builds a quotient comodule.
        spec = parse_spec(text)
        quotients = _record_calls(patch_everywhere, comod, "quotient_with_projection")
        tables = _record_calls(patch_everywhere, comod, "multiplicity_table")
        analyze_spec(spec, 3)
        loewy_series(regular_comodule(compile_truncation(spec, 3)[0], "right"))
        assert tables == []
        assert quotients == []
        assert not hasattr(analyze, "quotient_with_projection")
        assert not hasattr(analyze, "multiplicity_table")

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_socle_series_solves_one_kernel_per_term(self, text, side,
                                                     patch_everywhere):
        # Each term is the kernel of the stacked radical action projected
        # mod the term before; the radical is read from its cache, primed
        # here so that its own kernel is not counted.
        c, _ = compile_truncation(parse_spec(text), 3)
        m = regular_comodule(c, side)
        dual_and_radical(c)
        kernels = _record_calls(patch_everywhere, exactlin, "kernel")
        others = [_record_calls(patch_everywhere, module, name)
                  for module, name in ((exactlin, "preimage"), (comod, "socle"),
                                       (comod, "quotient_with_projection"))]
        chain = loewy_series(m)
        assert len(kernels) == len(chain.terms) > 1
        assert others == [[], [], []]
        assert not hasattr(comod, "dual_action")

    @pytest.mark.parametrize("text", [EX1, EX2], ids=["ex1", "ex2"])
    def test_analyze_instantiates_each_bound_once(self, text, patch_everywhere):
        # N is instantiated once for the analyzed truncation, the probes and
        # the cross-check; N+1 and N+2 are the probes alone, and the sweep
        # instantiates its bounds 1 and 2 to place them in the truncation.
        spec = parse_spec(text)
        calls = _record_calls(patch_everywhere, paths, "instantiate")
        analyze_spec(spec, 3)
        assert [call[1] for call in calls] == [3, 4, 5, 1, 2]

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_semiperfect_enumerates_only_for_a_witness(self, n, ex2_spec,
                                                       patch_everywhere):
        # Every probe is counted.  ex2's paths out of a grow, so the left
        # witness reads the paths new at n+1: probes n and n+1 are
        # enumerated, once each, and probe n at depth None is the
        # analyzed truncation's basis when the caller hands it in.
        # SINGLE grows on neither side and enumerates nothing.
        single = parse_spec(SINGLE)
        enumerations = _record_calls(patch_everywhere, paths, "enumerate_instance")
        instantiations = _record_calls(patch_everywhere, paths, "instantiate")
        probes = probe_instances(ex2_spec, n)
        verdicts = semiperfect_verdict(ex2_spec, n, probes)
        assert [call[1:] for call in enumerations] == [(probes[0], None), (probes[1], None)]
        assert all(call[1] is probe for call, probe in zip(enumerations, probes))
        known = paths.enumerate_instance(ex2_spec, probes[0])
        enumerations.clear()
        assert semiperfect_verdict(ex2_spec, n, probes, known) == verdicts
        assert [call[1] for call in enumerations] == [probes[1]]
        enumerations.clear()
        semiperfect_verdict(single, n, probe_instances(single, n))
        assert enumerations == []
        assert instantiations == []
