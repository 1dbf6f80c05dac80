"""Combinatorial criteria and verdict chains for quiver presentations.

Side dictionary, fixed once and used by every analyzer (the quoted
behaviour of the two built-in examples pins it down):

* paths INTO a vertex span the LEFT injective indecomposable at that
  vertex; paths OUT OF it span the RIGHT one;
* right semiperfect  <=>  left injective indecomposables stay finite
  <=>  bounded admissible-path families into every vertex;
* bounded incoming arrow families support the LEFT structural rules,
  bounded outgoing ones the RIGHT rules.

Family growth is always decided by three probes (N, N+1, N+2) requiring
two strict increases, and is reported as witnessed growth, never as a
proof of infinitude.  A verdict of holds always cites the rule chain
that produced it; a verdict of fails always carries a concrete witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..coalg import (
    Coalgebra,
    FiltrationChain,
    check_axioms,
    coradical_filtration,
    dual_and_radical,
    ideal_product,
    wedge,
)
from ..comod import (
    loewy_series,
    multiplicity_table,
    quotient_with_projection,
    regular_comodule,
)
from ..exactlin import Subspace
from .dsl import QuiverSpec
from .paths import compile_truncation, enumerate_paths, instantiate, reachability


class InternalCheckError(RuntimeError):
    """Two independent computation routes disagreed; this is a bug."""


VERDICT_VALUES = ("holds", "fails", "undecided")

CRITERIA = (
    "locally_finite",
    "right_semiperfect",
    "left_semiperfect",
    "left_fnoetherian",
    "right_fnoetherian",
    "left_torsion_rat",
    "right_torsion_rat",
    "coreflexive",
)

CORADICAL_ASSUMPTION = (
    "assumes the coradical is coreflexive; this holds whenever the family "
    "of simple comodules is a nonmeasurable set, and no measurable set is "
    "known, so it is recorded as an assumption rather than computed"
)


@dataclass(frozen=True)
class VerdictEntry:
    criterion: str
    verdict: str
    witness: "dict | None"
    rule_chain: "tuple[str, ...]"

    def __post_init__(self):
        if self.verdict not in VERDICT_VALUES:
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fails" and self.witness is None:
            raise ValueError(f"{self.criterion}: a failing verdict needs a witness")
        if self.verdict == "holds" and not self.rule_chain:
            raise ValueError(f"{self.criterion}: a holding verdict needs a rule chain")

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witness": self.witness,
            "rule_chain": list(self.rule_chain),
        }


@dataclass(frozen=True)
class VerdictReport:
    entries: "tuple[VerdictEntry, ...]"

    def entry(self, criterion: str) -> VerdictEntry:
        for e in self.entries:
            if e.criterion == criterion:
                return e
        raise KeyError(criterion)

    def as_dict(self) -> dict:
        return {"verdicts": [e.as_dict() for e in self.entries]}


# -- counting ------------------------------------------------------------------

def _probe_bounds(n: int) -> "tuple[int, int, int]":
    return (n, n + 1, n + 2)


def _grows(counts: "tuple[int, ...] | list[int]") -> bool:
    return counts[0] < counts[1] < counts[2]


def degree_tables(spec: QuiverSpec, n: int) -> dict:
    """Arrow in/out counts per vertex at N, N+1, N+2 plus growth flags."""
    probes = _probe_bounds(n)
    instances = [instantiate(spec, b) for b in probes]
    counts = [Counter(key for a in inst.arrows
                      for key in (("in", a.dst), ("out", a.src), (a.src, a.dst)))
              for inst in instances]

    def at_probes(key) -> "tuple[int, ...]":
        return tuple(c[key] for c in counts)

    ordered = sorted(instances[0].vertices, key=lambda v: (v.name, v.indices))
    table: dict[str, dict] = {}
    for v in ordered:
        ins, outs = at_probes(("in", v)), at_probes(("out", v))
        table[v.label] = {
            "arrows_in": ins[0],
            "arrows_out": outs[0],
            "in_growing": _grows(ins),
            "out_growing": _grows(outs),
        }
    pairs: list[dict] = []
    for u in ordered:
        for w in ordered:
            pair = at_probes((u, w))
            if pair != (0, 0, 0):
                pairs.append({
                    "src": u.label, "dst": w.label,
                    "count": pair[0], "probe_counts": list(pair),
                    "growing": _grows(pair),
                })
    return {"N": n, "probes": list(probes), "vertices": table, "pairs": pairs}


def _paths_by_vertex(spec: QuiverSpec, side: str, n: int,
                     depth: "int | None" = None) -> "list[dict[str, list[str]]]":
    """At each probe bound, the labels of the basis paths ending at
    (side='left') or starting at (side='right') each vertex: the bases of
    the injective indecomposables."""
    groups = []
    for bound in _probe_bounds(n):
        by_vertex: dict[str, list[str]] = {}
        for p in enumerate_paths(spec, bound, depth).paths:
            anchor = p.target if side == "left" else p.source
            by_vertex.setdefault(anchor.label, []).append(p.label)
        groups.append(by_vertex)
    return groups


def injective_indecomposable(spec: QuiverSpec, vertex_label: str, side: str,
                             n: int, depth: "int | None" = None) -> dict:
    """Path basis of the injective hull of the simple at a vertex.

    Right comodule: admissible paths out of the vertex; left comodule:
    admissible paths into it.  ``growing`` is the three-probe flag.
    """
    known = {v.label for v in instantiate(spec, n).vertices}
    if vertex_label not in known:
        raise KeyError(f"unknown vertex {vertex_label!r} at bound {n}")
    touching = [g.get(vertex_label, []) for g in _paths_by_vertex(spec, side, n, depth)]
    counts = [len(t) for t in touching]
    return {
        "vertex": vertex_label,
        "side": side,
        "dim": counts[0],
        "basis": touching[0],
        "probe_counts": counts,
        "growing": _grows(counts),
    }


# -- individual verdicts ---------------------------------------------------------

def locally_finite_verdict(spec: QuiverSpec, n: int, tables: dict,
                           truncation: Coalgebra) -> VerdictEntry:
    """Bounded arrow multiplicity for every ordered vertex pair.

    tables is degree_tables(spec, n) and truncation the analyzed
    truncation at n.  Cross-validated on compiled truncations at two
    depths: the (g, h)-skew-primitive space of a vertex pair must have
    dimension (arrow count) + 1 for distinct vertices and (loop count)
    for g = h.  Its dimension is read as dim(kg ^ kh) - 1 from the
    coalgebra's table of grouplike-pair wedges (Taft-Wilson: kg ^ kh =
    kg + kh + P_{g,h}).  A probed depth that compiles to the truncation
    uses that object, so the duality oracle reads the same table.
    """
    for info in tables["pairs"]:
        if info["growing"]:
            return VerdictEntry(
                "locally_finite", "fails",
                witness={"pair": [info["src"], info["dst"]],
                         "arrow_probe_counts": info["probe_counts"],
                         "probes": tables["probes"]},
                rule_chain=(),
            )
    pair_counts = {(p["src"], p["dst"]): p["count"] for p in tables["pairs"]}
    # Cross-check against skew primitives at two depths; in all-paths mode
    # probe depth 2 so length-two walks enter the compiled truncation.
    max_declared = max((len(p.segments) for p in spec.extra_paths), default=1)
    if spec.path_mode == "all":
        max_declared = max(max_declared, 2)
    for depth in sorted({1, max_declared}):
        coalgebra, basis = compile_truncation(spec, n, depth)
        if coalgebra == truncation:
            coalgebra = truncation
        wedges = coalgebra.grouplike_wedges
        verts = [(v, basis.index_of_label(v.label)) for v in basis.vertices()]
        for u, gi in verts:
            for w, hi in verts:
                expected = pair_counts.get((u.label, w.label), 0)
                expected += 1 if u != w else 0
                got = wedges[(gi, hi)].dim - 1
                if got != expected:
                    raise InternalCheckError(
                        f"skew-primitive dimension {got} for ({u.label}, {w.label}) "
                        f"at depth {depth} does not match arrow count {expected}")
    return VerdictEntry(
        "locally_finite", "holds", witness=None,
        rule_chain=(
            "every ordered vertex pair carries an arrow multiplicity that stays "
            "fixed across the family probes, so wedges of simple subcoalgebras "
            "stay finite-dimensional",
            "cross-check: skew-primitive dimensions equal arrow count plus one "
            "trivial primitive at every probed depth",
        ))


def _cycle_witness(spec: QuiverSpec, n: int, side: str) -> "dict | None":
    """In all-paths mode a cycle makes path families infinite at fixed N."""
    if spec.path_mode != "all":
        return None
    reach = reachability(instantiate(spec, n))
    cyclic = sorted(v for v, seen in reach.items() if v in seen)
    for v in sorted(reach):
        # side 'right' semiperfect counts paths INTO v: any cycle vertex
        # reaching v gives infinitely many.
        if side == "right":
            feeders = [w for w in cyclic if v in reach[w] or w == v]
        else:
            feeders = [w for w in cyclic if w in reach[v] or w == v]
        if feeders:
            return {"vertex": v, "cycle_through": feeders[0],
                    "note": "a cycle makes the admissible path family infinite "
                            "at every bound"}
    return None


def semiperfect_verdict(spec: QuiverSpec, side: str, n: int) -> VerdictEntry:
    """Right semiperfect: bounded path families into every vertex (left
    injective indecomposables finite-dimensional); left mirrors with
    paths out of every vertex."""
    criterion = f"{side}_semiperfect"
    hull_side = "left" if side == "right" else "right"
    cycle = _cycle_witness(spec, n, side)
    if cycle is not None:
        return VerdictEntry(criterion, "fails", witness=cycle, rule_chain=())
    groups = _paths_by_vertex(spec, hull_side, n)
    for v in sorted(instantiate(spec, n).vertices, key=lambda v: (v.name, v.indices)):
        touching = [g.get(v.label, []) for g in groups]
        counts = [len(t) for t in touching]
        if _grows(counts):
            known = set(touching[0])
            fresh = [lab for lab in touching[1] if lab not in known]
            return VerdictEntry(
                criterion, "fails",
                witness={"vertex": v.label,
                         "path_probe_counts": counts,
                         "probes": list(_probe_bounds(n)),
                         "new_paths_at_next_bound": fresh[:4]},
                rule_chain=())
    direction = "into" if hull_side == "left" else "out of"
    return VerdictEntry(
        criterion, "holds", witness=None,
        rule_chain=(
            f"every vertex admits a bounded family of admissible paths {direction} it",
            f"so the {hull_side} injective indecomposable comodules stay "
            f"finite-dimensional, which is {side} semiperfectness",
        ))


def _sweep_vertices(spec: QuiverSpec, sweep: "list[int]") -> "list[str]":
    """Sorted vertex labels at the smallest bound of a nonempty sweep."""
    if not sweep:
        raise ValueError("empty sweep")
    return sorted(v.label for v in instantiate(spec, min(sweep)).vertices)


def _multiplicity_columns(spec: QuiverSpec, side: str, sweep: "list[int]",
                          depth: "int | None",
                          vertices: "list[str]") -> "dict[str, list[dict]]":
    """Per vertex, one row per bound of the sweep: the maximal socle
    multiplicity of the regular comodule modulo the vertex span, and the
    grouplike simple where it is reached."""
    columns: dict[str, list] = {v: [] for v in vertices}
    for bound in sweep:
        coalgebra, _ = compile_truncation(spec, bound, depth)
        reg = regular_comodule(coalgebra, side)
        for vlabel in vertices:
            quot, _ = quotient_with_projection(reg, coalgebra.span_of_labels([vlabel]))
            best, best_simple = 0, None
            for simple, mult in multiplicity_table(quot).items():
                if mult > best:
                    best, best_simple = mult, simple
            columns[vlabel].append(
                {"N": bound, "max_multiplicity": best, "at_simple": best_simple})
    return columns


def _growth_witness(vlabel: str, rows: "list[dict]") -> "dict | None":
    """A refutation witness if the multiplicity column grows strictly over
    at least three bounds: two strict increases, as for the probes."""
    values = [row["max_multiplicity"] for row in rows]
    if len(values) >= 3 and all(a < b for a, b in zip(values, values[1:])):
        return {"quotient_by": vlabel, "table": rows,
                "note": "maximal socle multiplicity grows strictly along "
                        "the sweep; the simple-to-coalgebra multiplicity "
                        "ratio is unbounded"}
    return None


def fnoetherian_sweep(spec: QuiverSpec, side: str, sweep: "list[int]",
                      depth: "int | None" = None) -> dict:
    """Socle-multiplicity growth tables for single-vertex quotients.

    For each bound in the sweep, compiles the truncation, quotients the
    regular comodule by each vertex span, and records the maximal socle
    multiplicity over the grouplike simples.  The multiplicities are the
    weight-space dimensions of ``multiplicity_table``: one shared kernel
    for the coaction rows at non-grouplike indices, then one small system
    per grouplike on that kernel's coordinates.  A column increasing
    strictly over at least three bounds is a refutation witness; absence
    of growth never proves the property.
    """
    base_vertices = _sweep_vertices(spec, sweep)
    columns = _multiplicity_columns(spec, side, sweep, depth, base_vertices)
    witnesses = (_growth_witness(v, columns[v]) for v in base_vertices)
    witness = next((w for w in witnesses if w is not None), None)
    return {"side": side, "sweep": list(sweep), "tables": columns, "witness": witness}


def fnoetherian_witness(spec: QuiverSpec, x_vertex: str, side: str,
                        sweep: "list[int]",
                        depth: "int | None" = None) -> "tuple[list[dict], VerdictEntry]":
    """Growth table for one single-vertex quotient, plus its verdict entry.

    fails on a table increasing strictly over at least three bounds (a
    refutation witness); holds is never concluded here because the
    underlying property quantifies over infinitely many quotients, so the
    best a sweep can do is refute.  Use torsion_rat_verdict for the
    structural holds rules.
    """
    if x_vertex not in _sweep_vertices(spec, sweep):
        raise KeyError(f"unknown vertex {x_vertex!r} at bound {min(sweep)}")
    rows = _multiplicity_columns(spec, side, sweep, depth, [x_vertex])[x_vertex]
    witness = _growth_witness(x_vertex, rows)
    criterion = f"{side}_fnoetherian"
    if witness is not None:
        entry = VerdictEntry(criterion, "fails", witness=witness, rule_chain=())
    else:
        entry = VerdictEntry(
            criterion, "undecided", witness=None,
            rule_chain=("no growth witness at this vertex; only the "
                        "structural rules can conclude that the property "
                        "holds",))
    return rows, entry


# -- the rule chain ---------------------------------------------------------------

def _duality_oracle(coalgebra: Coalgebra, chain: FiltrationChain) -> dict:
    """Exact wedge vs perp-of-ideal-product agreement on standard pairs;
    chain is the coalgebra's coradical filtration.  The wedges of two
    grouplike spans come from the coalgebra's grouplike_wedges table,
    the one the local-finiteness cross-check read."""
    subspaces: dict[str, Subspace] = {"C0": chain.terms[0]}
    if len(chain.terms) > 1:
        subspaces["C1"] = chain.terms[1]
    lines = {f"span{{{coalgebra.labels[g]}}}": g for g in coalgebra.grouplike_indices()}
    for name, g in lines.items():
        subspaces[name] = Subspace.span(
            coalgebra.field, coalgebra.dim, [{g: coalgebra.field.one}])
    dual, _ = dual_and_radical(coalgebra)
    perps = {name: s.perp() for name, s in subspaces.items()}
    checked = 0
    for uname, u in subspaces.items():
        for wname, w in subspaces.items():
            if uname in lines and wname in lines:
                left = coalgebra.grouplike_wedges[(lines[uname], lines[wname])]
            else:
                left = wedge(u, w, coalgebra)
            right = ideal_product(perps[uname], perps[wname], dual).perp()
            if left != right:
                raise InternalCheckError(
                    f"wedge/ideal-product duality broke on ({uname}, {wname})")
            checked += 1
    return {"pairs_checked": checked, "subspaces": sorted(subspaces)}


def _verdict_bundle(spec: QuiverSpec, n: int, sweep: "list[int] | None",
                    depth: "int | None", coalgebra: Coalgebra,
                    filtration: FiltrationChain) -> dict:
    """Shared engine: verdict vector plus the tables that produced it.

    coalgebra is the (n, depth) truncation and filtration its coradical
    filtration; the duality oracle reads both.

    holds conclusions only ever come from the structural rules; growth
    sweeps can only refute.  Conflicts between the two routes raise.
    """
    sweep = sweep or list(range(1, max(2, n) + 1))
    tables = degree_tables(spec, n)
    lf = locally_finite_verdict(spec, n, tables, coalgebra)
    right_sp = semiperfect_verdict(spec, "right", n)
    left_sp = semiperfect_verdict(spec, "left", n)
    in_bounded = all(not v["in_growing"] for v in tables["vertices"].values())
    out_bounded = all(not v["out_growing"] for v in tables["vertices"].values())
    sweeps = {side: fnoetherian_sweep(spec, side, sweep, depth)
              for side in ("left", "right")}

    entries = [lf, right_sp, left_sp]

    fn_entries: dict[str, VerdictEntry] = {}
    for side in ("left", "right"):
        criterion = f"{side}_fnoetherian"
        mirror_sp = right_sp if side == "left" else left_sp
        degree_ok = in_bounded if side == "left" else out_bounded
        refuted = sweeps[side]["witness"]
        structural: "tuple[str, ...]" = ()
        if mirror_sp.verdict == "holds":
            structural = (
                f"{mirror_sp.criterion.replace('_', ' ')} holds, and a "
                f"{'right' if side == 'left' else 'left'} semiperfect coalgebra "
                f"always has a {side} F-Noetherian dual",)
        elif lf.verdict == "holds" and degree_ok:
            arrow_dir = "into" if side == "left" else "out of"
            structural = (
                f"arrow families {arrow_dir} every vertex are bounded and the "
                "coalgebra is locally finite, which forces closed cofinite "
                f"one-sided ideals of the dual to be finitely generated ({side})",)
        if refuted and structural:
            raise InternalCheckError(
                f"{criterion}: a structural rule and a growth witness disagree")
        if refuted:
            fn_entries[side] = VerdictEntry(criterion, "fails", witness=refuted,
                                            rule_chain=())
        elif structural:
            fn_entries[side] = VerdictEntry(criterion, "holds", witness=None,
                                            rule_chain=structural)
        else:
            fn_entries[side] = VerdictEntry(
                criterion, "undecided", witness=None,
                rule_chain=("no structural rule applies and the multiplicity "
                            "sweep found no growth witness; the property is a "
                            "supremum over infinitely many quotients, so sweeps "
                            "can only refute it",))
    entries.extend([fn_entries["left"], fn_entries["right"]])

    for side in ("left", "right"):
        criterion = f"{side}_torsion_rat"
        if lf.verdict == "fails":
            entries.append(VerdictEntry(
                criterion, "fails",
                witness=lf.witness,
                rule_chain=()))
            continue
        chain: list[str] = []
        if right_sp.verdict == "holds":
            chain.append("right semiperfect coalgebras have torsion rational "
                         "functors on both sides")
        elif left_sp.verdict == "holds":
            chain.append("left semiperfect coalgebras have torsion rational "
                         "functors on both sides")
        elif fn_entries[side].verdict == "holds":
            chain.append(f"the dual is {side} F-Noetherian by the rule above, "
                         "and F-Noetherian duals have a torsion rational "
                         "functor on that side")
        if chain:
            entries.append(VerdictEntry(criterion, "holds", witness=None,
                                        rule_chain=tuple(chain)))
        else:
            entries.append(VerdictEntry(
                criterion, "undecided", witness=None,
                rule_chain=("local finiteness holds (necessary condition), but "
                            "no structural rule concludes the extension-closure "
                            "of rational modules on this side",)))

    if lf.verdict == "fails":
        entries.append(VerdictEntry(
            "coreflexive", "fails", witness=lf.witness, rule_chain=()))
    elif lf.verdict == "holds":
        oracle = _duality_oracle(coalgebra, filtration)
        entries.append(VerdictEntry(
            "coreflexive", "holds",
            witness={"assumption": CORADICAL_ASSUMPTION, "duality_oracle": oracle},
            rule_chain=(
                "coreflexivity is equivalent to a coreflexive coradical plus "
                "closure of the open ideals of the dual under products",
                "local finiteness together with the exact wedge/ideal-product "
                "duality verified on the probed truncation supports the "
                "product-closure condition",
            )))
    else:
        entries.append(VerdictEntry(
            "coreflexive", "undecided", witness=None,
            rule_chain=("local finiteness is undecided, so the product-closure "
                        "test has no basis",)))

    report = VerdictReport(tuple(entries))
    if tuple(e.criterion for e in report.entries) != CRITERIA:
        raise InternalCheckError("verdict entries out of order")
    return {"report": report, "degree_tables": tables, "sweeps": sweeps,
            "sweep": sweep}


def torsion_rat_verdict(spec: QuiverSpec, n: int,
                        sweep: "list[int] | None" = None,
                        depth: "int | None" = None) -> VerdictReport:
    """Verdict vector for the torsion/F-Noetherian/semiperfect battery."""
    coalgebra, _ = compile_truncation(spec, n, depth)
    bundle = _verdict_bundle(spec, n, sweep, depth, coalgebra,
                             coradical_filtration(coalgebra))
    return bundle["report"]


def filtration_report(coalgebra: Coalgebra, chain: FiltrationChain) -> dict:
    """Report entries for the coradical filtration and the socle (Loewy)
    series of the regular right comodule.  The two are independent routes
    to the same dimensions, so a disagreement raises."""
    loewy = loewy_series(regular_comodule(coalgebra, "right"))
    if loewy.dims() != chain.dims():
        raise InternalCheckError(
            f"coradical filtration dims {chain.dims()} disagree with the "
            f"regular right comodule's socle series dims {loewy.dims()}")
    return {
        "filtration": {"dims": list(chain.dims()),
                       "stabilized_at": chain.stabilized_at},
        "loewy_right": {"dims": list(loewy.dims()),
                        "stabilized_at": loewy.stabilized_at},
    }


def analyze_spec(spec: QuiverSpec, n: int, sweep: "list[int] | None" = None,
                 depth: "int | None" = None) -> dict:
    """Everything the analyze command reports, as one JSON-friendly dict."""
    coalgebra, basis = compile_truncation(spec, n, depth)
    axioms = check_axioms(coalgebra)
    if not axioms.ok:
        raise InternalCheckError(
            f"compiled truncation violates the coalgebra axioms: {axioms.first()}")
    chain = coradical_filtration(coalgebra)
    bundle = _verdict_bundle(spec, n, sweep, depth, coalgebra, chain)
    return {
        "N": n,
        "depth": depth,
        "sweep": bundle["sweep"],
        "dim": coalgebra.dim,
        "basis": list(basis.labels()),
        **filtration_report(coalgebra, chain),
        "degree_tables": bundle["degree_tables"],
        "fnoetherian_sweep": bundle["sweeps"],
        "verdicts": [e.as_dict() for e in bundle["report"].entries],
    }
