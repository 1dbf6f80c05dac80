"""Combinatorial criteria and verdict chains for quiver presentations.

Side dictionary, fixed once and used by every analyzer (the quoted
behaviour of the two built-in examples pins it down):

* paths INTO a vertex span the LEFT injective indecomposable at that
  vertex; paths OUT OF it span the RIGHT one;
* right semiperfect  <=>  left injective indecomposables stay finite
  <=>  bounded admissible-path families into every vertex;
* bounded incoming arrow families support the LEFT structural rules,
  bounded outgoing ones the RIGHT rules.

Growth is decided by one test, ``_grows`` (at least three values, each
larger than the last: probes N, N+1, N+2 or a sweep column), and reported
as witnessed, never as proof of infinitude.  A verdict of holds cites the
rule chain that produced it; a verdict of fails carries a concrete witness.

``analyze_spec`` is the one route through the analyzer.  It instantiates
each bound once, N for the truncation and the probes alike, and calls
each stage once: ``degree_tables``, ``locally_finite_verdict``, the
two-sided ``semiperfect_verdict`` (which counts each probe's paths per
vertex and enumerates a probe only for a growth witness or a refusal) and
``fnoetherian_sweep``, and the duality oracle.  The oracle solves a full
wedge and a full ideal product only for the pairs of two coradical
filtration terms.  It cuts each pair of a vertex line with C0 or C1 from
those, and the ideal side of each pair of two lines from that of the line
with C0 (``coalg.restrict_wedge``, ``coalg.restrict_product_perp``); the
wedge side of a pair of two lines is the entry of the truncation's table
of grouplike-pair wedges, ``Coalgebra.grouplike_wedges``.

Every other truncation the analyzer reads (the cross-check's depths, the
sweep's bounds) goes by one rule, ``_pairs_at``: a truncation already
compiled (the analyzed one or, for a sweep past N, its largest bound's)
hands over its own table when its paths are the enumerated ones, whichever
one it is, or else cuts each pair wedge from the first that holds them
(``PathBasis.place_in``); only a truncation that no compiled one holds is
compiled, with its own table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from ..coalg import (
    Coalgebra,
    FiltrationChain,
    check_axioms,
    coradical_filtration,
    dual_and_radical,
    ideal_product,
    restrict_product_perp,
    restrict_wedge,
    wedge,
)
from ..comod import loewy_series, regular_comodule
from ..exactlin import Subspace, kernel_on
from .dsl import QuiverSpec
from .paths import (PathBasis, QuiverInstance, compile_truncation, cycle_vertices,
                    enumerate_instance, instantiate, path_counts)


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


# -- counting ------------------------------------------------------------------

def _probe_bounds(n: int) -> "tuple[int, int, int]":
    return (n, n + 1, n + 2)


def _grows(values: "tuple[int, ...] | list[int]") -> bool:
    return len(values) >= 3 and all(a < b for a, b in zip(values, values[1:]))


def degree_tables(n: int, probes: "list[QuiverInstance]") -> dict:
    """Arrow in/out counts per vertex of the probes at N, N+1, N+2 plus growth flags."""
    counts = [Counter(key for a in inst.arrows
                      for key in (("in", a.dst), ("out", a.src), (a.src, a.dst)))
              for inst in probes]

    def at_probes(key) -> "tuple[int, ...]":
        return tuple(c[key] for c in counts)

    ordered = sorted(probes[0].vertices, key=lambda v: (v.name, v.indices))
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
    return {"N": n, "probes": list(_probe_bounds(n)), "vertices": table, "pairs": pairs}


# -- individual verdicts ---------------------------------------------------------

def locally_finite_verdict(spec: QuiverSpec, n: int, tables: dict,
                           truncation: "tuple[Coalgebra, PathBasis]") -> VerdictEntry:
    """Bounded arrow multiplicity for every ordered vertex pair.

    tables is degree_tables at n and truncation the analyzed truncation
    at n, as compile_truncation returns it.  Cross-validated on compiled
    truncations at two depths: the (g, h)-skew-primitive space of a
    vertex pair must have dimension (arrow count) + 1 for distinct
    vertices and (loop count) for g = h.  Its dimension is read as
    dim(kg ^ kh) - 1 from the coalgebra's table of grouplike-pair wedges
    (Taft-Wilson: kg ^ kh = kg + kh + P_{g,h}).  Each probed depth is
    enumerated from the truncation's instance and read through _pairs_at:
    placed in the truncation, its entries are cut from the table the sweep
    and the oracle read, and it is compiled only when it holds a path the
    truncation lacks.  Either way the wedges read only Delta.
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
        basis = enumerate_instance(spec, truncation[1].instance, depth)
        _, _, wedges = _pairs_at(spec, n, basis, [truncation])
        verts = [(v, basis.index_of_label(v.label)) for v in basis.vertices()]
        for u, gi in verts:
            for w, hi in verts:
                expected = pair_counts.get((u.label, w.label), 0)
                expected += 1 if u != w else 0
                got = wedges((gi, hi)).dim - 1
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


def _cycle_witness(reach: "dict[str, set[str]]", side: str) -> "dict | None":
    """In all-paths mode a cycle makes path families infinite at fixed N;
    reach is the instance's reachability map, empty in declared mode."""
    cyclic = cycle_vertices(reach)
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


def _path_growth(counts: "list[dict[str, int]]", side: str, vertices: list, n: int,
                 probe_paths) -> "dict | None":
    """A witness at the first vertex whose path family on side grows over
    the probes; counts holds the side's path counts at each probe, and
    probe_paths(k) enumerates probe k, read only for the witness's paths."""
    for v in vertices:
        at_probes = [c.get(v.label, 0) for c in counts]
        if _grows(at_probes):
            def touching(basis: PathBasis) -> "list[str]":
                return [p.label for p in basis.paths
                        if (p.target if side == "left" else p.source).label == v.label]
            known = set(touching(probe_paths(0)))
            fresh = [lab for lab in touching(probe_paths(1)) if lab not in known]
            return {"vertex": v.label,
                    "path_probe_counts": at_probes,
                    "probes": list(_probe_bounds(n)),
                    "new_paths_at_next_bound": fresh[:4]}
    return None


def semiperfect_verdict(spec: QuiverSpec, n: int, probes: "list[QuiverInstance]",
                        known: "PathBasis | None" = None) -> "dict[str, VerdictEntry]":
    """Right semiperfect: bounded path families into every vertex (left
    injective indecomposables finite-dimensional); left mirrors with
    paths out of every vertex.

    probes holds spec's instances at n, n+1, n+2; both sides read the
    reachability map of the first and the path counts of each
    (paths.path_counts, which holds every rule for which paths an instance
    has, and refuses a probe as its enumeration would).  A cycle fails
    both sides, so the paths are counted only when some side has no cycle
    witness (an all-paths cyclic quiver has no unbounded enumeration).
    A growing count's witness names paths
    new at n+1, so only then are the first two probes enumerated, once
    each; known, an enumeration the caller holds, stands for the first
    when it is that instance's at depth None.
    """
    reach = probes[0].reachability if spec.path_mode == "all" else {}
    cycles = {side: _cycle_witness(reach, side) for side in ("right", "left")}
    counts = ([path_counts(spec, inst) for inst in probes]
              if None in cycles.values() else None)

    @cache
    def probe_paths(k: int) -> PathBasis:
        if k == 0 and known is not None and known.instance is probes[0] \
                and known.depth is None:
            return known
        return enumerate_instance(spec, probes[k])

    ordered = sorted(probes[0].vertices, key=lambda v: (v.name, v.indices))
    verdicts: dict[str, VerdictEntry] = {}
    for side, cycle in cycles.items():
        criterion = f"{side}_semiperfect"
        hull_side = "left" if side == "right" else "right"
        witness = cycle or _path_growth([c[hull_side] for c in counts], hull_side,
                                        ordered, n, probe_paths)
        if witness is not None:
            verdicts[side] = VerdictEntry(criterion, "fails", witness=witness,
                                          rule_chain=())
            continue
        direction = "into" if hull_side == "left" else "out of"
        verdicts[side] = VerdictEntry(
            criterion, "holds", witness=None,
            rule_chain=(
                f"every vertex admits a bounded family of admissible paths {direction} it",
                f"so the {hull_side} injective indecomposable comodules stay "
                f"finite-dimensional, which is {side} semiperfectness",
            ))
    return verdicts


def _growth_witness(columns: "dict[str, list[dict]]") -> "dict | None":
    """A refutation witness at the first vertex whose multiplicity column
    grows over the sweep, by the growth test of the probes."""
    for vlabel, rows in columns.items():
        if _grows([row["max_multiplicity"] for row in rows]):
            return {"quotient_by": vlabel, "table": rows,
                    "note": "maximal socle multiplicity grows strictly along "
                            "the sweep; the simple-to-coalgebra multiplicity "
                            "ratio is unbounded"}
    return None


def _pair_wedges(reference: Coalgebra, place: "list[int]"):
    """The wedge kg ^ kh of the grouplikes of D, as a function of the pair
    (g, h) of D's indices, as a subspace of reference, where D is the
    subcoalgebra of reference spanned by the basis vectors place
    (PathBasis.place_in).

    C = D + E with E spanned by the other basis vectors of C = reference.
    Then C (x) C splits as D(x)D + D(x)E + E(x)D + E(x)E, and for X, Y in D
    the space X(x)C + C(x)Y = (X(x)D + D(x)Y) + X(x)E + E(x)Y is graded by
    it, so (X(x)C + C(x)Y) meets D(x)D in X(x)D + D(x)Y.  For x in D,
    Delta_C(x) = Delta_D(x) lies in D(x)D, so x is in X ^_C Y exactly when
    it is in X ^_D Y: X ^_D Y = (X ^_C Y) meet D.  Each entry is therefore
    the kernel, on C's entry, of its coordinates outside D, and its system
    is the entry's columns there (Subspace.columns); only the entries read
    are solved, each once: the right side reads (v, h) and the left side
    (h, v), so pairs repeat.
    """
    inside = set(place)

    @cache
    def within(pair: "tuple[int, int]") -> Subspace:
        entry = reference.grouplike_wedges[(place[pair[0]], place[pair[1]])]
        return kernel_on(entry, {j: col for j, col in entry.columns.items()
                                 if j not in inside})
    return within


def _pairs_at(spec: QuiverSpec, bound: int, basis: PathBasis,
              held: "list[tuple[Coalgebra, PathBasis]]"):
    """(labels, grouplikes, pair wedges) of the truncation whose paths are
    basis, enumerated at bound: a held one's own when its paths are basis,
    else placed in the first held one that holds it and cut from its table
    (_pair_wedges), else compiled."""
    own = next((c for c, reference in held if basis == reference), None)
    if own is None:
        for c, reference in held:
            place = basis.place_in(reference)
            if place is not None:
                kept = set(c.grouplike_indices())
                grouplikes = tuple(i for i, j in enumerate(place) if j in kept)
                return basis.labels(), grouplikes, _pair_wedges(c, place)
        own, _ = compile_truncation(spec, bound, basis.depth, instance=basis.instance)
    return own.labels, own.grouplike_indices(), own.grouplike_wedges.__getitem__


def fnoetherian_sweep(spec: QuiverSpec, sweep: "list[int]", depth: "int | None",
                      n: int, truncation: "tuple[Coalgebra, PathBasis]") -> dict:
    """Socle-multiplicity growth tables for single-vertex quotients, per side.

    truncation is the analyzed truncation at (n, depth), as
    compile_truncation returns it, read at bound n.  Per side, the column
    of a vertex v (a grouplike at the smallest bound) holds the maximal
    socle multiplicity of C/kv over the grouplike simples and the first
    simple reaching it.  A vertex of the smallest bound that is not a
    grouplike label at every sweep bound (a family whose vertex set shifts
    with the bound) gets no column.  A growing column refutes; absence of
    growth never proves the property.

    The counts are grouplike-pair wedges, each bound's read by _pairs_at
    from the truncations held: the one at the largest bound, when it
    exceeds n, then the analyzed one, whose table the cross-check and the
    oracle read.  The smallest bound is instantiated and enumerated first
    and the largest, when it exceeds n, compiled right after it (so an
    over-budget sweep fails before any bound in between is built).  Every
    other bound is instantiated and enumerated once, and compiled only
    when no held truncation holds its paths.  Right weight-h vectors of
    C/kv lift to the c with (pi_v (x) id)Delta c = pi_v(c) (x) h: inside
    kv ^ kh by definition, and all of it, as id (x) epsilon turns
    (pi_v (x) id)Delta c = w (x) h into w = pi_v(c) (counit law,
    epsilon(h) = 1).  The lifts hold kv = ker pi_v, so
    [soc(C/kv) : S_h] = dim(kv ^ kh) - 1, and dim(kh ^ kv) - 1 on the left.
    """
    if not sweep:
        raise ValueError("empty sweep")
    smallest, top = min(sweep), max(max(sweep), n)
    bases = {n: truncation[1]}
    if smallest not in bases:
        bases[smallest] = enumerate_instance(spec, instantiate(spec, smallest), depth)
    held = [truncation]
    if top != n:
        inst = bases[top].instance if top in bases else instantiate(spec, top)
        held = [compile_truncation(spec, top, depth, instance=inst), truncation]
        bases[top] = held[0][1]

    @cache
    def at_bound(bound: int):
        """(labels, grouplikes, pair wedges) of the truncation at bound."""
        basis = bases[bound] if bound in bases else enumerate_instance(
            spec, instantiate(spec, bound), depth)
        return _pairs_at(spec, bound, basis, held)

    labels, grouplikes, _ = at_bound(smallest)
    vertices = sorted(labels[g] for g in grouplikes)
    tables = {side: {v: [] for v in vertices} for side in ("left", "right")}
    for bound in sweep:
        labels, grouplikes, wedges = at_bound(bound)
        at = {labels[g]: g for g in grouplikes}
        vertices = [vlabel for vlabel in vertices if vlabel in at]
        for side, columns in tables.items():
            for vlabel in vertices:
                v = at[vlabel]
                best, best_simple = 0, None
                for h in grouplikes:
                    mult = wedges((v, h) if side == "right" else (h, v)).dim - 1
                    if mult > best:
                        best, best_simple = mult, labels[h]
                columns[vlabel].append(
                    {"N": bound, "max_multiplicity": best, "at_simple": best_simple})
    tables = {side: {v: columns[v] for v in vertices} for side, columns in tables.items()}
    return {side: {"side": side, "sweep": list(sweep), "tables": columns,
                   "witness": _growth_witness(columns)}
            for side, columns in tables.items()}


# -- the rule chain ---------------------------------------------------------------

def _duality_sides(coalgebra: Coalgebra, chain: FiltrationChain
                   ) -> "tuple[dict[str, Subspace], dict, dict]":
    """The oracle's subspaces by name (C0, C1 when the chain has it, and
    each grouplike line span{g}), then the wedge side X ^ Y and the ideal
    side (X^perp * Y^perp)^perp of every ordered pair of them, each keyed
    by the pair of names.  chain is the coalgebra's coradical filtration.

    Only the pairs of two filtration terms are solved here, each as one
    full wedge and one full ideal product; each of those wedges is also
    checked against the chain, C_i ^ C_j = C_{i+j+1} (the last term past
    the end).  Every other pair is cut from a space already solved:
    * (span{g}, Y) and (Y, span{g}) for a filtration term Y:
      restrict_wedge of C0 ^ Y and Y ^ C0, and restrict_product_perp of
      those pairs' ideal sides, the line's slot cut per g.  For Y = C0 the
      ideal side is P_g = (I_g * (kG)^perp)^perp, with I_g = (kg)^perp;
    * two lines (kg, kh): the wedge side from grouplike_wedges, the table
      the cross-check and the sweep read, and the ideal side
      (I_g * I_h)^perp as restrict_product_perp's cut of P_g.
    The cuts hold because C0 = kG, a theorem for path coalgebras that is
    checked here against the grouplike coordinates.  The wedge side reads
    only Delta and the ideal side only the dual, so each pair still sets
    two independent routes against each other.
    """
    field, dim = coalgebra.field, coalgebra.dim
    grouplikes = coalgebra.grouplike_indices()
    if chain.terms[0] != Subspace.coordinates(field, dim, grouplikes):
        raise InternalCheckError(
            "coradical filtration term C0 is not the span of the grouplikes")
    terms = {f"C{i}": term for i, term in enumerate(chain.terms[:2])}
    lines = {f"span{{{coalgebra.labels[g]}}}": g for g in grouplikes}
    subspaces = dict(terms)
    for name, g in lines.items():
        subspaces[name] = Subspace.coordinates(field, dim, [g])
    dual, _ = dual_and_radical(coalgebra)
    perps = {name: term.perp() for name, term in terms.items()}
    last = len(chain.terms) - 1
    left: dict = {}
    right: dict = {}
    for i, (xname, x) in enumerate(terms.items()):
        for j, (yname, y) in enumerate(terms.items()):
            pair = (xname, yname)
            left[pair] = wedge(x, y, coalgebra)
            n = min(i + j + 1, last)
            if left[pair] != chain.terms[n]:
                raise InternalCheckError(
                    f"the wedge {xname} ^ {yname} is not the coradical "
                    f"filtration term C{n}")
            right[pair] = ideal_product(perps[xname], perps[yname], dual).perp()
    for yname, y in terms.items():
        after_w = restrict_wedge(left[("C0", yname)], y, coalgebra, grouplikes, 0)
        after_p = restrict_product_perp(right[("C0", yname)], perps[yname],
                                        dual, grouplikes, 0)
        before_w = restrict_wedge(left[(yname, "C0")], y, coalgebra, grouplikes, 1)
        before_p = restrict_product_perp(right[(yname, "C0")], perps[yname],
                                         dual, grouplikes, 1)
        for name, g in lines.items():
            left[(name, yname)], right[(name, yname)] = after_w[g], after_p[g]
            left[(yname, name)], right[(yname, name)] = before_w[g], before_p[g]
    wedges = coalgebra.grouplike_wedges
    for uname, g in lines.items():
        ideal = Subspace.coordinates(field, dim, set(range(dim)) - {g})
        products = restrict_product_perp(right[(uname, "C0")], ideal, dual, grouplikes, 1)
        for wname, h in lines.items():
            left[(uname, wname)] = wedges[(g, h)]
            right[(uname, wname)] = products[h]
    return subspaces, left, right


def _duality_oracle(coalgebra: Coalgebra, chain: FiltrationChain) -> dict:
    """Exact wedge vs perp-of-ideal-product agreement on every ordered pair
    of the standard subspaces, compared as canonical subspaces; chain is
    the coalgebra's coradical filtration.  _duality_sides builds both sides
    of every pair, solving a full wedge and a full ideal product only for
    the pairs of two filtration terms and cutting every pair with a
    grouplike line from a space already solved."""
    subspaces, left, right = _duality_sides(coalgebra, chain)
    checked = 0
    for uname in subspaces:
        for wname in subspaces:
            if left[(uname, wname)] != right[(uname, wname)]:
                raise InternalCheckError(
                    f"wedge/ideal-product duality broke on ({uname}, {wname})")
            checked += 1
    return {"pairs_checked": checked, "subspaces": sorted(subspaces)}


def filtration_report(coalgebra: Coalgebra, chain: FiltrationChain) -> dict:
    """Report entries for the coradical filtration and the socle (Loewy)
    series of the regular right comodule.  The two are independent routes
    to the same terms (the socle series of C_C is its coradical
    filtration), so a disagreement, in a dimension or in a term compared
    as a subspace, raises."""
    loewy = loewy_series(regular_comodule(coalgebra, "right"))
    if loewy.dims() != chain.dims():
        raise InternalCheckError(
            f"coradical filtration dims {chain.dims()} disagree with the "
            f"regular right comodule's socle series dims {loewy.dims()}")
    for n, (term, socle) in enumerate(zip(chain.terms, loewy.terms)):
        if term != socle:
            raise InternalCheckError(
                f"coradical filtration term C{n} differs from the regular "
                f"right comodule's socle series term {n}")
    return {
        "filtration": {"dims": list(chain.dims()),
                       "stabilized_at": chain.stabilized_at},
        "loewy_right": {"dims": list(loewy.dims()),
                        "stabilized_at": loewy.stabilized_at},
    }


def analyze_spec(spec: QuiverSpec, n: int, sweep: "list[int] | None" = None,
                 depth: "int | None" = None) -> dict:
    """Everything the analyze command reports, as one JSON-friendly dict.

    The analyzer's one route: it instantiates each probe bound once and
    compiles the (n, depth) truncation from the instance at n, then runs
    each verdict stage once on them (the two-sided stages answer both
    sides).  sweep None means the bounds 1..max(2, n).

    holds conclusions only ever come from the structural rules; growth
    sweeps can only refute.  Conflicts between the two routes raise.
    """
    instance = instantiate(spec, n)
    truncation = compile_truncation(spec, n, depth, instance=instance)
    coalgebra, basis = truncation
    axioms = check_axioms(coalgebra)
    if not axioms.ok:
        raise InternalCheckError(
            f"compiled truncation violates the coalgebra axioms: {axioms.first()}")
    filtration = coradical_filtration(coalgebra)
    if sweep is None:
        sweep = list(range(1, max(2, n) + 1))
    probes = [instance] + [instantiate(spec, bound) for bound in _probe_bounds(n)[1:]]
    tables = degree_tables(n, probes)
    lf = locally_finite_verdict(spec, n, tables, truncation)
    semiperfect = semiperfect_verdict(spec, n, probes, basis)
    right_sp, left_sp = semiperfect["right"], semiperfect["left"]
    in_bounded = all(not v["in_growing"] for v in tables["vertices"].values())
    out_bounded = all(not v["out_growing"] for v in tables["vertices"].values())
    sweeps = fnoetherian_sweep(spec, sweep, depth, n, truncation)

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
        if refuted or structural:
            fn_entries[side] = VerdictEntry(
                criterion, "fails" if refuted else "holds", witness=refuted,
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
            entries.append(VerdictEntry(criterion, "fails", witness=lf.witness,
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
    else:
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

    if tuple(e.criterion for e in entries) != CRITERIA:
        raise InternalCheckError("verdict entries out of order")
    return {
        "N": n,
        "depth": depth,
        "sweep": sweep,
        "dim": coalgebra.dim,
        "basis": list(basis.labels()),
        **filtration_report(coalgebra, filtration),
        "degree_tables": tables,
        "fnoetherian_sweep": sweeps,
        "verdicts": [e.as_dict() for e in entries],
    }
