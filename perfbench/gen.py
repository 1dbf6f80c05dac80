"""Seeded inputs for the qcalg benchmark and the answers they must produce.

Every input is a quiver family written as DSL text.  The benchmark also
keeps its own model of the same family at each bound (vertices, arrows,
declared paths), enumerates the basis paths itself and derives the
expected numbers from that enumeration, so no expected value comes from
the program under test.  Structure-constants files are written from the
same model after a seeded unitriangular integer change of basis.

The seed chooses names and basis-change coefficients.  Shapes, bounds and
orientations are fixed per workload, and the names keep their relative
order, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

RESERVED = {"full", "zero"}  # subspace tokens of the command line
PER_ROW = 6  # entries below the diagonal per row of the change of basis


@dataclass(frozen=True)
class Quiver:
    """One concrete truncation: what the compiled basis must contain."""

    vertices: "tuple[str, ...]"
    arrows: "tuple[tuple[str, str, str], ...]"  # (label, src, dst)
    declared: "tuple[tuple[str, tuple[str, ...]], ...]"  # (label, arrow labels)
    mode: str  # declared | all

    def paths(self) -> "list[tuple[str, tuple[str, ...], str, str]]":
        """Basis paths as (label, arrow labels, source, target); vertices
        have no arrows.  All mode walks every path (the shapes are acyclic)."""
        ends = {lab: (s, t) for lab, s, t in self.arrows}
        out = [(v, (), v, v) for v in self.vertices]
        out += [(lab, (lab,), s, t) for lab, s, t in self.arrows]
        if self.mode == "declared":
            out += [(lab, chain, ends[chain[0]][0], ends[chain[-1]][1])
                    for lab, chain in self.declared]
            return out
        frontier = [p for p in out if len(p[1]) == 1]
        while frontier:
            longer = [(f"{lab}.{a}", chain + (a,), s, ends[a][1])
                      for lab, chain, s, t in frontier
                      for a, src, _ in self.arrows if src == t]
            out += longer
            frontier = longer
        return out

    def length_counts(self) -> "list[int]":
        """Number of basis paths of length at most k, for k = 0 .. max."""
        lengths = [len(chain) for _, chain, _, _ in self.paths()]
        return [sum(1 for n in lengths if n <= k) for k in range(max(lengths) + 1)]

    def arrow_count(self, src_set, dst_set) -> int:
        return sum(1 for _, s, t in self.arrows if s in src_set and t in dst_set)


class Names:
    """Distinct seeded lowercase identifiers."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def fresh(self) -> str:
        while True:
            size = self.rng.choice((1, 2, 2, 3))
            name = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(size))
            if name not in self.used and name not in RESERVED:
                self.used.add(name)
                return name


@dataclass(frozen=True)
class Shape:
    """A parametric quiver family: DSL text plus the model at any bound."""

    kind: str  # bouquet | fan | ladder | growing
    names: "dict[str, str]"
    flipped: bool  # arrows reversed (the opposite quiver)

    def _edge(self, src: str, dst: str) -> "tuple[str, str]":
        return (dst, src) if self.flipped else (src, dst)

    def dsl(self, field: str = "rational") -> str:
        n = self.names
        e = self._edge
        lines = [f"coalgebra {n['coalg']}", f"field {field}", "param N = 3"]
        if self.kind == "ladder":
            lines.append(f"vertex {n['v']}[k], k=0..N")
            s, t = e(f"{n['v']}[k-1]", f"{n['v']}[k]")
            lines.append(f"arrow {n['x']}[k,i]: {s} -> {t}, k=1..N, i=1..2")
            lines.append("mode all")
            return "\n".join(lines) + "\n"
        lines += [f"vertex {n['a']}", f"vertex {n['b']}[n], n=1..N"]
        s, t = e(n["a"], f"{n['b']}[n]")
        if self.kind == "bouquet":
            lines.append(f"arrow {n['x']}[n]: {s} -> {t}, n=1..N")
            lines.append(f"arrow {n['y']}[n]: {t} -> {s}, n=1..N")
            lines.append(f"path {n['p']}[n] = {n['x']}[n] . {n['y']}[n], n=1..N")
        elif self.kind == "fan":
            lines.append(f"arrow {n['x']}[n,i]: {s} -> {t}, n=1..N, i=1..n")
        else:  # growing
            lines.append(f"arrow {n['x']}[n,i]: {s} -> {t}, n=1..N, i=1..N")
            s1, t1 = e(f"{n['b']}[1]", n["a"])
            lines.append(f"arrow {n['y']}[i]: {s1} -> {t1}, i=1..N")
        lines.append("mode declared")
        return "\n".join(lines) + "\n"

    def at(self, bound: int) -> Quiver:
        n = self.names
        e = self._edge
        rng = range(1, bound + 1)
        declared: list = []
        if self.kind == "ladder":
            v = [f"{n['v']}[{k}]" for k in range(bound + 1)]
            arrows = [(f"{n['x']}[{k},{i}]", *e(v[k - 1], v[k]))
                      for k in rng for i in (1, 2)]
            return Quiver(tuple(v), tuple(arrows), (), "all")
        a = n["a"]
        b = [f"{n['b']}[{k}]" for k in rng]
        vertices = (a, *b)
        if self.kind == "bouquet":
            arrows = [(f"{n['x']}[{k}]", *e(a, b[k - 1])) for k in rng]
            arrows += [(f"{n['y']}[{k}]", *e(b[k - 1], a)) for k in rng]
            declared = [(f"{n['p']}[{k}]", (f"{n['x']}[{k}]", f"{n['y']}[{k}]"))
                        for k in rng]
        elif self.kind == "fan":
            arrows = [(f"{n['x']}[{k},{i}]", *e(a, b[k - 1]))
                      for k in rng for i in range(1, k + 1)]
        else:
            arrows = [(f"{n['x']}[{k},{i}]", *e(a, b[k - 1])) for k in rng for i in rng]
            arrows += [(f"{n['y']}[{i}]", *e(b[0], a)) for i in rng]
        return Quiver(vertices, tuple(arrows), tuple(declared), "declared")

    def growing_pairs(self, bound: int) -> "set[tuple[str, str]]":
        """Vertex pairs whose arrow count rises strictly over the probes
        bound, bound+1, bound+2, which is what local finiteness tests."""
        counts = []
        for probe in (bound, bound + 1, bound + 2):
            tally: dict = {}
            for _, s, t in self.at(probe).arrows:
                tally[(s, t)] = tally.get((s, t), 0) + 1
            counts.append(tally)
        return {pair for pair in counts[0]
                if counts[0][pair] < counts[1].get(pair, 0) < counts[2].get(pair, 0)}


def make_shape(kind: str, rng: random.Random, flipped: bool = False) -> Shape:
    """A family of the given kind with seeded names.  Orientation is the
    caller's choice: it changes the cost of some shapes by a third, so
    workloads fix it per op instead of drawing it from the seed."""
    names = Names(rng)
    keys = {"ladder": ("coalg", "v", "x"), "bouquet": ("coalg", "a", "b", "x", "y", "p"),
            "fan": ("coalg", "a", "b", "x"), "growing": ("coalg", "a", "b", "x", "y")}[kind]
    # Sorted names keep the relative order of the basis labels, which fixes
    # the elimination order, so the seed does not change the amount of work.
    return Shape(kind, dict(zip(keys, sorted(names.fresh() for _ in keys))), flipped)


# -- structure-constants files in a changed basis ------------------------------

def changed_basis_text(q: Quiver, rng: random.Random, name: str) -> str:
    """The path coalgebra of ``q`` in the basis f_i = e_i + sum_j P_ij e_j.

    P is unit lower triangular.  Every row of a path of positive length
    has PER_ROW entries below the diagonal, at fixed evenly spaced columns,
    with seeded values from {-2, -1, 1, 2}; fixed positions keep the amount
    of fill-in, and so the work, the same for every seed.  Vertex rows are
    the identity, so the vertices stay grouplike basis vectors and keep
    their labels.  Delta(f_i) is written in the new basis through the
    integer matrix Q = P^-1, and epsilon(f_i) = sum_j P_ij epsilon(e_j).
    """
    paths = q.paths()
    dim = len(paths)
    index = {chain: i for i, (_, chain, _, _) in enumerate(paths) if chain}
    vertex_index = {lab: i for i, (lab, chain, _, _) in enumerate(paths) if not chain}

    def split(i: int) -> "list[tuple[int, int]]":
        _, chain, s, t = paths[i]
        if not chain:
            return [(i, i)]
        cuts = [(vertex_index[s], i), (i, vertex_index[t])]
        cuts += [(index[chain[:c]], index[chain[c:]]) for c in range(1, len(chain))]
        return cuts

    p_rows: list = []
    for i, (_, chain, _, _) in enumerate(paths):
        row = {i: 1}
        if chain:
            for j in sorted({i * t // (PER_ROW + 1) for t in range(1, PER_ROW + 1)}):
                row[j] = rng.choice((-2, -1, 1, 2))
        p_rows.append(row)
    # Q = P^-1, unit lower triangular, by forward substitution.
    q_rows: list = []
    for i in range(dim):
        row = {i: 1}
        for j, c in p_rows[i].items():
            if j != i:
                for k, v in q_rows[j].items():
                    row[k] = row.get(k, 0) - c * v
        q_rows.append({k: v for k, v in row.items() if v})

    lines = [f"coalgebra {name}", f"dim {dim}"]
    lines += [f"label {i} {lab}" for i, (lab, _, _, _) in enumerate(paths)]
    epsilon = []
    for i in range(dim):
        tensor: dict = {}
        for j, pc in p_rows[i].items():
            for a, b in split(j):
                for c, qa in q_rows[a].items():
                    for d, qb in q_rows[b].items():
                        tensor[(c, d)] = tensor.get((c, d), 0) + pc * qa * qb
        terms = [f"{c} {d} {v}" for (c, d), v in sorted(tensor.items()) if v]
        lines.append(f"delta {i}: " + "; ".join(terms))
        epsilon.append(sum(c for j, c in p_rows[i].items() if not paths[j][1]))
    lines.append("epsilon: " + " ".join(str(v) for v in epsilon))
    return "\n".join(lines) + "\n"
