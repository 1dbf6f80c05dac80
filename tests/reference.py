"""Reference implementations and fixtures the tests compare the package
against.

Each is the plain, slow form of something the package does another way,
or a construction only the tests need: matrices of Delta, of left
multiplication in the dual and of a dual vector's action on a comodule;
products in the dual; direct sums, subcomodules and the coideal
predicates; subspace containment and coordinates; stacking and composing
sparse matrices; echelon form by back-elimination through every pivot
row; the compile of a quiver truncation by key tuples; the declared-mode
basis checked for closure by the key tuple of every subpath and linked by
walking each path's arrows; and the check that one compiled coalgebra
embeds in another, label for label.  The package
itself never imports this module.
"""

from __future__ import annotations

from typing import Callable, Iterable

from qcalg.coalg import Coalgebra, DualAlgebra, flatten_index
from qcalg.comod import Comodule, _coaction_slices, is_stable, regular_comodule
from qcalg.exactlin import (
    Matrix,
    Subspace,
    _is_one,
    drop_zeros,
    exact_quotient,
    row_add,
)
from qcalg.quiverlab.dsl import ClosureError, DslError, QuiverSpec
from qcalg.quiverlab.paths import Path, PathBasis, QuiverInstance, instantiate


# -- sparse matrices and subspaces -------------------------------------------

def from_entries(rows: int, cols: int, entries: dict) -> Matrix:
    """The matrix of entries summed term by term, zeros dropped."""
    return Matrix(rows, cols, drop_zeros(entries))


def row_dicts(m: Matrix) -> "list[dict]":
    """The rows of m as sparse dicts, one per row, empty rows included."""
    out: list[dict] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out

def image_rows(images: "list[dict]") -> dict:
    """The images images[r] of a subspace's basis rows, transposed into
    kernel_on's system: {key: {r: images[r][key]}}, one row per codomain
    key in order of first appearance."""
    rows: dict = {}
    for r, image in enumerate(images):
        for key, v in image.items():
            rows.setdefault(key, {})[r] = v
    return rows


def contains(space: Subspace, other: Subspace) -> bool:
    """Is other a subspace of space?"""
    space._require_compatible(other)
    return all(space.contains_vector(v) for v in other.basis_dicts())


def coordinates_of(space: Subspace, vec: dict) -> dict:
    """Coefficients of vec in space's stored basis; raises if not a member."""
    vec = dict(vec)
    coeffs: dict = {}
    for idx, (lead, row) in enumerate(space._pivot_rows):
        c = vec.get(lead)
        if c:
            coeffs[idx] = c
            vec = row_add(vec, row, -c)
    if vec:
        raise ValueError("vector not in subspace")
    return coeffs



def compose(a: Matrix, b: Matrix) -> Matrix:
    """a @ b (apply b first)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    by_row: dict[int, dict] = {}
    for (i, j), v in a.entries.items():
        by_row.setdefault(i, {})[j] = v
    entries: dict = {}
    b_rows = row_dicts(b)
    for i, row in by_row.items():
        acc: dict = {}
        for j, v in row.items():
            acc = row_add(acc, b_rows[j], v)
        for k, v in acc.items():
            entries[(i, k)] = v
    return Matrix(a.rows, b.cols, entries)


def vstack(mats: "Iterable[Matrix]") -> Matrix:
    """The matrices' rows one block under the other."""
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    entries: dict = {}
    offset = 0
    for m in mats:
        if m.cols != cols:
            raise ValueError("vstack: column counts differ")
        for (i, j), v in m.entries.items():
            entries[(i + offset, j)] = v
        offset += m.rows
    return Matrix(offset, cols, entries)


def rref_full_scan(rows: "Iterable[dict]",
                   lead_of: "Callable[[dict], int]" = min) -> "list[dict]":
    """Reduced row echelon form, eliminating each new pivot row from every
    earlier pivot row that holds its lead: one step per pivot, per row."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = drop_zeros(row)
        for j in [c for c in row if c in pivots]:
            v = row.get(j)
            if v:
                row = row_add(row, pivots[j], -v)
        if not row:
            continue
        lead = lead_of(row)
        inv = row[lead]
        if not _is_one(inv):
            row = {j: exact_quotient(v, inv) for j, v in row.items()}
        for col, piv in list(pivots.items()):
            if lead in piv:
                pivots[col] = row_add(piv, row, -piv[lead])
        pivots[lead] = row
    return [pivots[c] for c in sorted(pivots)]


# -- coalgebras and their duals ----------------------------------------------

def delta_matrix(c: Coalgebra) -> Matrix:
    """Delta as a dim^2 x dim matrix in flattened coordinates."""
    n = c.dim
    entries: dict = {}
    for i in range(n):
        for (j, k), v in c.delta_dict(i).items():
            entries[(flatten_index(j, k, n), i)] = v
    return Matrix(n * n, n, entries)


def multiply(a: DualAlgebra, u: dict, v: dict) -> dict:
    """The convolution product u * v in the dual."""
    zero = a.field.zero
    out: dict = {}
    for i, ui in u.items():
        row = a.mult.get(i)
        if row is None or not ui:
            continue
        for j, vj in v.items():
            terms = row.get(j)
            if terms is None or not vj:
                continue
            w = ui * vj
            for k, c in terms:
                out[k] = out.get(k, zero) + w * c
    return drop_zeros(out)


def unit_dict(a: DualAlgebra) -> dict:
    """The unit of the dual, the counit, as a sparse vector."""
    return {i: v for i, v in enumerate(a.unit) if v}


def left_mult_matrix(a: DualAlgebra, u: dict) -> Matrix:
    """Matrix of v -> u*v on dual coordinates."""
    zero = a.field.zero
    entries: dict = {}
    for i, ui in u.items():
        row = a.mult.get(i)
        if row is None or not ui:
            continue
        for j, terms in row.items():
            for k, c in terms:
                entries[(k, j)] = entries.get((k, j), zero) + ui * c
    return from_entries(a.dim, a.dim, entries)


def is_right_coideal(x: Subspace, c: Coalgebra) -> bool:
    """Delta(X) <= X (x) C, i.e. X is a right subcomodule of C."""
    return is_stable(regular_comodule(c, "right"), x)


def is_left_coideal(x: Subspace, c: Coalgebra) -> bool:
    """Delta(X) <= C (x) X, i.e. X is a left subcomodule of C."""
    return is_stable(regular_comodule(c, "left"), x)


def is_subcoalgebra(x: Subspace, c: Coalgebra) -> bool:
    """Delta(X) <= X (x) X, which is (X (x) C) meet (C (x) X)."""
    return is_right_coideal(x, c) and is_left_coideal(x, c)


# -- comodules ---------------------------------------------------------------

def dual_action(f: dict, m: Comodule) -> Matrix:
    """Endomorphism of M given by a dual vector f.

    Right comodules: f.v = v_0 f(v_1), an algebra representation of the
    convolution dual.  Left comodules: v.f = f(v_-1) v_0, an
    anti-representation (composition order flips with convolution).
    """
    for k in f:
        if k < 0 or k >= m.over.dim:
            raise ValueError("dual vector does not live on the base coalgebra")
    zero = m.field.zero
    entries: dict = {}
    for i in range(m.dim):
        for (j, k), c in m.module_coalg_pairs(i).items():
            fk = f.get(k)
            if fk:
                entries[(j, i)] = entries.get((j, i), zero) + c * fk
    return from_entries(m.dim, m.dim, entries)


def direct_sum(parts: "list[Comodule]") -> Comodule:
    """The direct sum of comodules of one side over one coalgebra."""
    if not parts:
        raise ValueError("direct sum of nothing")
    side, base = parts[0].side, parts[0].over
    if any(p.side != side or p.over != base for p in parts):
        raise ValueError("direct sum needs one side and one base coalgebra")
    coaction: list = []
    labels: list[str] = []
    offset = 0
    for n, p in enumerate(parts):
        for i in range(p.dim):
            terms = []
            for j, k, c in p.coaction[i]:
                if side == "right":
                    terms.append((j + offset, k, c))
                else:
                    terms.append((j, k + offset, c))
            coaction.append(tuple(terms))
        labels.extend(f"{lab}#{n}" for lab in p.labels)
        offset += p.dim
    return Comodule(side=side, dim=offset, over=base,
                    coaction=tuple(coaction), labels=tuple(labels))


def sub_comodule(m: Comodule, x: Subspace, name: str = "sub") -> Comodule:
    """Restrict the coaction to a validated coaction-stable subspace."""
    if not is_stable(m, x):
        raise ValueError("subspace is not coaction-stable")
    basis = x.basis_dicts()
    coaction: list = []
    for u in basis:
        slices = _coaction_slices(m, u)
        terms = []
        for k in sorted(slices):
            for r, c in sorted(coordinates_of(x, slices[k]).items()):
                terms.append((r, k, c) if m.side == "right" else (k, r, c))
        coaction.append(tuple(terms))
    labels = tuple(f"{name}{t}" for t in range(len(basis)))
    return Comodule(side=m.side, dim=len(basis), over=m.over,
                    coaction=tuple(coaction), labels=labels)


# -- quiver truncations ------------------------------------------------------

def _key(p: Path) -> tuple:
    if not p.arrows:
        return (("vertex", p.source.name, p.source.indices),)
    return tuple(("arrow", a.name, a.indices) for a in p.arrows)


def reference_compile(spec: QuiverSpec, n_bound: "int | None" = None,
                      depth: "int | None" = None) -> Coalgebra:
    """The truncation at (n_bound, depth) of a valid spec: every walk
    grown arrow by arrow in all mode or the declared set, sorted by
    Path.sort_key, and each Delta term looked up by the key tuples of its
    two halves, O(L^2) per path of length L."""
    inst = instantiate(spec, n_bound)
    paths = [Path(v.label, v, v, ()) for v in inst.vertices]
    if depth is None or depth >= 1:
        paths.extend(Path(a.label, a.src, a.dst, (a,)) for a in inst.arrows)
    if spec.path_mode == "declared":
        paths.extend(p for p in inst.declared_paths if depth is None or p.length <= depth)
    else:
        frontier = [p for p in paths if p.length == 1]
        while frontier and (depth is None or frontier[0].length < depth):
            frontier = [Path(".".join(x.label for x in p.arrows + (a,)), p.source, a.dst,
                             p.arrows + (a,))
                        for p in frontier for a in inst.arrows if a.src == p.target]
            paths.extend(frontier)
    paths.sort(key=Path.sort_key)
    index = {_key(p): i for i, p in enumerate(paths)}
    field = spec.field
    delta, epsilon = [], []
    for i, p in enumerate(paths):
        if not p.arrows:
            delta.append(((i, i, field.one),))
            epsilon.append(field.one)
            continue
        terms = []
        for cut in range(p.length + 1):
            left = (_key(Path("", p.source, p.source, ())) if cut == 0
                    else tuple(("arrow", a.name, a.indices) for a in p.arrows[:cut]))
            right = (_key(Path("", p.target, p.target, ())) if cut == p.length
                     else tuple(("arrow", a.name, a.indices) for a in p.arrows[cut:]))
            terms.append((index[left], index[right], field.one))
        delta.append(tuple(terms))
        epsilon.append(field.zero)
    return Coalgebra(field=field, dim=len(paths), labels=tuple(p.label for p in paths),
                     delta=tuple(delta), epsilon=tuple(epsilon))


def _closure_check(paths: "list[Path]") -> None:
    """Refuse the first path, in list order, with a contiguous subpath not
    in the list, naming the first such subpath by its start and end."""
    keys = {_key(p) for p in paths}
    for p in paths:
        for i in range(p.length):
            for j in range(i + 1, p.length + 1):
                if (i, j) == (0, p.length):
                    continue
                if tuple(("arrow", a.name, a.indices) for a in p.arrows[i:j]) not in keys:
                    missing = ".".join(a.label for a in p.arrows[i:j])
                    raise ClosureError(
                        f"subpath {missing} of {p.label} is not declared", p.line)


def reference_declared_basis(inst: QuiverInstance, depth: "int | None" = None
                             ) -> PathBasis:
    """The declared-mode basis of inst up to depth, built as enumeration
    built it before declared lists were checked through their links.

    The vertices, the arrows (unless depth is 0) and the declared paths up
    to depth are refused where two coincide, at the later line, then
    sorted by Path.sort_key and refused where one misses a subpath, by the
    key tuple of every subpath, O(L^2) per path of length L.  Each path is
    then linked by walking its arrows from its source vertex (its prefix)
    and from its second vertex (its tail) through the paths before it, and
    repeated labels are refused last.
    """
    candidates = [Path(v.label, v, v, ()) for v in inst.vertices]
    if depth is None or depth >= 1:
        candidates.extend(Path(a.label, a.src, a.dst, (a,)) for a in inst.arrows)
    candidates.extend(p for p in inst.declared_paths if depth is None or p.length <= depth)
    unique: dict = {}
    for p in candidates:
        if _key(p) in unique:
            first = unique[_key(p)]
            raise DslError(f"paths {first.label} and {p.label} coincide",
                           max(first.line, p.line))
        unique[_key(p)] = p
    ordered = sorted(unique.values(), key=Path.sort_key)
    _closure_check(ordered)
    vertex_at: dict = {}
    step: dict = {}  # (path index, arrow label) -> that path extended
    prefix: list = []
    tail: list = []
    for i, p in enumerate(ordered):
        if not p.arrows:
            vertex_at[p.source.label] = i
            prefix.append(i)
            tail.append(i)
            continue
        head = vertex_at[p.source.label]
        for a in p.arrows[:-1]:
            head = step[(head, a.label)]
        rest = vertex_at[p.arrows[0].dst.label]
        for a in p.arrows[1:]:
            rest = step[(rest, a.label)]
        step[(head, p.arrows[-1].label)] = i
        prefix.append(head)
        tail.append(rest)
    labels = [p.label for p in ordered]
    if len(set(labels)) != len(labels):
        raise DslError("duplicate path labels after instantiation", 1)
    return PathBasis(tuple(ordered), tuple(prefix), tuple(tail), inst, depth)


def basis_embedding(sub: Coalgebra, reference: Coalgebra) -> "list[int] | None":
    """reference's index of each basis element of sub when sub is the
    subcoalgebra of reference spanned by those basis vectors, else None.

    Checked from the structure constants alone: one field, every label of
    sub a label of reference with the same epsilon, and
    Delta_sub(x) = Delta_reference(x) label for label.  An arrow whose
    endpoint moves with the bound keeps its label and changes its Delta,
    so it fails the check.
    """
    if sub.field != reference.field:
        return None
    index = {label: i for i, label in enumerate(reference.labels)}
    place = [index.get(label) for label in sub.labels]
    if None in place:
        return None
    for i, j in enumerate(place):
        image = {(place[a], place[b]): c for (a, b), c in sub.delta_dict(i).items()}
        if sub.epsilon[i] != reference.epsilon[j] or image != reference.delta_dict(j):
            return None
    return place
