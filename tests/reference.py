"""Reference implementations and fixtures the tests compare the package
against.

Each is the plain, slow form of something the package does another way,
or a construction only the tests need: matrices of Delta, of left
multiplication in the dual and of a dual vector's action on a comodule;
products in the dual; direct sums, subcomodules and the coideal
predicates; subspace containment and coordinates; stacking and composing
sparse matrices; and echelon form by back-elimination through every
pivot row.  The package itself never imports this module.
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
