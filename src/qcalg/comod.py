"""Side-tagged finite-dimensional comodules, their dual-algebra action,
and coaction stability.

Convention table (the single source of truth for sides):

* A right comodule (M, rho) has rho(m) = m_0 (x) m_1 in M (x) C and is a
  left module over the convolution dual via  f.m = m_0 f(m_1).
* A left comodule (M, lam) has lam(m) = m_-1 (x) m_0 in C (x) M and is a
  right module over the convolution dual via  m.f = f(m_-1) m_0.
* Either way the dual space M* picks up the transposed action, so the
  radical times M* is the span of the rows of the action matrices.
* ``right coideal`` means Delta(X) <= X (x) C, i.e. X is a subcomodule of
  the regular right comodule; ``left coideal`` means Delta(X) <= C (x) X.

The left-side code paths are the tensor transposes of the right-side
ones, never hand-duplicated formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .coalg import (
    AxiomFailure,
    AxiomReport,
    Coalgebra,
    FiltrationChain,
    _IntegerImages,
    coassociativity_failures,
    counit_failures,
    coefficient_rows,
    dual_and_radical,
    merged_terms,
)
from .exactlin import Matrix, Scalar, Subspace, drop_zeros, kernel

SIDES = ("left", "right")


@dataclass(frozen=True)
class Comodule:
    """A comodule by coaction structure constants.

    For side='right' the entry (j, k, c) of ``coaction[i]`` contributes
    c * m_j (x) e_k to rho(m_i); for side='left' it contributes
    c * e_j (x) m_k to lam(m_i).
    """

    side: str
    dim: int
    over: Coalgebra
    coaction: "tuple[tuple[tuple[int, int, Scalar], ...], ...]"
    labels: "tuple[str, ...]"

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if len(self.coaction) != self.dim or len(self.labels) != self.dim:
            raise ValueError("coaction/label lengths must equal dim")

    @property
    def field(self):
        return self.over.field

    @cached_property
    def _pairs(self) -> "list[dict]":
        if self.side == "right" and self.coaction is self.over.delta:
            # The right regular comodule: its coalgebra's merged Delta table.
            return [self.over.delta_dict(i) for i in range(self.dim)]
        return merged_terms(self.coaction, swap=self.side == "left")

    def module_coalg_pairs(self, i: int) -> "dict[tuple[int, int], Scalar]":
        """Coaction of basis element i as {(module_idx, coalg_idx): c},
        repeated pairs summed and zeros dropped.  The table of every i is
        built once per comodule and shared: read the dict, never mutate it."""
        return self._pairs[i]

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown comodule label {name!r}") from None


def regular_comodule(c: Coalgebra, side: str) -> Comodule:
    """C over itself; the coaction is the comultiplication on either side."""
    return Comodule(side=side, dim=c.dim, over=c, coaction=c.delta, labels=c.labels)


def simple_comodule(c: Coalgebra, g: int, side: str) -> Comodule:
    """The one-dimensional comodule of a grouplike weight."""
    if not c.is_grouplike(g):
        raise ValueError(f"{c.labels[g]!r} is not grouplike")
    term = ((0, g, c.field.one),) if side == "right" else ((g, 0, c.field.one),)
    return Comodule(side=side, dim=1, over=c, coaction=(term,), labels=(c.labels[g],))


# -- axioms --------------------------------------------------------------------

def check_comodule(m: Comodule) -> AxiomReport:
    """Exact coaction coassociativity and counit test."""
    return AxiomReport.of(_comodule_failures(m))


def _comodule_failures(m: Comodule) -> "Iterator[AxiomFailure]":
    c = m.over
    fmt = c.field.format
    right = m.side == "right"
    images = _IntegerImages.of(c.field, (m.coaction, c.delta), c.epsilon)
    coaction, delta = images.lift_table(m.coaction), images.lift_table(c.delta)
    # A left comodule is a right comodule over the co-opposite coalgebra
    # with its tensor slots reversed.
    if not right:
        coaction = [[(k, j, v) for j, k, v in terms] for terms in coaction]
        delta = [[(s, r, v) for r, s, v in terms] for terms in delta]
    for i, bad in coassociativity_failures(images, coaction, delta, c.dim):
        # Literal tensor slots: (module, coalg, coalg) for right comodules,
        # (coalg, coalg, module) for left ones.
        if not right:
            bad = sorted((((s, r, j), lhs, rhs) for (j, r, s), lhs, rhs in bad),
                         key=lambda failure: failure[0])
        for key, lhs, rhs in bad:
            if right:
                pos = (m.labels[key[0]], c.labels[key[1]], c.labels[key[2]])
            else:
                pos = (c.labels[key[0]], c.labels[key[1]], m.labels[key[2]])
            yield AxiomFailure("coaction-coassociativity", m.labels[i], pos,
                               fmt(lhs), fmt(rhs))
    for i, _, j, lhs, rhs in counit_failures(images, (coaction,), c.epsilon):
        yield AxiomFailure("coaction-counit", m.labels[i], (m.labels[j],),
                           fmt(lhs), fmt(rhs))


# -- the dual-algebra action ----------------------------------------------------

def _radical_action(m: Comodule) -> "dict[tuple[int, int], dict]":
    """The radical's action on M, stacked as rows: row (r, j) holds
    (f_r . e_i)_j at column i for the basis rows f_r of J, so the rows
    (r, *) are the matrix of f_r's action on M and their kernel is soc M =
    {v : J.v = 0}.  A row may hold a zero sum.

    One pass over the coaction.  J's basis rows are indexed once by column,
    as {k: [(r, f_r[k])]}, so a coaction term (j, k, c) of e_i visits only
    the rows of J with k in their support.
    """
    _, rad = dual_and_radical(m.over)
    columns: dict[int, list] = {}
    for r, row in enumerate(rad.basis):
        for k, v in row:
            columns.setdefault(k, []).append((r, v))
    rows: dict = {}
    for i in range(m.dim):
        for (j, k), c in m.module_coalg_pairs(i).items():
            for r, v in columns.get(k, ()):
                row = rows.setdefault((r, j), {})
                row[i] = row[i] + c * v if i in row else c * v
    return rows


def socle(m: Comodule) -> Subspace:
    """Largest semisimple subcomodule: the joint kernel of the radical action."""
    return kernel(_radical_action(m), m.dim, m.field)


def loewy_series(m: Comodule) -> FiltrationChain:
    """The socle series: L_0 = soc M and L_{n+1}/L_n = soc(M/L_n).

    Equivalently L_n = {v : (radical)^{n+1} v = 0}; it exhausts M in
    finite dimension.  It reads neither ideal products nor the coradical,
    so it stays a route to the filtration dimensions independent of
    coradical_filtration.

    Each term is one kernel, from L_{-1} = 0: L_{n+1} = {v : f.v in L_n for
    every f in J}, the kernel of the stacked action followed, radical row
    by radical row, by the projection p onto M/L_n read off L_n's
    residuals: row (r, t) of the system is sum_j p(e_j)_t times row (r, j)
    of the action.  This
    is the preimage under p of soc(M/L_n) = {w : J.w = 0}, because p is a
    module map: f.p(v) = p(f.v), which is zero exactly when f.v is in L_n.
    """
    action = _radical_action(m)
    n = m.dim
    term, terms = Subspace.zero(m.field, n), []
    while not terms or term.dim < n:
        residuals = term.residuals
        rows: dict = {}
        for (r, j), action_row in action.items():
            for t, w in residuals[j].items():
                row = rows.setdefault((r, t), {})
                for i, v in action_row.items():
                    row[i] = row[i] + v * w if i in row else v * w
        nxt = kernel(rows, n, m.field)
        if terms and nxt == term:
            return FiltrationChain(tuple(terms), None)  # cannot happen for comodules
        terms.append(nxt)
        term = nxt
    return FiltrationChain(tuple(terms), len(terms) - 1)


def weight_space(m: Comodule, g: int) -> Subspace:
    """{v : coaction(v) = v (x) e_g} (resp. e_g (x) v); inside the socle."""
    if not m.over.is_grouplike(g):
        raise ValueError(f"{m.over.labels[g]!r} is not grouplike")
    one = m.field.one
    rows = coefficient_rows(m._pairs)
    for t in range(m.dim):
        row = rows.setdefault((t, g), {})
        row[t] = row[t] - one if t in row else -one
    return kernel(rows, m.dim, m.field)


# -- homs, quotients, subobjects -------------------------------------------------

def hom_space(n: Comodule, m: Comodule) -> "tuple[int, list[Matrix]]":
    """All comodule maps N -> M, by solving the intertwining equations."""
    if n.side != m.side or n.over != m.over:
        raise ValueError("hom_space needs one side and one base coalgebra")
    unknowns = m.dim * n.dim  # phi[l, i] at index l*n.dim + i
    equations: dict = {}

    def add(key: tuple, col: int, c: Scalar) -> None:
        row = equations.setdefault(key, {})
        row[col] = row[col] + c if col in row else c

    for i in range(n.dim):
        # Coact in N, then map the module leg with phi.
        for (j, k), c in n.module_coalg_pairs(i).items():
            for l in range(m.dim):
                add((i, l, k), l * n.dim + j, c)
        # Map with phi, then coact in M.
        for lprime in range(m.dim):
            for (l, k), c in m.module_coalg_pairs(lprime).items():
                add((i, l, k), lprime * n.dim + i, -c)
    ker = kernel(equations, unknowns, n.field)
    mats = [Matrix(m.dim, n.dim, {(u // n.dim, u % n.dim): c for u, c in vec.items()})
            for vec in ker.basis_dicts()]
    return ker.dim, mats


def hom_image_sum(p: Comodule, target: Comodule) -> Subspace:
    """Sum of the images of every comodule map p -> target."""
    _, mats = hom_space(p, target)
    cols: list[dict] = []
    for mat in mats:
        by_col: dict[int, dict] = {}
        for (i, j), v in mat.entries.items():
            by_col.setdefault(j, {})[i] = v
        cols.extend(by_col.values())
    return Subspace.span(target.field, target.dim, cols)


def multiplicity(m: Comodule, s_label: str) -> int:
    """Socle multiplicity of the simple S_g of the given grouplike weight g.

    S_g is one-dimensional with End(S_g) = k, so the multiplicity is
    dim Hom(S_g, M).  A map sends the basis vector of S_g to a v with
    coaction(v) = v (x) e_g (resp. e_g (x) v), and that is the system of
    weight_space(m, g) itself.
    """
    return weight_space(m, m.over.label_index(s_label)).dim


def multiplicity_table(m: Comodule) -> "dict[str, int]":
    """Socle multiplicities of all grouplike simples, as weight-space
    dimensions.  For pointed bases the counts sum to the socle dimension.

    Every system weight_space(m, g) shares the rows at non-grouplike
    coalgebra indices, so those are solved once: K = {v : rho(v) lies in
    M (x) kG}.  Each W_g is then the kernel, on the coordinates of K's
    basis b_r, of the rows (h, j) for grouplike h with entries
    rho_h(b_r)_j - delta_hg (b_r)_j; this is weight_space's own system
    restricted to K, so no comodule axiom is assumed.  Reads neither the
    socle nor the radical.  ``compute socle`` is its one reader.
    """
    grouplikes = m.over.grouplike_indices()
    if not grouplikes:
        return {}
    grouplike_set = set(grouplikes)
    shared = {key: row for key, row in coefficient_rows(m._pairs).items()
              if key[1] not in grouplike_set}
    k_basis = kernel(shared, m.dim, m.field).basis_dicts()
    # Row (h_pos, j) holds rho_h(b_r)_j at column r: the rows common to
    # every g.  Row j of minus holds -(b_r)_j at column r.
    common: dict = {}
    minus: dict = {}
    for r, b in enumerate(k_basis):
        slices = _coaction_slices(m, b)
        for h_pos, h in enumerate(grouplikes):
            for j, c in slices.get(h, {}).items():
                common.setdefault((h_pos, j), {})[r] = c
        for j, c in b.items():
            minus.setdefault(j, {})[r] = -c
    table: dict[str, int] = {}
    for g_pos, g in enumerate(grouplikes):
        rows = dict(common)
        for j, subtrahend in minus.items():
            row = rows[(g_pos, j)] = dict(common.get((g_pos, j), {}))
            for r, v in subtrahend.items():
                row[r] = row[r] + v if r in row else v
        table[m.over.labels[g]] = kernel(rows, len(k_basis), m.field).dim
    return table


def _coaction_slices(m: Comodule, u: dict) -> "dict[int, dict]":
    """The coaction of u sliced by coalgebra index: {k: sum_j c_jk m_j}."""
    zero = m.field.zero
    slices: dict[int, dict] = {}
    for i, ui in u.items():
        for (j, k), c in m.module_coalg_pairs(i).items():
            piece = slices.setdefault(k, {})
            piece[j] = piece.get(j, zero) + ui * c
    return {k: drop_zeros(piece) for k, piece in slices.items()}


def is_stable(m: Comodule, x: Subspace) -> bool:
    """Is x a subcomodule (coaction-stable subspace) of m?

    A tensor sum_{j,k} c_jk m_j (x) e_k lies in X (x) C (resp. C (x) X)
    exactly when each slice sum_j c_jk m_j, one per coalgebra index k,
    lies in X; each slice is reduced by X's echelon basis.
    """
    if x.ambient_dim != m.dim:
        raise ValueError("subspace does not live in the comodule's coordinates")
    return all(x.contains_vector(piece)
               for u in x.basis_dicts() for piece in _coaction_slices(m, u).values())


def quotient_with_projection(m: Comodule, x: Subspace) -> "tuple[Comodule, Matrix]":
    """Quotient comodule m/x plus the coordinate projection onto it.

    Quotient coordinates are the non-pivot coordinates of x's echelon
    basis, so the projection is x's residual table followed by coordinate
    selection.
    """
    if not is_stable(m, x):
        raise ValueError("cannot quotient by a subspace that is not coaction-stable")
    pivots = set(x.pivot_columns())
    free = [t for t in range(m.dim) if t not in pivots]
    pos = {t: idx for idx, t in enumerate(free)}
    reduced = x.residuals
    proj_entries: dict = {}
    for j, red in enumerate(reduced):
        for t, v in red.items():
            proj_entries[(pos[t], j)] = v
    proj = Matrix(len(free), m.dim, proj_entries)
    zero = m.field.zero
    coaction: list = []
    for t in free:
        acc: dict = {}
        for (j, k), c in m.module_coalg_pairs(t).items():
            for r, v in reduced[j].items():
                key = (pos[r], k)
                acc[key] = acc.get(key, zero) + c * v
        terms = []
        for (j, k), c in sorted(drop_zeros(acc).items()):
            terms.append((j, k, c) if m.side == "right" else (k, j, c))
        coaction.append(tuple(terms))
    labels = tuple(f"~{m.labels[t]}" for t in free)
    quot = Comodule(side=m.side, dim=len(free), over=m.over,
                    coaction=tuple(coaction), labels=labels)
    return quot, proj


def quotient(m: Comodule, x: Subspace) -> Comodule:
    return quotient_with_projection(m, x)[0]


def coefficient_coalgebra(m: Comodule) -> Subspace:
    """Smallest subspace W of the base with coaction(M) <= M (x) W.

    For a valid comodule this span is automatically a subcoalgebra (the
    coalgebra of coefficients).
    """
    per_pair: dict[tuple[int, int], dict] = {}
    for i in range(m.dim):
        for (j, k), c in m.module_coalg_pairs(i).items():
            per_pair.setdefault((i, j), {})[k] = c
    return Subspace.span(m.field, m.over.dim, list(per_pair.values()))


def socle_annihilator_check(m: Comodule) -> bool:
    """Radical times the dual module equals the annihilator of the socle.

    Every finite-dimensional comodule embeds in finitely many copies of
    the base coalgebra via its coaction, so the finitely-cogenerated
    hypothesis behind this identity is automatic here.  Both sides are
    computed independently from the stacked radical action: the left as
    the span of its rows (the transposed action applied to all of M*), the
    right as perp of its kernel, the socle.
    """
    action = _radical_action(m)
    lhs = Subspace.span(m.field, m.dim, action.values())
    rhs = kernel(action, m.dim, m.field).perp()
    return lhs == rhs
