"""Finite-dimensional coalgebras, their convolution duals, and the wedge.

A coalgebra is stored as a sparse comultiplication tensor together with a
counit vector over an exact field.  This module supplies the axiom
checker, the convolution (dual) algebra with its Jacobson radical, the
coradical filtration, wedges of subspaces, products of ideals in the
dual, and skew-primitive spaces.

The axiom checkers (``check_axioms`` here, ``comod.check_comodule``) sum
coassociativity and the counit laws on integer images of the structure
constants: over QQ each constant times a common denominator D, over GF(p)
its residue.  Each sum is bilinear in the constants, so over QQ it is D^2
times its value.  A counit failure names the first position whose two
sides differ.

Convention fixed here and used bit-exactly everywhere else: tensor
coordinates on C (x) C are flattened as (j, k) -> j*dim + k.  A kernel
system keys its rows by the pair (j, k) itself, which sorts as its flat
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import lcm
from typing import Iterable, Iterator

from .exactlin import (
    Field,
    Scalar,
    Subspace,
    drop_zeros,
    exact_quotient,
    kernel,
    kernels_without,
)


def flatten_index(j: int, k: int, dim: int) -> int:
    """The fixed (j, k) -> j*dim + k tensor-square coordinate convention."""
    return j * dim + k


def merged_terms(table, swap: bool = False) -> "list[dict]":
    """Each (j, k, c) term list of table as one {(j, k): c} dict, keyed
    (k, j) when swap is set: repeated pairs summed, zero sums dropped."""
    merged = []
    for terms in table:
        out: dict = {}
        for j, k, c in terms:
            key = (k, j) if swap else (j, k)
            out[key] = out[key] + c if key in out else c
        merged.append(drop_zeros(out))
    return merged


def coefficient_rows(pairs: "list[dict]") -> dict:
    """{(j, k): {i: c}} for the {(j, k): c} dicts pairs[i]: the system,
    one row per tensor coordinate and one column per basis element, of an
    equation on the coefficients of Delta or of a coaction."""
    rows: dict = {}
    for i, pair in enumerate(pairs):
        for key, c in pair.items():
            rows.setdefault(key, {})[i] = c
    return rows


@dataclass(frozen=True)
class Coalgebra:
    """A coalgebra by structure constants: Delta(e_i) = sum c e_j (x) e_k."""

    field: Field
    dim: int
    labels: "tuple[str, ...]"
    delta: "tuple[tuple[tuple[int, int, Scalar], ...], ...]"
    epsilon: "tuple[Scalar, ...]"

    def __post_init__(self):
        if len(self.labels) != self.dim or len(self.delta) != self.dim \
                or len(self.epsilon) != self.dim:
            raise ValueError("label/delta/epsilon lengths must equal dim")
        if len(set(self.labels)) != self.dim:
            raise ValueError("duplicate basis labels")

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown basis label {name!r}") from None

    @cached_property
    def _delta_dicts(self) -> "list[dict]":
        return merged_terms(self.delta)

    def delta_dict(self, i: int) -> dict:
        """Delta(e_i) as a sparse {(j, k): c} dict, repeated pairs summed
        and zeros dropped.  The table of every i is built once per
        coalgebra and shared: read the dict, never mutate it."""
        return self._delta_dicts[i]

    def is_grouplike(self, i: int) -> bool:
        one = self.field.one
        return self.delta_dict(i) == {(i, i): one} and self.epsilon[i] == one

    def grouplike_indices(self) -> "tuple[int, ...]":
        """The indices of the grouplike basis elements, found once per
        coalgebra."""
        return self._grouplikes

    @cached_property
    def _grouplikes(self) -> "tuple[int, ...]":
        return tuple(i for i in range(self.dim) if self.is_grouplike(i))

    @cached_property
    def grouplike_wedges(self) -> "dict[tuple[int, int], Subspace]":
        """The wedge kg ^ kh for every ordered pair (g, h) of grouplike
        indices, g = h included, computed once per coalgebra.

        By Taft-Wilson, kg ^ kh = kg + kh + P_{g,h}, where P_{g,h} is the
        space of (g, h)-skew-primitives (Montgomery 1993, 5.4), and g is not
        in P_{g,h}; so dim P_{g,h} = dim(kg ^ kh) - 1 whether or not g = h.
        The duality oracle checks these same wedges for its span pairs.
        The local-finiteness cross-check (those dimensions, per depth) and
        the F-Noetherian sweep (per bound) read a truncation D that embeds
        in this one as a subcoalgebra spanned by basis vectors from this
        table, as kg ^_D kh = (kg ^ kh) meet D, and build no table for D.

        One wedge in all, kG ^ kG: each K_g = kg ^ kG and each kg ^ kh in
        K_g are restrict_wedge's cuts, as the oracle cuts its line pairs.
        """
        grouplikes = self.grouplike_indices()
        span_g = Subspace.coordinates(self.field, self.dim, grouplikes)
        cuts = restrict_wedge(wedge(span_g, span_g, self), span_g, self, grouplikes, 0)
        table = {}
        for g in grouplikes:
            line = Subspace.coordinates(self.field, self.dim, [g])
            for h, space in restrict_wedge(cuts[g], line, self, grouplikes, 1).items():
                table[(g, h)] = space
        return table

    def span_of_labels(self, names: "list[str]") -> Subspace:
        vecs = [{self.label_index(n): self.field.one} for n in names]
        return Subspace.span(self.field, self.dim, vecs)

    def format_vector(self, vec: dict) -> str:
        """Render a coordinate vector as a signed combination of labels."""
        if not vec:
            return "0"
        parts = []
        for j in sorted(vec):
            c = self.field.format(vec[j])
            if c == "1":
                parts.append(self.labels[j])
            elif c == "-1":
                parts.append(f"-{self.labels[j]}")
            else:
                parts.append(f"{c}*{self.labels[j]}")
        return " + ".join(parts).replace(" + -", " - ")


# -- axiom checking ----------------------------------------------------------

@dataclass(frozen=True)
class AxiomFailure:
    law: str
    element: str
    position: "tuple[str, ...]"
    lhs: str
    rhs: str

    def __str__(self) -> str:
        where = " (x) ".join(self.position)
        return (f"{self.law} fails on {self.element} at {where}: "
                f"{self.lhs} != {self.rhs}")


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failures: "tuple[AxiomFailure, ...]"

    @classmethod
    def of(cls, failures: "Iterable[AxiomFailure]") -> "AxiomReport":
        """The report of the first MAX_FAILURES failures; no more are drawn."""
        capped = tuple(islice(failures, MAX_FAILURES))
        return cls(not capped, capped)

    def first(self) -> "AxiomFailure | None":
        return self.failures[0] if self.failures else None


@dataclass(frozen=True)
class _IntegerImages:
    """Structure constants lifted to Python ints, for exact sums of products.

    Over QQ each constant x becomes x * D, where D is the lcm of the
    denominators of every constant lifted together; over GF(p) it becomes
    its residue.  A sum of products of two constants then lifts to D^2
    times its value over QQ, and to an integer congruent to it mod p over
    GF(p).  Constants that meet in one sum must be lifted with one D.
    """

    field: Field
    scale: int

    @classmethod
    def of(cls, field: Field, tables, epsilon) -> "_IntegerImages":
        if field.char:
            return cls(field, 1)
        return cls(field, lcm(*{x.denominator for table in tables
                                for terms in table for _, _, x in terms},
                              *{x.denominator for x in epsilon}))

    def lift(self, x: Scalar) -> int:
        if self.field.char:
            return x.val
        return x.numerator * (self.scale // x.denominator)

    def lift_table(self, table) -> list:
        """A table of (j, k, c) term lists with each c lifted."""
        return [[(j, k, self.lift(x)) for j, k, x in terms] for terms in table]

    def nonzero(self, sums: dict) -> list:
        """The keys of the lifted sums whose value in the field is not zero."""
        p = self.field.char
        if p:
            return [key for key, v in sums.items() if v % p]
        return [key for key, v in sums.items() if v]

    def scalar(self, x: int) -> Scalar:
        """The field value of a lifted sum of products of two constants."""
        if self.field.char:
            return self.field.from_int(x)
        return exact_quotient(x, self.scale * self.scale)


def _coassociator(rho: list, delta: list, n: int, i: int, left: int, right: int) -> dict:
    """left * (rho (x) id)rho(m_i) + right * (id (x) Delta)rho(m_i).

    rho holds the coaction on integer images as (j, k, j*n + k, image)
    terms and delta holds Delta as (r*n + s, image) terms; the result is
    keyed by the flattened (j, r, s) -> (j*n + r)*n + s.
    """
    out: dict = {}
    get = out.get
    nn = n * n
    for j, k, _, a in rho[i]:
        if left:
            w = left * a
            for _, _, ls, b in rho[j]:
                key = ls * n + k
                out[key] = get(key, 0) + w * b
        if right:
            w = right * a
            base = j * nn
            for rs, b in delta[k]:
                key = base + rs
                out[key] = get(key, 0) + w * b
    return out


def coassociativity_failures(images: _IntegerImages, coaction, delta,
                             n: int) -> "Iterator[tuple[int, list]]":
    """Where (rho (x) id)rho and (id (x) Delta)rho differ, element by element.

    coaction[i] holds rho(m_i) of a right comodule over a coalgebra of
    dimension n as (module j, coalg k, c) terms, and delta[k] holds
    Delta(e_k) as (r, s, c) terms, each c lifted by images; coaction =
    delta tests the coalgebra itself.  Yields i and its failing positions
    (j, r, s) in increasing order, each with the two sides as field
    scalars.  Only a failing element has its two sides rebuilt from the
    integer sums.
    """
    rho = [[(j, k, flatten_index(j, k, n), a) for j, k, a in terms]
           for terms in coaction]
    lifted = [[(flatten_index(r, s, n), b) for r, s, b in terms] for terms in delta]
    nn = n * n
    for i in range(len(rho)):
        bad = images.nonzero(_coassociator(rho, lifted, n, i, 1, -1))
        if bad:
            lhs = _coassociator(rho, lifted, n, i, 1, 0)
            rhs = _coassociator(rho, lifted, n, i, 0, 1)
            yield i, [((key // nn, key // n % n, key % n),
                       images.scalar(lhs.get(key, 0)), images.scalar(rhs.get(key, 0)))
                      for key in sorted(bad)]


def counit_failures(images: _IntegerImages, coactions,
                    epsilon) -> "Iterator[tuple[int, int, int, Scalar, Scalar]]":
    """Where (id (x) epsilon)rho(m_i) and m_i differ, for right coactions
    given as lifted (module j, coalg k, c) term tables over one module.

    Yields (i, t, j, lhs, rhs) for each element i, and for each table t in
    turn, that fails: j is the first position where the two sides differ,
    and lhs, rhs are the sides there as field scalars.  Delta as the table
    tests the coalgebra's right counit law, Delta with its slots swapped the
    left one.  On integer images m_i's own coefficient is D^2.
    """
    eps = [images.lift(x) for x in epsilon]
    unit = images.scale * images.scale
    for i in range(len(coactions[0])):
        for t, coaction in enumerate(coactions):
            sums = {i: -unit}
            for j, k, x in coaction[i]:
                sums[j] = sums.get(j, 0) + x * eps[k]
            bad = images.nonzero(sums)
            if bad:
                j = min(bad)
                expected = unit if j == i else 0
                yield i, t, j, images.scalar(sums[j] + expected), images.scalar(expected)


# The axiom checkers (this one and comod.check_comodule) report at most
# this many failures.
MAX_FAILURES = 16


def check_axioms(c: Coalgebra) -> AxiomReport:
    """Exact coassociativity and counit test; failures are reported, not raised."""
    return AxiomReport.of(_axiom_failures(c))


def _axiom_failures(c: Coalgebra) -> "Iterator[AxiomFailure]":
    images = _IntegerImages.of(c.field, (c.delta,), c.epsilon)
    delta = images.lift_table(c.delta)
    fmt = c.field.format
    for i, bad in coassociativity_failures(images, delta, delta, c.dim):
        for key, lhs, rhs in bad:
            yield AxiomFailure("coassociativity", c.labels[i],
                               tuple(c.labels[t] for t in key), fmt(lhs), fmt(rhs))
    swapped = [[(k, j, x) for j, k, x in terms] for terms in delta]
    laws = ("counit-left", "counit-right")
    for i, t, j, lhs, rhs in counit_failures(images, (swapped, delta), c.epsilon):
        yield AxiomFailure(laws[t], c.labels[i], (c.labels[j],), fmt(lhs), fmt(rhs))


# -- the convolution algebra -------------------------------------------------

class RadicalRangeError(ValueError):
    """Raised when the trace-form radical criterion is not valid."""


@dataclass(frozen=True)
class DualAlgebra:
    """Convolution algebra on the dual basis; unit is the counit vector.

    mult maps i to {j: structure constants of e_i^* e_j^*}, grouped by
    the left factor: the (i, j) coefficient of Delta(e_k) becomes the e_k^*
    coefficient of the product (transpose placement of the
    comultiplication tensor).
    """

    field: Field
    dim: int
    labels: "tuple[str, ...]"
    mult: "dict[int, dict[int, tuple[tuple[int, Scalar], ...]]]"
    unit: "tuple[Scalar, ...]"


def dual_algebra(c: Coalgebra) -> DualAlgebra:
    mult: dict = {}
    for k in range(c.dim):
        for (i, j), coeff in c.delta_dict(k).items():
            mult.setdefault(i, {}).setdefault(j, []).append((k, coeff))
    frozen = {i: {j: tuple(sorted(terms)) for j, terms in row.items()}
              for i, row in mult.items()}
    return DualAlgebra(field=c.field, dim=c.dim, labels=c.labels,
                       mult=frozen, unit=c.epsilon)


def radical(a: DualAlgebra) -> Subspace:
    """Jacobson radical: the kernel of the trace form (x, y) -> tr(L_x L_y)
    of the left regular representation L.

    Valid in characteristic 0 or p > dim; anything else is rejected rather
    than silently wrong.

    The Gram matrix comes from one trace vector tau_k = tr(L_{e_k^*}), read
    off the structure constants in one pass, with no L_x built.  C* is
    associative because C is coassociative, so L is an algebra map and
    tr(L_x L_y) = tr(L_{xy}).  With c^k_ij the (i, j) coefficient of
    Delta(e_k), tr(L_{e_i^* e_j^*}) = sum_k c^k_ij tau_k: the Gram matrix
    is the coefficient matrix of Delta(t) for t = sum_k tau_k e_k, entry
    for entry the matrix of traces tr(L_i L_j), and its canonical kernel is
    the same.  On input that is not coassociative (``compute`` without
    ``--check``) the two matrices may differ; the kernel returned is that
    of Delta(t)'s coefficient matrix.
    """
    if a.field.char != 0 and a.field.char <= a.dim:
        raise RadicalRangeError(
            f"radical algorithm out of validity range: characteristic "
            f"{a.field.char} <= dimension {a.dim}")
    zero = a.field.zero
    trace = [zero] * a.dim
    for k, row in a.mult.items():
        for j, terms in row.items():
            for t, c in terms:
                if t == j:
                    trace[k] = trace[k] + c
    gram: dict = {}
    for i, row in a.mult.items():
        sums = gram[i] = {}
        for j, terms in row.items():
            acc = zero
            for k, c in terms:
                if trace[k]:
                    acc = acc + c * trace[k]
            if acc:
                sums[j] = acc
    return kernel(gram, a.dim, a.field)


@lru_cache(maxsize=None)
def dual_and_radical(c: Coalgebra) -> "tuple[DualAlgebra, Subspace]":
    """The convolution dual of c and its radical, computed once per coalgebra."""
    a = dual_algebra(c)
    return a, radical(a)


def ideal_product(i: Subspace, j: Subspace, a: DualAlgebra) -> Subspace:
    """Span of all pairwise convolution products of basis elements."""
    if i.ambient_dim != a.dim or j.ambient_dim != a.dim:
        raise ValueError("ideal_product: ambient mismatch with the dual algebra")
    return Subspace.span(a.field, a.dim,
                         [product for _, _, product in _basis_products(i, j, a)])


def _basis_products(i: Subspace, j: Subspace,
                    a: DualAlgebra) -> "Iterator[tuple[int, int, dict]]":
    """(r, b, u_r * v_b) for the basis rows u_r of I and v_b of J whose
    product is not zero, in order of r, then b.

    J's basis is read by column, as J.columns.  For each u in I's basis
    the products u * v_b, for every b, are accumulated together: the walk
    over a.mult[s] for s in u visits, for each right factor t, only the
    rows of J with t in their support.  So only structure constants that
    can contribute are read.
    """
    columns = j.columns
    for r, u in enumerate(i.basis):
        by_row: dict[int, dict] = {}
        for s, us in u:
            for t, terms in a.mult.get(s, {}).items():
                for b, vt in columns.get(t, {}).items():
                    w = us * vt
                    out = by_row.setdefault(b, {})
                    for k, c in terms:
                        prev = out.get(k)
                        out[k] = w * c if prev is None else prev + w * c
        for b in sorted(by_row):
            product = drop_zeros(by_row[b])
            if product:
                yield r, b, product


def restrict_product_perp(shared: Subspace, fixed: Subspace, a: DualAlgebra,
                          grouplikes: "Iterable[int]", slot: int
                          ) -> "dict[int, Subspace]":
    """(F * I_g)^perp for every grouplike g, cut from shared =
    (F * (kG)^perp)^perp when slot is 1, or (I_g * F)^perp, cut from
    shared = ((kG)^perp * F)^perp when slot is 0.  F is the ideal fixed,
    I_g = (kg)^perp, kG the coordinate span of the grouplikes and slot the
    factor I_g fills.

    I_g is (kG)^perp plus the span of the e_t^* for grouplike t != g, and
    the product is bilinear, so (F * I_g)^perp is the part of shared that
    annihilates every u * e_t^*, u in F's basis and t != g.  Those
    products, from _basis_products, pair with shared's basis as the rows
    of one system, keyed by the product (u, t) or (t, u) with column r for
    shared's basis row r.  It is built once, and each g solves kernel_on
    of the rows whose t is not g (exactlin.kernels_without).
    """
    grouplikes = sorted(grouplikes)
    units = Subspace.coordinates(a.field, a.dim, grouplikes)
    columns = shared.columns
    if slot:
        products = (((u, grouplikes[b]), p)
                    for u, b, p in _basis_products(fixed, units, a))
    else:
        products = (((grouplikes[b], u), p)
                    for b, u, p in _basis_products(units, fixed, a))
    rows: dict = {}
    for key, product in products:
        row: dict = {}
        for k, c in product.items():
            for r, v in columns.get(k, {}).items():
                row[r] = row[r] + c * v if r in row else c * v
        if row:
            rows[key] = row
    return kernels_without(shared, rows, grouplikes, lambda key: key[slot])


# -- filtrations ---------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationChain:
    """Ascending chain of subspaces; constant after two equal terms."""

    terms: "tuple[Subspace, ...]"
    stabilized_at: "int | None"

    def dims(self) -> "tuple[int, ...]":
        return tuple(t.dim for t in self.terms)


def coradical_filtration(c: Coalgebra) -> FiltrationChain:
    """Terms C_n = perp(J^{n+1}) for J the radical of the convolution dual."""
    a, j = dual_and_radical(c)
    power = j
    terms: list[Subspace] = []
    for _ in range(c.dim + 1):
        term = power.perp()
        if terms and term == terms[-1]:
            return FiltrationChain(tuple(terms), len(terms) - 1)
        terms.append(term)
        if term.dim == c.dim:
            return FiltrationChain(tuple(terms), len(terms) - 1)
        power = ideal_product(power, j, a)
    return FiltrationChain(tuple(terms), None)


# -- wedge and skew primitives ------------------------------------------------

def wedge(x: Subspace, y: Subspace, c: Coalgebra) -> Subspace:
    """The wedge X ^ Y = ker(C -> C/X (x) C/Y), the map being (pi_X (x) pi_Y) Delta.

    pi_X sends e_j to its residual after reduction by X's echelon basis
    (X's residual table), a linear projection with kernel X;
    ker(pi_X (x) pi_Y) = X (x) C + C (x) Y, so this is the pullback of
    X (x) C + C (x) Y through Delta.
    """
    if x.ambient_dim != c.dim or y.ambient_dim != c.dim:
        raise ValueError("wedge: subspaces must live in the coalgebra's coordinates")
    red_x, red_y = x.residuals, y.residuals
    rows: dict = {}
    for i in range(c.dim):
        for (j, k), coeff in c.delta_dict(i).items():
            rx, ry = red_x[j], red_y[k]
            if not rx or not ry:
                continue
            for a, va in rx.items():
                w = coeff * va
                for b, vb in ry.items():
                    row = rows.setdefault((a, b), {})
                    row[i] = row[i] + w * vb if i in row else w * vb
    return kernel(rows, c.dim, c.field)


def restrict_wedge(shared: Subspace, fixed: Subspace, c: Coalgebra,
                   grouplikes: "Iterable[int]", slot: int) -> "dict[int, Subspace]":
    """X ^ kg for every grouplike g, cut from shared = X ^ kG when slot is
    1, or kg ^ X, cut from shared = kG ^ X when slot is 0.  X is fixed, kG
    the coordinate span of the grouplikes and slot the tensor slot kg fills.

    For slot 1 (slot 0 mirrors it): the wedge is monotone, so X ^ kg lies
    in X ^ kG.  pi_g keeps every e_t with t != g, and on shared the entries
    (a, t) of (pi_X (x) id)Delta with t outside G vanish already; so X ^ kg
    is the kernel, on shared, of the entries with t in G, t != g.  Those
    entries form one system, keyed by the entry (t, r) or (r, t) with
    column b for shared's basis row b.  It is built once, and each g
    solves kernel_on of the rows whose t is not g
    (exactlin.kernels_without).  Off X's pivots pi_X
    keeps e_j as it is, so only a pivot's residual is multiplied in.
    """
    grouplikes = tuple(grouplikes)
    grouplike_set = set(grouplikes)
    pivots = set(fixed.pivot_columns())
    rows: dict = {}
    for b, basis_row in enumerate(shared.basis):
        for i, bi in basis_row:
            for (j, k), coeff in c.delta_dict(i).items():
                t, o = (j, k) if slot == 0 else (k, j)
                if t not in grouplike_set:
                    continue
                w = bi * coeff
                if o in pivots:
                    parts = [(r, w * v) for r, v in fixed.residuals[o].items()]
                else:
                    parts = ((o, w),)
                for r, x in parts:
                    row = rows.setdefault((t, r) if slot == 0 else (r, t), {})
                    row[b] = row[b] + x if b in row else x
    return kernels_without(shared, rows, grouplikes, lambda key: key[slot])


def skew_primitives(g: int, h: int, c: Coalgebra) -> Subspace:
    """{v : Delta v = e_g (x) v + v (x) e_h} for grouplike e_g, e_h."""
    for idx in (g, h):
        if not c.is_grouplike(idx):
            raise ValueError(f"basis element {c.labels[idx]!r} is not grouplike")
    one = c.field.one
    rows = coefficient_rows(c._delta_dicts)
    for t in range(c.dim):
        for key in ((g, t), (t, h)):
            row = rows.setdefault(key, {})
            row[t] = row[t] - one if t in row else -one
    return kernel(rows, c.dim, c.field)
