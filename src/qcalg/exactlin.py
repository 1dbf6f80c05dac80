"""Exact fields and a canonical-echelon subspace calculus.

Scalars are arbitrary-precision rationals or residues modulo a prime.
An integral rational is a Python ``int`` and any other is a
``fractions.Fraction``; the two mix exactly under ``+ - *``, compare and
hash equal, and print alike.  No floating point anywhere: every operation
is an exact field operation, and since ``int / int`` is a float, the one
division of rationals goes through :func:`exact_quotient`.  Subspaces are
stored in reduced row-echelon form with sparse rows, so two equal
subspaces have identical stored bases and equality is a plain comparison.

Sparse rows, vectors and matrices store no zeros.  Code that builds one by
summing terms sums into a plain dict and drops the zeros once, at the end,
with :func:`drop_zeros`; ``_rref`` and ``Subspace.span`` drop zeros from
their input themselves.  ``row_add`` is the one eager primitive.

``_rref`` is the one elimination, and each of ``Subspace.span``,
``Subspace.intersect``, ``kernel``, ``kernel_on``, ``perp`` and
``preimage`` runs it exactly once (``kernel_on`` not at all when every
image is empty): only ``span`` takes vectors in no particular form, and
the others build their canonical bases directly.
``kernel`` takes its system as keyed rows, {key: {col: scalar}}, each
keyed by what it means to its caller (a tensor coordinate (j, k), a
radical row and module coordinate (r, j), an equation (i, l, k)), and
eliminates them in reverse key order.  It puts each pivot at its row's
last column, so its null-space generators come out in RREF as they are
built; with the pivot at the last column, reverse order makes less
fill-in on the basis-changed inputs.  ``Matrix`` is the value type of
linear maps, not of systems: no solver builds one.

No route of the package calls ``preimage`` or ``Subspace.intersect``.
Both are kept because the benchmark tracer times them, and ``preimage``
is the tests' reference for the wedge and the socle series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Union


class FieldMismatchError(ValueError):
    """Operands belong to different ground fields."""


# Miller-Rabin with the twelve bases 2..37 decides primality exactly below
# this bound, the least composite that passes every one of them:
# 318665857834031151167461 = 399165290221 * 798330580441.
MAX_PRIME_MODULUS = 318665857834031151167461


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, exact for n < MAX_PRIME_MODULUS only.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GFElement:
    """Residue modulo a prime; arithmetic stays in the field."""

    val: int
    p: int

    def _check(self, other: "GFElement") -> None:
        if self.p != other.p:
            raise FieldMismatchError(f"GF({self.p}) vs GF({other.p})")

    def __add__(self, other: "GFElement") -> "GFElement":
        self._check(other)
        return GFElement((self.val + other.val) % self.p, self.p)

    def __sub__(self, other: "GFElement") -> "GFElement":
        self._check(other)
        return GFElement((self.val - other.val) % self.p, self.p)

    def __mul__(self, other: "GFElement") -> "GFElement":
        self._check(other)
        return GFElement(self.val * other.val % self.p, self.p)

    def __truediv__(self, other: "GFElement") -> "GFElement":
        self._check(other)
        if other.val == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.val * pow(other.val, self.p - 2, self.p) % self.p, self.p)

    def __neg__(self) -> "GFElement":
        return GFElement(-self.val % self.p, self.p)

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        return f"{self.val}"


Scalar = Union[int, Fraction, GFElement]

# The largest decimal exponent a rational scalar may be written with.
MAX_EXPONENT = 4300


class Rationals:
    """The field of rationals; an integral scalar is an ``int`` and any
    other is a ``fractions.Fraction``."""

    char = 0

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n

    def parse(self, text: str) -> "int | Fraction":
        # Most coefficients are integers, and int() reads them without the
        # Fraction string regex; any string int() refuses takes that route.
        # Strings with "_" always do: Python 3.10's Fraction refuses them.
        if "_" not in text:
            try:
                return int(text)
            except ValueError:
                pass
        text = text.strip()
        # Fraction writes 10**exp out in full: "1e999999999" would take
        # hours.  No exponent may carry a scalar past the 4300 digits that
        # int() reads.
        _, e, exp = text.replace("E", "e").rpartition("e")
        if e:
            try:
                too_big = abs(int(exp)) > MAX_EXPONENT
            except ValueError:
                too_big = False
            if too_big:
                raise ValueError(f"exponent of {text!r} beyond {MAX_EXPONENT}")
        x = Fraction(text)
        return x.numerator if x.denominator == 1 else x

    def format(self, x: "int | Fraction") -> str:
        return str(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; scalars are :class:`GFElement`."""

    def __init__(self, p: int):
        if p >= MAX_PRIME_MODULUS:
            raise ValueError(f"modulus {p} is past the range where primality is "
                             f"decided exactly (p < {MAX_PRIME_MODULUS})")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    @property
    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    @property
    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def from_int(self, n: int) -> GFElement:
        return GFElement(n % self.p, self.p)

    def parse(self, text: str) -> GFElement:
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.from_int(int(num)) / self.from_int(int(den))
        return self.from_int(int(text))

    def format(self, x: GFElement) -> str:
        return str(x.val)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


Field = Union[Rationals, PrimeField]

QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_named(name: str) -> Field:
    """Resolve 'rational' / 'gf(p)' / 'gf:p' to a field object."""
    name = name.strip().lower()
    if name in ("rational", "rationals", "q", "qq"):
        return QQ
    for prefix, suffix in (("gf(", ")"), ("gf:", "")):
        if name.startswith(prefix) and name.endswith(suffix):
            body = name[len(prefix):len(name) - len(suffix) if suffix else len(name)]
            try:
                p = int(body)
            except ValueError:
                break
            return GF(p)
    raise ValueError(f"unknown field {name!r}")


# -- sparse rows ------------------------------------------------------------
#
# A "row" is a dict {col: scalar} with no zero values stored.


def drop_zeros(sums: dict) -> dict:
    """The accumulated sums without their zero values."""
    return {k: v for k, v in sums.items() if v}


def row_add(a: dict, b: dict, coeff: Scalar) -> dict:
    """a + coeff*b, dropping zeros."""
    out = dict(a)
    for j, v in b.items():
        w = out.get(j)
        nv = coeff * v if w is None else w + coeff * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


def _is_one(x: Scalar) -> bool:
    return x.val == 1 if type(x) is GFElement else x == 1


def exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b in the field of a and b.

    Two ints divide by divmod, to an int when b divides a and to a
    Fraction otherwise, never to a float; Fraction and GF(p) operands
    divide as they are.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _rref(rows: Iterable[dict], lead_of: Callable[[dict], int] = min) -> list[dict]:
    """Reduced row echelon form of sparse rows; canonical and unique.

    Each row's pivot is its first column, or its last with lead_of=max;
    either way the pivot is 1 and every other pivot row is zero there.

    A new pivot row is eliminated only from the pivot rows listed under
    its lead column in ``holders``, which maps each column to the pivot
    columns whose row may hold it.  Every row a step touches, the new row
    included, is listed under every column of the new row, and a row only
    gains columns of the rows added into it, so the lists stay a superset
    of the true holders and are never shrunk: an entry whose row has since
    lost the column is skipped.
    """
    pivots: dict[int, dict] = {}  # pivot column -> normalized row
    holders: dict[int, set] = {}  # column -> pivot columns whose row may hold it
    for row in rows:
        row = drop_zeros(row)
        # Pivot rows carry no other pivot columns, so one sweep suffices.
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
        touched = [lead]
        for col in holders.pop(lead, ()):
            piv = pivots[col]
            if lead in piv:
                pivots[col] = row_add(piv, row, -piv[lead])
                touched.append(col)
        pivots[lead] = row
        for j in row:
            holders.setdefault(j, set()).update(touched)
    return [pivots[c] for c in sorted(pivots)]


def _freeze_row(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def _thaw_row(row: tuple) -> dict:
    return dict(row)


@dataclass(frozen=True)
class Matrix:
    """Sparse exact matrix; absent entries are zero, stored entries are not.

    The constructor takes entries that are already zero-free: drop the
    zeros of entries summed term by term with :func:`drop_zeros` first.
    """

    rows: int
    cols: int
    entries: "dict[tuple[int, int], Scalar]"

    def apply(self, vec: dict) -> dict:
        """Matrix times column vector (vector as sparse dict)."""
        out: dict = {}
        for (i, j), v in self.entries.items():
            c = vec.get(j)
            if c is not None:
                out[i] = out[i] + v * c if i in out else v * c
        return drop_zeros(out)


@dataclass(frozen=True)
class Subspace:
    """Subspace of a coordinate space, stored as a canonical RREF basis.

    ``basis`` rows are sparse (sorted (col, scalar) tuples); uniqueness of
    the reduced echelon form makes subspace equality a tuple comparison.
    Equality and the hash read ``basis`` only.
    """

    field: Field
    ambient_dim: int
    basis: "tuple[tuple[tuple[int, Scalar], ...], ...]"

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: "Iterable[dict]") -> "Subspace":
        vectors = list(vectors)
        for vec in vectors:
            for j in vec:
                if j < 0 or j >= ambient_dim:
                    raise ValueError(f"coordinate {j} outside ambient dimension {ambient_dim}")
        rows = _rref(vectors)
        return cls(field, ambient_dim, tuple(_freeze_row(r) for r in rows))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls.coordinates(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinates(cls, field: Field, ambient_dim: int,
                    cols: "Iterable[int]") -> "Subspace":
        """The span of the unit vectors e_j for j in cols, already canonical."""
        one = field.one
        return cls(field, ambient_dim, tuple(((j, one),) for j in sorted(set(cols))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_dicts(self) -> list[dict]:
        """Fresh row dicts, owned by the caller."""
        return [_thaw_row(r) for r in self.basis]

    @cached_property
    def _pivot_rows(self) -> "list[tuple[int, dict]]":
        """(pivot column, row dict) per basis row, built once and never
        mutated; a sorted frozen row leads with its pivot."""
        return [(r[0][0], _thaw_row(r)) for r in self.basis]

    @cached_property
    def residuals(self) -> "list[dict]":
        """reduce_vector({j: 1}) for every coordinate j, built once and
        never mutated: the projection of e_j onto the non-pivot coordinates.

        e_j off the pivots; at a pivot p, e_p minus p's basis row, which is
        zero at every other pivot.
        """
        one = self.field.one
        table = [{j: one} for j in range(self.ambient_dim)]
        for lead, row in self._pivot_rows:
            table[lead] = {t: -v for t, v in row.items() if t != lead}
        return table

    def _require_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}")

    def __add__(self, other: "Subspace") -> "Subspace":
        self._require_compatible(other)
        return Subspace.span(self.field, self.ambient_dim,
                             self.basis_dicts() + other.basis_dicts())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [a|a; b|0], read the 0|* block.

        The RREF rows that lead at or past n span the meet once shifted
        by n.  They are already canonical: each leads with a 1 at its own
        pivot, and every other RREF row, these included, is zero there.
        """
        self._require_compatible(other)
        n = self.ambient_dim
        stacked: list[dict] = []
        for row in self.basis_dicts():
            double = dict(row)
            double.update({j + n: v for j, v in row.items()})
            stacked.append(double)
        stacked.extend(other.basis_dicts())
        meet = tuple(_freeze_row({j - n: v for j, v in row.items()})
                     for row in _rref(stacked) if min(row) >= n)
        return Subspace(self.field, n, meet)

    def __and__(self, other: "Subspace") -> "Subspace":
        return self.intersect(other)

    def reduce_vector(self, vec: dict) -> dict:
        """Residual of vec after elimination by the stored basis."""
        vec = drop_zeros(vec)
        for lead, row in self._pivot_rows:
            c = vec.get(lead)
            if c:
                vec = row_add(vec, row, -c)
        return vec

    def contains_vector(self, vec: dict) -> bool:
        return not self.reduce_vector(vec)

    def perp(self) -> "Subspace":
        """Annihilator in the dual coordinate space (same coordinates)."""
        return kernel(dict(enumerate(self.basis_dicts())), self.ambient_dim, self.field)

    def pivot_columns(self) -> list[int]:
        return [lead for lead, _ in self._pivot_rows]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field})"


def kernel(rows: dict, cols: int, field: Field) -> Subspace:
    """Null space {v in field^cols : sum_j row[j] v_j = 0 for every row}
    as a canonical subspace, for rows mapping sortable keys to sparse rows
    {col: scalar}; a row may hold zeros.

    Only the rows with a nonzero entry reach the elimination, in
    descending key order: a wedge or skew-primitive system is keyed by the
    dim^2 tensor coordinates, nearly all of them empty.  Each pivot sits
    at its row's last column, so R[p][f] is nonzero only for f < p.  The
    generator e_f - sum_p R[p][f] e_p of a free column f therefore leads
    at f with a 1, and no other generator has an entry at f, a free
    column: the generators are the canonical basis as they stand.
    """
    echelon = _rref([rows[key] for key in sorted(rows, reverse=True)
                     if any(rows[key].values())], lead_of=max)
    pivots = {max(r): r for r in echelon}
    one = field.one
    gens = {f: {f: one} for f in range(cols) if f not in pivots}
    for p, r in pivots.items():
        for f, c in r.items():
            if f != p:
                gens[f][p] = -c
    return Subspace(field, cols, tuple(_freeze_row(g) for g in gens.values()))


def kernel_on(space: Subspace, images: "list[dict]") -> Subspace:
    """{sum_r x_r b_r : sum_r x_r images[r] = 0} for space's basis rows b_r,
    as a canonical subspace of space's ambient space.

    images[r] is the image of b_r under a linear map, a zero-free dict whose
    keys are any hashable codomain coordinates.  The system has one column
    per basis row of space, so a map known on a small subspace is solved
    in that subspace's coordinates.

    The lifts are canonical as they stand.  Each kernel vector x leads at
    some r with x_r = 1 and every other x is zero at r.  Since space's
    basis is in RREF, sum_r x_r b_r leads at b_r's pivot with a 1, where
    every other lift is zero.  With every image empty the kernel vectors
    are the unit vectors, so the lifts are space's basis and no system is
    solved.
    """
    if not any(images):
        return space
    rows: dict = {}
    for r, image in enumerate(images):
        for key, v in image.items():
            rows.setdefault(key, {})[r] = v
    lifts: list[tuple] = []
    for x in kernel(dict(enumerate(rows.values())), space.dim, space.field).basis:
        vec: dict = {}
        for r, xr in x:
            for j, v in space.basis[r]:
                vec[j] = vec[j] + xr * v if j in vec else xr * v
        lifts.append(_freeze_row(drop_zeros(vec)))
    return Subspace(space.field, space.ambient_dim, tuple(lifts))


def preimage(f: Matrix, w: Subspace, field: Field) -> Subspace:
    """{v : f(v) in w}; contains kernel(f).

    Linear because reduction by a fixed echelon basis is linear: v maps to
    the residual of f(v), and the preimage is that composite's kernel.

    No route of the package calls it.  It stays because the benchmark
    tracer wraps it, and it is the tests' reference wedge (the pullback of
    X (x) C + C (x) Y through Delta) and reference socle series.
    """
    if w.ambient_dim != f.rows:
        raise ValueError(f"codomain mismatch: matrix has {f.rows} rows, subspace ambient {w.ambient_dim}")
    rows: dict = {}
    for t in range(f.cols):
        for i, v in w.reduce_vector(f.apply({t: field.one})).items():
            rows.setdefault(i, {})[t] = v
    return kernel(rows, f.cols, field)

