"""Randomized identities of the subspace calculus.

The seeded loop runs the documented 500-pair battery over the rationals
and GF(7); the hypothesis properties re-explore the same laws with
shrinking.  The sparse-matrix properties check that every operation that
builds its basis without ``Subspace.span`` still returns the canonical one,
and that ``_rref`` returns the rows of the reference elimination, which
scans every pivot row.  The last property checks that rational parsing
reads what ``Fraction`` reads, as an ``int`` exactly when the value is
integral, and refuses at once an exponent too large to write out.
"""

from __future__ import annotations

import random
import re

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import contains, row_dicts, rref_full_scan

from qcalg.exactlin import (
    GF,
    MAX_EXPONENT,
    QQ,
    Matrix,
    Subspace,
    _freeze_row,
    _rref,
    kernel,
    kernel_on,
    preimage,
)

FIELDS = (QQ, GF(7))


def random_subspace(rng, field, dim):
    vectors = []
    for _ in range(rng.randint(0, dim)):
        vectors.append({j: field.from_int(rng.randint(-4, 4)) for j in range(dim)})
    return Subspace.span(field, dim, vectors)


def test_500_random_pairs_hold_exactly():
    rng = random.Random(20260810)
    checked = 0
    for field in FIELDS:
        for _ in range(250):
            dim = rng.randint(1, 12)
            a = random_subspace(rng, field, dim)
            b = random_subspace(rng, field, dim)
            assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim
            assert a.perp().perp() == a
            assert a.perp().dim == dim - a.dim
            assert contains(a, b) == contains(b.perp(), a.perp())
            checked += 1
    assert checked == 500


@st.composite
def subspace_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    field = draw(st.sampled_from(FIELDS))

    def one():
        rows = draw(st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=dim, max_size=dim),
            min_size=0, max_size=dim + 1))
        return Subspace.span(field, dim,
                             [{j: field.from_int(v) for j, v in enumerate(row)}
                              for row in rows])

    return field, dim, one(), one()


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_dimension_formula(data):
    _, _, a, b = data
    assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_perp_reverses_inclusions(data):
    _, _, a, b = data
    assert a.perp().perp() == a
    if contains(a, b):
        assert contains(b.perp(), a.perp())


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_sum_contains_both_and_meet_is_contained(data):
    _, _, a, b = data
    s = a + b
    assert contains(s, a) and contains(s, b)
    meet = a.intersect(b)
    assert contains(a, meet) and contains(b, meet)


@settings(max_examples=80, deadline=None)
@given(subspace_pairs())
def test_canonical_equality_is_decidable_by_bases(data):
    _, _, a, b = data
    same = a.basis == b.basis
    assert same == (contains(a, b) and contains(b, a))


# Pivots in every scale, and mostly zeros: whole zero rows, the zero
# matrix and matrices with no columns all come up.
SCALES = ("0", "0", "0", "1", "-1", "2", "1/3")


def sparse_matrix(draw, field, rows, cols) -> Matrix:
    entries = {}
    for i in range(rows):
        for j in range(cols):
            x = field.parse(draw(st.sampled_from(SCALES)))
            if x:
                entries[(i, j)] = x
    return Matrix(rows, cols, entries)


def sparse_span(draw, field, ambient) -> Subspace:
    rows = draw(st.integers(min_value=0, max_value=ambient + 1))
    return row_space(field, sparse_matrix(draw, field, rows, ambient))


def row_space(field, m: Matrix) -> Subspace:
    return Subspace.span(field, m.cols, row_dicts(m))


@st.composite
def sparse_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=7))
    return field, sparse_matrix(draw, field, rows, cols)


@st.composite
def matrix_and_domain_subspace(draw):
    field, m = draw(sparse_matrices())
    return field, m, sparse_span(draw, field, m.cols)


@st.composite
def matrix_and_codomain_subspace(draw):
    field, m = draw(sparse_matrices())
    return field, m, sparse_span(draw, field, m.rows)


def assert_canonical(space: Subspace) -> None:
    respanned = Subspace.span(space.field, space.ambient_dim, space.basis_dicts())
    assert space.basis == respanned.basis


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example((QQ, Matrix(3, 4, {})))
@example((GF(7), Matrix(2, 0, {})))
def test_kernel_basis_is_canonical_and_killed(data):
    field, m = data
    k = kernel(dict(enumerate(row_dicts(m))), m.cols, field)
    assert_canonical(k)
    assert k.ambient_dim == m.cols
    for v in k.basis_dicts():
        assert m.apply(v) == {}
    assert k.dim == m.cols - row_space(field, m).dim


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_perp_basis_is_canonical(data):
    field, m = data
    rows = row_space(field, m)
    assert_canonical(rows.perp())
    assert rows.perp() == kernel(dict(enumerate(row_dicts(m))), m.cols, field)


@st.composite
def keyed_rows(draw):
    """A sparse matrix with its rows under distinct sortable keys, inserted
    in a shuffled order; some rows also hold explicit zero entries."""
    field, m = draw(sparse_matrices())
    keys = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 9)),
                         min_size=m.rows, max_size=m.rows, unique=True))
    rows = row_dicts(m)
    if rows and m.cols:
        for i, j in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.integers(0, m.cols - 1)), max_size=3)):
            rows[i].setdefault(j, field.zero)
    order = draw(st.permutations(range(m.rows)))
    return field, m, {keys[i]: rows[i] for i in order}


@settings(max_examples=150, deadline=None)
@given(keyed_rows())
def test_kernel_of_keyed_rows_is_the_perp_of_their_span(data):
    field, m, rows = data
    k = kernel(rows, m.cols, field)
    assert_canonical(k)
    assert k == row_space(field, m).perp()


@settings(max_examples=150, deadline=None)
@given(matrix_and_domain_subspace())
def test_kernel_on_basis_is_canonical(data):
    field, m, x = data
    on = kernel_on(x, [m.apply(b) for b in x.basis_dicts()])
    assert_canonical(on)
    assert on == x.intersect(kernel(dict(enumerate(row_dicts(m))), m.cols, field))


@settings(max_examples=150, deadline=None)
@given(matrix_and_domain_subspace())
def test_intersect_basis_is_canonical(data):
    field, m, x = data
    rows = row_space(field, m)
    for meet in (x.intersect(rows), rows.intersect(x)):
        assert_canonical(meet)
        assert contains(x, meet) and contains(rows, meet)
        assert (x + rows).dim + meet.dim == x.dim + rows.dim


@settings(max_examples=150, deadline=None)
@given(matrix_and_codomain_subspace())
def test_preimage_basis_is_canonical(data):
    field, f, w = data
    pre = preimage(f, w, field)
    assert_canonical(pre)
    assert contains(pre, kernel(dict(enumerate(row_dicts(f))), f.cols, field))
    for v in pre.basis_dicts():
        assert w.contains_vector(f.apply(v))


@st.composite
def rows_to_reduce(draw):
    """Sparse rows in a shuffled order: random ones, rows already in
    reduced form, duplicates and multiples of earlier rows, a dense row
    and a chain of neighbouring pairs that fill in, and explicit zeros."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(min_value=1, max_value=8))
    rows = row_dicts(sparse_matrix(draw, field, draw(st.integers(0, 6)), cols))
    rows += rref_full_scan(rows[:draw(st.integers(0, len(rows)))])
    rows += [{j: field.one} for j in draw(st.lists(st.integers(0, cols - 1), max_size=3))]
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            c = field.parse(draw(st.sampled_from(("1", "-1", "2", "1/3"))))
            rows.append({j: c * v for j, v in rows[i].items()})
    if draw(st.booleans()):
        rows.append({j: field.parse(draw(st.sampled_from(SCALES[3:]))) for j in range(cols)})
    if draw(st.booleans()):
        rows += [{j: field.one, j + 1: field.from_int(-2)} for j in range(cols - 1)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, max(len(rows) - 1, 0)),
                                        st.integers(0, cols - 1)), max_size=3)):
        if rows:
            rows[i].setdefault(j, field.zero)
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@settings(max_examples=300, deadline=None)
@given(rows_to_reduce(), st.sampled_from([min, max]))
@example([{0: QQ.one, 1: QQ.one}, {1: QQ.one, 2: QQ.one}, {0: QQ.one}, {2: QQ.one}], max)
def test_rref_is_the_full_scan_elimination(rows, lead_of):
    want = rref_full_scan([dict(r) for r in rows], lead_of=lead_of)
    got = _rref([dict(r) for r in rows], lead_of=lead_of)
    assert [_freeze_row(r) for r in got] == [_freeze_row(r) for r in want]


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the class is the outcome compared
        return type(exc)


_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _fraction_or_refusal(text):
    """What Fraction reads, or ValueError for an exponent past
    MAX_EXPONENT, which Fraction would spend hours writing out."""
    m = _EXPONENT.search(text)
    if m:
        exp = _outcome(int, m.group(1))
        if isinstance(exp, int) and abs(exp) > MAX_EXPONENT:
            raise ValueError(text)
    return Fraction(text.strip())


# Signs, separators, decimal points, exponents, whitespace and an
# Arabic-Indic digit: integer strings, the strings only Fraction reads,
# the strings neither reads, and exponents too large to write out.
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789+-_/. e\t\n\u0663", max_size=12))
@example("-12")
@example(" +7\n")
@example("1_000")
@example("\u0663\u0663")
@example("3/4")
@example("1/0")
@example("1e3")
@example("")
@example("9" * 5000)
@example("1e4300")
@example("-2E-4300 ")
@example("1e4301")
@example("1e999999999")
@example("3/4E-99_999_999")
def test_rational_parse_reads_what_fraction_reads(text):
    parsed = _outcome(QQ.parse, text)
    assert parsed == _outcome(_fraction_or_refusal, text)
    if not isinstance(parsed, type):
        assert type(parsed) is (int if Fraction(text).denominator == 1 else Fraction)
