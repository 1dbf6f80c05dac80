from __future__ import annotations

import re
from fractions import Fraction as F

import pytest
from reference import compose, contains, coordinates_of, from_entries, row_dicts, vstack
from test_quiverlab import _record_calls

from qcalg import exactlin
from qcalg.coalg import wedge
from qcalg.exactlin import (
    GF,
    QQ,
    FieldMismatchError,
    GFElement,
    Matrix,
    PrimeField,
    Subspace,
    exact_quotient,
    field_named,
    kernel,
    kernel_on,
    preimage,
)


def vec(*entries):
    return {j: F(v) for j, v in enumerate(entries) if v}


def span(ambient, *vectors):
    return Subspace.span(QQ, ambient, [vec(*v) for v in vectors])


class TestFields:
    def test_rational_exactness(self):
        a, b = F(1, 3), F(7, 11)
        assert a / b * b == a

    def test_gf_arithmetic(self):
        f = GF(7)
        a, b = f.from_int(3), f.from_int(5)
        assert (a / b * b) == a
        assert (a + b).val == 1
        assert (-a).val == 4

    def test_gf_requires_prime(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_gf_mismatch(self):
        with pytest.raises(FieldMismatchError):
            GFElement(1, 5) + GFElement(1, 7)

    def test_integral_rationals_are_ints(self):
        assert [type(x) for x in (QQ.zero, QQ.one, QQ.from_int(5))] == [int, int, int]
        assert (QQ.zero, QQ.one, QQ.from_int(5)) == (0, 1, 5)

    def test_exact_quotient(self):
        cases = [((6, 3), 2), ((6, -3), -2), ((-7, 2), F(-7, 2)), ((1, 3), F(1, 3)),
                 ((F(1, 2), 2), F(1, 4)), ((3, F(3, 2)), F(2))]
        for (a, b), q in cases:
            assert exact_quotient(a, b) == q
            assert type(exact_quotient(a, b)) is type(q)
        f = GF(7)
        assert exact_quotient(f.from_int(3), f.from_int(5)) == f.from_int(3) / f.from_int(5)
        with pytest.raises(ZeroDivisionError):
            exact_quotient(1, 0)

    def test_parse_and_format(self):
        assert QQ.parse("-3/4") == F(-3, 4)
        assert QQ.format(F(5, 2)) == "5/2"
        assert GF(7).parse("1/2").val == 4  # 2 * 4 = 8 = 1 mod 7

    def test_field_named(self):
        assert field_named("rational") == QQ
        assert field_named("gf(11)").p == 11
        assert field_named("gf:11").p == 11
        for name in ("real", "gf(abc)", "gf:", "gf()", "gf(1/2)"):
            with pytest.raises(ValueError, match=f"^unknown field '{re.escape(name)}'$"):
                field_named(name)

    def test_moduli_past_the_exact_primality_range_are_refused(self):
        # The least strong pseudoprime to the bases 2..37 passes Miller-Rabin.
        pseudoprime = exactlin.MAX_PRIME_MODULUS
        assert pseudoprime == 399165290221 * 798330580441
        assert exactlin._is_prime(pseudoprime)
        for p in (pseudoprime, pseudoprime + 2, 2**89 - 1):
            with pytest.raises(ValueError, match="decided exactly"):
                PrimeField(p)
        assert PrimeField(2**61 - 1).p == 2**61 - 1
        assert field_named(f"gf:{2**61 - 1}").p == 2**61 - 1


class TestEchelonize:
    """Subspace.span stores the reduced echelon form, which is canonical."""

    def test_canonical_uniqueness(self):
        a = span(3, (1, 2, 3), (0, 1, 1))
        b = span(3, (1, 1, 2), (2, 5, 7))
        assert a.basis == b.basis
        assert a == b


class TestLatticeOps:
    def test_complementary_lines(self):
        a, b = span(2, (1, 0)), span(2, (0, 1))
        assert a + b == Subspace.full(QQ, 2)
        assert a.intersect(b) == Subspace.zero(QQ, 2)

    def test_idempotence(self):
        a = span(3, (1, 2, 0), (0, 0, 1))
        assert a.intersect(a) == a
        assert contains(a, a)

    def test_membership_by_solving(self):
        a = span(3, (1, 1, 0), (0, 0, 1))
        b = span(3, (1, 1, 1))
        assert contains(a, b)
        assert not contains(b, a)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_meet_basis_is_canonical(self, field):
        def sp(*vectors):
            return Subspace.span(field, 4, [{j: field.from_int(v) for j, v in enumerate(row) if v}
                                            for row in vectors])
        a = sp((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 0, 3))
        b = sp((2, 6, 2, 5), (0, 0, 3, 2))
        meet = a.intersect(b)
        assert meet.basis == Subspace.span(field, 4, meet.basis_dicts()).basis
        assert meet == sp((2, 6, 2, 5))
        assert b.intersect(a) == meet and meet.intersect(meet) == meet

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            span(2, (1, 0)) + span(3, (1, 0, 0))

    def test_coordinates_of(self):
        a = span(3, (1, 0, 1), (0, 1, 1))
        coords = coordinates_of(a, vec(2, 3, 5))
        assert coords == {0: F(2), 1: F(3)}
        with pytest.raises(ValueError):
            coordinates_of(a, vec(0, 0, 1))

    def test_pivot_rows_leave_equality_and_the_basis_alone(self):
        a = span(3, (1, 2, 0), (0, 0, 1))
        b = span(3, (1, 2, 0), (0, 0, 1))
        assert a.pivot_columns() == [0, 2]  # builds a's pivot rows, not b's
        # and a's residual table, built once: e_j reduced by a's basis.
        assert a.residuals == [vec(0, -2, 0), vec(0, 1, 0), {}]
        assert a.residuals is a.residuals
        assert a == b and hash(a) == hash(b)
        rows = a.basis_dicts()
        rows[0][1] = F(99)  # the caller owns the returned dicts
        assert a.basis_dicts() == [vec(1, 2, 0), vec(0, 0, 1)]
        for x in (a, span(4, (1, 0, 2, 3), (0, 1, -1, 0), (0, 0, 0, 5)),
                  Subspace.zero(QQ, 3), Subspace.full(GF(7), 2)):
            one = x.field.one
            assert x.residuals == [x.reduce_vector({j: one}) for j in range(x.ambient_dim)]
        assert a.reduce_vector(vec(1, 2, 5)) == {}
        assert coordinates_of(a, vec(2, 4, 3)) == {0: F(2), 1: F(3)}


class TestPerp:
    def test_zero_and_full(self):
        assert Subspace.zero(QQ, 3).perp() == Subspace.full(QQ, 3)
        assert Subspace.full(QQ, 3).perp() == Subspace.zero(QQ, 3)

    def test_hand_example(self):
        x = span(3, (1, 1, 0))
        assert x.perp() == span(3, (1, -1, 0), (0, 0, 1))

    def test_involution_and_dim(self):
        x = span(4, (1, 2, 0, 1), (0, 0, 1, 3))
        assert x.perp().dim == 4 - x.dim
        assert x.perp().perp() == x


class TestKernelOn:
    # f(x0, x1, x2, x3) = (x0 - x1, x2 + 2 x3), by rows.
    F_MAP = Matrix(2, 4, {(0, 0): F(1), (0, 1): F(-1), (1, 2): F(1), (1, 3): F(2)})

    @pytest.mark.parametrize("vectors", [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
        [(1, 1, 0, 0), (0, 0, 2, -1)],
        [(1, 2, 3, 4), (0, 1, 1, 1), (0, 0, 1, 5)],
        [(1, 0, 2, 0)],
    ])
    def test_is_the_kernel_met_with_the_subspace(self, vectors):
        x = span(4, *vectors)
        images = [self.F_MAP.apply(b) for b in x.basis_dicts()]
        f = self.F_MAP
        assert kernel_on(x, images) == x & kernel(dict(enumerate(row_dicts(f))), f.cols, QQ)

    def test_codomain_keys_are_any_hashables(self):
        x = span(3, (1, 0, 1), (0, 1, 1))
        images = [{("u", 0): F(1)}, {("u", 0): F(-2), "v": F(3)}]
        assert kernel_on(x, images) == Subspace.zero(QQ, 3)
        assert kernel_on(x, [{"v": F(1)}, {"v": F(1)}]) == span(3, (1, -1, 0))
        assert kernel_on(x, [{}, {}]) == x

    def test_coordinates(self):
        assert Subspace.coordinates(QQ, 4, [3, 1, 3]) == span(4, (0, 1, 0, 0), (0, 0, 0, 1))
        assert Subspace.coordinates(QQ, 2, []) == Subspace.zero(QQ, 2)


class TestOneElimination:
    """Each kernel builds its canonical basis from one _rref pass; a second
    pass through Subspace.span would show here as a second call."""

    def test_kernel_and_kernel_on_eliminate_once(self, patch_everywhere):
        f = TestKernelOn.F_MAP
        x = span(4, (1, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 3))
        images = [f.apply(b) for b in x.basis_dicts()]
        rrefs = _record_calls(patch_everywhere, exactlin, "_rref")
        k = kernel(dict(enumerate(row_dicts(f))), f.cols, QQ)
        assert len(rrefs) == 1
        on = kernel_on(x, images)
        assert len(rrefs) == 2
        assert k == span(4, (1, 1, 0, 0), (0, 0, 2, -1))
        assert on == span(4, (1, 1, 0, 0))

    def test_kernel_on_empty_images_eliminates_nothing(self, patch_everywhere):
        x = span(4, (1, 2, 3, 4), (0, 1, 1, 1))
        rrefs = _record_calls(patch_everywhere, exactlin, "_rref")
        assert kernel_on(x, [{}, {}]) is x
        assert rrefs == []

    def test_perp_preimage_and_intersect_eliminate_once(self, patch_everywhere):
        f = TestKernelOn.F_MAP
        x = span(4, (1, 2, 3, 4), (0, 1, 1, 1))
        y = span(4, (1, 1, 2, 3), (0, 0, 1, 0))
        w = span(2, (1, 1))
        rrefs = _record_calls(patch_everywhere, exactlin, "_rref")
        x.perp()
        assert len(rrefs) == 1
        preimage(f, w, QQ)
        assert len(rrefs) == 2
        x.intersect(y)
        assert len(rrefs) == 3


class TestKeyedRows:
    def test_zero_rows_and_zero_entries_do_not_count(self):
        rows = {("b", 0): {0: F(0)}, ("a", 1): {}, ("a", 0): {0: F(1), 1: F(0)}}
        assert kernel(rows, 2, QQ) == span(2, (0, 1))
        assert kernel({}, 2, QQ) == Subspace.full(QQ, 2)

    def test_wedge_feeds_rref_its_rows_in_descending_tensor_order(
            self, ex2_n3, patch_everywhere):
        # The rows reach _rref as the caller built them, in descending
        # (j, k) order, which is the order of the flat index j*dim + k.
        c, _ = ex2_n3
        x = c.span_of_labels(["a"])
        kernels = _record_calls(patch_everywhere, exactlin, "kernel")
        rrefs = _record_calls(patch_everywhere, exactlin, "_rref")
        wedge(x, x, c)
        [(rows, cols, _)] = kernels
        [(fed, lead_of)] = rrefs
        keys = sorted(rows, reverse=True)
        assert keys == sorted(rows, key=lambda jk: jk[0] * c.dim + jk[1], reverse=True)
        assert all(0 <= j < c.dim and 0 <= k < c.dim for j, k in keys)
        assert (cols, lead_of) == (c.dim, max)
        assert len(fed) > 1
        assert [id(row) for row in fed] == [id(rows[key]) for key in keys
                                            if any(rows[key].values())]


class TestPreimage:
    def test_full_codomain(self):
        f = Matrix(1, 2, {(0, 0): F(1)})  # projection (x, y) -> x
        assert preimage(f, Subspace.full(QQ, 1), QQ) == Subspace.full(QQ, 2)

    def test_zero_gives_kernel(self):
        f = Matrix(1, 2, {(0, 0): F(1)})
        k = kernel(dict(enumerate(row_dicts(f))), f.cols, QQ)
        assert preimage(f, Subspace.zero(QQ, 1), QQ) == k
        assert k == span(2, (0, 1))

    def test_projection_onto_line(self):
        f = Matrix(1, 2, {(0, 0): F(1)})
        w = span(1, (1,))
        assert preimage(f, w, QQ) == Subspace.full(QQ, 2)

    def test_dimension_mismatch(self):
        f = Matrix(2, 2, {(0, 0): F(1)})
        with pytest.raises(ValueError):
            preimage(f, Subspace.full(QQ, 3), QQ)


class TestMatrix:
    def test_compose(self):
        a = Matrix(2, 2, {(0, 1): F(1)})
        b = Matrix(2, 2, {(1, 0): F(2)})
        assert compose(a, b).entries == {(0, 0): F(2)}

    def test_vstack(self):
        a = Matrix(1, 2, {(0, 0): F(1)})
        b = Matrix(2, 2, {(1, 1): F(3)})
        s = vstack([a, b])
        assert s.rows == 3 and s.entries == {(0, 0): F(1), (2, 1): F(3)}

    def test_no_zero_entries_stored(self):
        m = from_entries(2, 2, {(0, 0): F(0), (1, 1): F(2)})
        assert m.entries == {(1, 1): F(2)}
