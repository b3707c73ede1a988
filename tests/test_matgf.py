from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes.errors import (
    BlockDimMismatch,
    DimMismatch,
    FieldMismatch,
    NonMonic,
    OrderCapExceeded,
    Singular,
    SliceOutOfRange,
)

from _checks import check_companion_row_identities, check_row_window_propagation, rref_oracle


def M(field, rows):
    return fc.MatrixGF(field, rows)


class TestMul:
    def test_identity(self, gf2):
        m = M(gf2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]])
        assert fc.MatrixGF.identity(gf2, 3) @ m == m

    def test_char2_cancellation(self, gf2):
        assert M(gf2, [[1, 1]]) @ M(gf2, [[1], [1]]) == M(gf2, [[0]])

    def test_fibonacci_square(self, gf2):
        p = M(gf2, [[0, 1], [1, 1]])
        assert p @ p == M(gf2, [[1, 1], [1, 0]])

    def test_gf3(self, gf3):
        a = M(gf3, [[1, 2], [0, 1]])
        b = M(gf3, [[2, 0], [1, 1]])
        assert a @ b == M(gf3, [[1, 2], [1, 1]])

    def test_dim_mismatch(self, gf2):
        with pytest.raises(DimMismatch):
            M(gf2, [[1, 0]]) @ M(gf2, [[1, 0]])

    def test_field_mismatch(self, gf2, gf3):
        with pytest.raises(FieldMismatch):
            M(gf2, [[1]]) @ M(gf3, [[1]])


class TestRref:
    def test_zero(self, gf2):
        z = fc.MatrixGF.zeros(gf2, 2, 3)
        reduced, rank = z.rref()
        assert reduced == z and rank == 0

    def test_identity(self, gf3):
        i3 = fc.MatrixGF.identity(gf3, 3)
        assert i3.rref() == (i3, 3)

    def test_duplicate_rows(self, gf2):
        m = M(gf2, [[1, 0, 1], [1, 0, 1]])
        reduced, rank = m.rref()
        assert rank == 1
        assert reduced == M(gf2, [[1, 0, 1], [0, 0, 0]])

    def test_idempotent(self, gf3):
        m = M(gf3, [[1, 2, 0], [2, 1, 1], [0, 0, 2]])
        reduced, _ = m.rref()
        assert reduced.rref()[0] == reduced

    def test_pivot_normalization(self, gf3):
        reduced, rank = M(gf3, [[2, 1]]).rref()
        assert rank == 1 and reduced == M(gf3, [[1, 2]])

    @pytest.mark.parametrize(
        "field_args", [(2,), (3,), (2, 2), (5,), (3, 2)], ids=["GF2", "GF3", "GF4", "GF5", "GF9"]
    )
    def test_matches_gauss_jordan_oracle(self, field_args):
        field = fc.field_make(*field_args)
        add, mul = field.add, field.mul
        rng = random.Random(31 * field.q)
        shapes = [(0, 0), (0, 4), (3, 0)]
        shapes += [(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(200)]
        for nrows, ncols in shapes:
            rows: list[list[int]] = []
            for _ in range(nrows):
                roll = rng.random()
                if roll < 0.1:
                    row = [0] * ncols
                elif roll < 0.35 and rows:
                    # a random combination of earlier rows
                    row = [0] * ncols
                    for earlier in rows:
                        c = rng.randrange(field.q)
                        row = [add(x, mul(c, y)) for x, y in zip(row, earlier)]
                else:
                    row = [rng.randrange(field.q) for _ in range(ncols)]
                rows.append(row)
            m = fc.MatrixGF(field, rows, ncols=ncols)
            reduced, rank = m.rref()
            want, want_rank = rref_oracle(m)
            assert rank == want_rank
            assert reduced == want
            assert (reduced.nrows, reduced.ncols) == (nrows, ncols)


class TestRank:
    def test_identity(self, gf2):
        assert fc.MatrixGF.identity(gf2, 4).rank() == 4

    def test_stacked_identities(self, gf2):
        i2 = fc.MatrixGF.identity(gf2, 2)
        assert fc.vstack([i2, i2]).rank() == 2

    def test_complementary_blocks(self, gf2):
        a = M(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = M(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert fc.vstack([a, b]).rank() == 4

    def test_transpose_invariance(self, gf3):
        rng = random.Random(7)
        for _ in range(50):
            r, c = rng.randrange(1, 6), rng.randrange(1, 6)
            m = M(gf3, [[rng.randrange(3) for _ in range(c)] for _ in range(r)])
            assert m.rank() == m.transpose().rank()


class TestCompanion:
    def test_gf2_quadratic(self, gf2):
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        assert p == M(gf2, [[0, 1], [1, 1]])

    def test_gf2_cubic(self, gf2):
        p = fc.companion(fc.Poly(gf2, [1, 1, 0, 1]))
        assert p == M(gf2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])

    def test_gf3_negated_last_row(self, gf3):
        p = fc.companion(fc.Poly(gf3, [2, 1, 1]))
        assert p == M(gf3, [[0, 1], [1, 2]])

    @pytest.mark.parametrize("q,coeffs", [(2, [1, 1, 0, 1]), (3, [2, 1, 1]), (5, [3, 0, 1])])
    def test_annihilated_by_its_polynomial(self, q, coeffs):
        field = fc.field_from_order(q)
        f = fc.Poly(field, coeffs)
        p = fc.companion(f)
        k = f.degree
        acc = fc.MatrixGF.zeros(field, k, k)
        for i, c in enumerate(f.coeffs):
            if c:
                term = p**i
                scaled = fc.MatrixGF(
                    field,
                    [[field.mul(c, v) for v in row] for row in term.int_rows()],
                )
                acc = fc.MatrixGF(
                    field,
                    [
                        [field.add(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(acc.int_rows(), scaled.int_rows())
                    ],
                )
        assert acc.is_zero

    def test_non_monic(self, gf3):
        with pytest.raises(NonMonic):
            fc.companion(fc.Poly(gf3, [1, 2]))


class TestSlices:
    def test_first(self, gf2):
        i3 = fc.MatrixGF.identity(gf2, 3)
        assert i3.first_rows(2) == M(gf2, [[1, 0, 0], [0, 1, 0]])

    def test_after(self, gf2):
        i3 = fc.MatrixGF.identity(gf2, 3)
        assert i3.rows_after(2) == M(gf2, [[0, 0, 1]])

    def test_range(self, gf2):
        i4 = fc.MatrixGF.identity(gf2, 4)
        assert i4.row_range(2, 3) == M(gf2, [[0, 1, 0, 0], [0, 0, 1, 0]])

    def test_single(self, gf2):
        i3 = fc.MatrixGF.identity(gf2, 3)
        assert i3.single_row(3) == M(gf2, [[0, 0, 1]])

    def test_bounds(self, gf2):
        i3 = fc.MatrixGF.identity(gf2, 3)
        with pytest.raises(SliceOutOfRange):
            i3.first_rows(0)
        with pytest.raises(SliceOutOfRange):
            i3.first_rows(4)
        with pytest.raises(SliceOutOfRange):
            i3.rows_after(3)
        with pytest.raises(SliceOutOfRange):
            i3.row_range(2, 4)

    def test_bounds_of_each_slicer(self, gf2):
        i3 = fc.MatrixGF.identity(gf2, 3)
        for bad in (lambda: i3.rows_after(0), lambda: i3.single_row(0),
                    lambda: i3.single_row(4), lambda: i3.row_range(3, 2)):
            with pytest.raises(SliceOutOfRange):
                bad()


class TestBlock:
    def test_diag(self, gf2):
        i2 = fc.MatrixGF.identity(gf2, 2)
        assert fc.block(gf2, [[i2, None], [None, i2]]) == fc.MatrixGF.identity(gf2, 4)

    def test_zero_left(self, gf2):
        i2 = fc.MatrixGF.identity(gf2, 2)
        z = fc.MatrixGF.zeros(gf2, 2, 2)
        assert fc.block(gf2, [[z, i2]]) == M(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_hyperplane_seed_shape(self, gf2):
        # [I_2 | 0], then the last row of I_3, then the first row of I_3
        i2 = fc.MatrixGF.identity(gf2, 2)
        i3 = fc.MatrixGF.identity(gf2, 3)
        b = fc.block(
            gf2,
            [
                [i2, None],
                [None, i3.rows_after(2)],
                [None, i3.first_rows(1)],
            ],
        )
        assert b == M(
            gf2,
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
        )
        assert b.rank() == 4

    def test_empty_blocks_collapse(self, gf2):
        i0 = fc.MatrixGF.identity(gf2, 0)
        i2 = fc.MatrixGF.identity(gf2, 2)
        assert fc.block(gf2, [[i0, None], [None, i2]]) == i2

    def test_mismatch(self, gf2):
        i2 = fc.MatrixGF.identity(gf2, 2)
        i3 = fc.MatrixGF.identity(gf2, 3)
        with pytest.raises(BlockDimMismatch):
            fc.block(gf2, [[i2, i3]])
        with pytest.raises(BlockDimMismatch):
            fc.block(gf2, [[None, None], [i2, i2]])


class TestOrder:
    def test_identity(self, gf2):
        assert fc.matrix_order(fc.MatrixGF.identity(gf2, 3)) == 1

    def test_primitive_quadratic(self, gf2):
        assert fc.matrix_order(fc.companion(fc.Poly(gf2, [1, 1, 1]))) == 3

    def test_primitive_cubic(self, gf2):
        assert fc.matrix_order(fc.companion(fc.Poly(gf2, [1, 1, 0, 1]))) == 7

    def test_singular(self, gf2):
        with pytest.raises(Singular):
            fc.matrix_order(M(gf2, [[1, 1], [1, 1]]))

    def test_cap(self, gf2):
        with pytest.raises(OrderCapExceeded):
            fc.matrix_order(fc.companion(fc.Poly(gf2, [1, 1, 1])), cap=2)

    @pytest.mark.parametrize("q,d", [(2, 3), (2, 5), (3, 3), (4, 2)])
    def test_primitive_companion_order(self, q, d):
        field = fc.field_from_order(q)
        p = fc.companion(fc.find_primitive_poly(field, d))
        assert fc.matrix_order(p) == q**d - 1


class TestCanonicality:
    def test_row_mixing_invariance(self, gf2, gf3):
        rng = random.Random(42)
        for field in (gf2, gf3):
            for _ in range(100):
                r = rng.randrange(1, 7)
                c = rng.randrange(1, 7)
                a = M(field, [[rng.randrange(field.q) for _ in range(c)] for _ in range(r)])
                while True:
                    t = M(field, [[rng.randrange(field.q) for _ in range(r)] for _ in range(r)])
                    if t.rank() == r:
                        break
                assert (t @ a).rref()[0] == a.rref()[0]


class TestCompanionRowStructure:
    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 5)])
    def test_row_shift_identities(self, q, k):
        check_companion_row_identities(q, k)

    @pytest.mark.parametrize("q,k,trials", [(2, 6, 400), (2, 8, 400), (3, 4, 300)])
    def test_window_propagation(self, q, k, trials):
        found = check_row_window_propagation(q, k, trials=trials, seed=11)
        assert found > 0, "no premise instances found; widen the search"


class TestText:
    def test_roundtrip(self, gf3):
        m = M(gf3, [[0, 1, 2], [2, 2, 0]])
        assert fc.matrix_from_text(fc.matrix_to_text(m)) == m

    def test_extension_field_header(self, gf4):
        m = M(gf4, [[0, 3], [2, 1]])
        text = fc.matrix_to_text(m)
        assert text.splitlines()[0] == "2 2 GF(2^2)"
        assert fc.matrix_from_text(text) == m

    def test_stream_of_matrices(self, gf2):
        a = fc.MatrixGF.identity(gf2, 2)
        b = M(gf2, [[1, 1]])
        stream = iter((fc.matrix_to_text(a) + "\n" + fc.matrix_to_text(b)).splitlines())
        from flagcodes.matgf import read_matrix

        assert read_matrix(stream) == a
        assert read_matrix(stream) == b

    @pytest.mark.parametrize("field_args", [(2,), (3,)], ids=["GF2", "GF3"])
    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_shapes_round_trip(self, field_args, shape):
        # a 0-column matrix writes its rows as empty lines, which the reader
        # cannot tell from the blank lines it skips: the header gives them
        from flagcodes.matgf import read_matrix

        field = fc.field_make(*field_args)
        m = fc.MatrixGF.zeros(field, *shape)
        back = fc.matrix_from_text(fc.matrix_to_text(m))
        assert back == m and (back.nrows, back.ncols) == shape
        after = M(field, [[1, 0]])
        stream = iter((fc.matrix_to_text(m) + "\n" + fc.matrix_to_text(after)).splitlines())
        assert read_matrix(stream) == m
        assert read_matrix(stream) == after

    def test_bad_header(self):
        with pytest.raises(ValueError):
            fc.matrix_from_text("nonsense")


class TestDerivedMatrices:
    """Slices, RREF results, products and assembled blocks reuse the element
    codes of the matrices they come from; they must equal a fully validated
    rebuild of the same grid."""

    @pytest.mark.parametrize("field_args", [(2,), (3,), (2, 2)], ids=["GF2", "GF3", "GF4"])
    def test_equal_validated_rebuild(self, field_args):
        field = fc.field_make(*field_args)
        rng = random.Random(5)
        a = fc.MatrixGF(field, [[rng.randrange(field.q) for _ in range(4)] for _ in range(3)])
        b = fc.MatrixGF(field, [[rng.randrange(field.q) for _ in range(3)] for _ in range(4)])
        derived = [
            a.first_rows(2), a.rows_after(1), a.single_row(3), a.row_range(2, 3),
            a.rref()[0], a @ b, fc.vstack([a, a]), fc.block(field, [[a, None], [None, b]]),
        ]
        for m in derived:
            rebuilt = fc.MatrixGF(field, m.int_rows(), ncols=m.ncols)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert (m.nrows, m.ncols) == (rebuilt.nrows, rebuilt.ncols)
            assert all(isinstance(row, tuple) for row in m.int_rows())

    def test_public_constructor_still_validates(self, gf4):
        with pytest.raises(ValueError):
            fc.MatrixGF(gf4, [[0, 4]])
        with pytest.raises(ValueError):
            fc.matrix_from_text("1 2 GF(2^2)\n0 4")

    @pytest.mark.parametrize(
        "field_args", [(2,), (3,), (2, 2), (3, 2)], ids=["GF2", "GF3", "GF4", "GF9"]
    )
    def test_identity_and_zeros_equal_validated_build(self, field_args):
        # both skip element coercion: 0 and 1 are valid codes in every field
        field = fc.field_make(*field_args)
        for n in range(4):
            ident = fc.MatrixGF.identity(field, n)
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            rebuilt = fc.MatrixGF(field, rows, ncols=n)
            assert ident == rebuilt and hash(ident) == hash(rebuilt)
            assert (ident.nrows, ident.ncols) == (n, n)
        for nrows, ncols in [(0, 0), (0, 3), (3, 0), (2, 3), (3, 1)]:
            zeros = fc.MatrixGF.zeros(field, nrows, ncols)
            rebuilt = fc.MatrixGF(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)
            assert zeros == rebuilt and hash(zeros) == hash(rebuilt)
            assert (zeros.nrows, zeros.ncols) == (nrows, ncols)
            assert zeros.int_rows() == rebuilt.int_rows()
