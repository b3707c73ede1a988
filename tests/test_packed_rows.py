"""GF(2) matrices store their rows as bitmasks; every operation on them must
agree with the tuple-grid route.

Inputs are built from tuple grids by the validated constructor, whose
int_rows() are those grids.  Products are checked against the explicit
row-times-matrix product of ``mat_mul_oracle``; blocks, slices, identities,
zeros and powers against the validated constructor on the grid assembled
by hand.  Shapes are seeded and random, and include 0 rows and 0 columns.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes.matgf import read_matrix

from _checks import mat_mul_oracle

GF2 = fc.field_make(2)


def _grid(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    return [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]


def _matrix(rng: random.Random, nrows: int, ncols: int) -> fc.MatrixGF:
    return fc.MatrixGF(GF2, _grid(rng, nrows, ncols), ncols=ncols)


def _assert_same(got: fc.MatrixGF, grid, ncols: int) -> None:
    """``got`` is the matrix of the tuple grid ``grid``: same entries and
    shape, equal and hash-equal to its validated build, both ways round."""
    want = fc.MatrixGF(GF2, grid, ncols=ncols)
    assert (got.nrows, got.ncols) == (len(grid), ncols)
    assert got.int_rows() == tuple(tuple(r) for r in grid)
    assert got == want and want == got
    assert hash(got) == hash(want)


def _shapes(seed: int, count: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)]
    shapes += [(rng.randrange(12), rng.randrange(12), rng.randrange(20)) for _ in range(count)]
    return shapes


class TestProduct:
    @pytest.mark.parametrize("r,m,c", _shapes(seed=1, count=30))
    def test_mat_mul_matches_oracle(self, r, m, c):
        rng = random.Random(r * 10_000 + m * 100 + c)
        a, b = _matrix(rng, r, m), _matrix(rng, m, c)
        _assert_same(a @ b, mat_mul_oracle(a, b), c)

    def test_wide_rows_cross_byte_boundaries(self):
        rng = random.Random(7)
        for m, c in [(8, 9), (9, 16), (17, 17), (3, 40)]:
            a, b = _matrix(rng, 5, m), _matrix(rng, m, c)
            _assert_same(a @ b, mat_mul_oracle(a, b), c)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_power_matches_repeated_oracle(self, n):
        rng = random.Random(n)
        m = _matrix(rng, n, n)
        grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for e in range(6):
            _assert_same(m**e, grid, n)
            grid = mat_mul_oracle(fc.MatrixGF(GF2, grid, ncols=n), m)


class TestBlock:
    @pytest.mark.parametrize("seed", range(12))
    def test_block_with_none_cells(self, seed):
        rng = random.Random(seed)
        heights = [rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        widths = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
        # the diagonal cells (and the last column below it) stay sized, so
        # every block row and column has one; any other cell may be None
        cells = [
            [
                _matrix(rng, h, w)
                if i == j or (j == len(widths) - 1 and i >= j) or rng.random() < 0.5
                else None
                for j, w in enumerate(widths)
            ]
            for i, h in enumerate(heights)
        ]
        for j in range(len(widths)):
            if all(row[j] is None for row in cells):
                cells[0][j] = _matrix(rng, heights[0], widths[j])
        grid = []
        for row, h in zip(cells, heights):
            for r in range(h):
                line = []
                for cell, w in zip(row, widths):
                    line.extend([0] * w if cell is None else cell.int_rows()[r])
                grid.append(line)
        _assert_same(fc.block(GF2, cells), grid, sum(widths))


class TestSlicesAndConstants:
    @pytest.mark.parametrize("seed", range(6))
    def test_slicers_match_grid_slices(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 8), rng.randrange(12)
        grid = _grid(rng, nrows, ncols)
        packed = fc.MatrixGF(GF2, grid, ncols=ncols) @ fc.MatrixGF.identity(GF2, ncols)
        for m in (fc.MatrixGF(GF2, grid, ncols=ncols), packed):
            for j in range(1, nrows + 1):
                _assert_same(m.first_rows(j), grid[:j], ncols)
                if j < nrows:
                    _assert_same(m.rows_after(j), grid[j:], ncols)

    @pytest.mark.parametrize("n", range(11))
    def test_identity(self, n):
        grid = [[int(i == j) for j in range(n)] for i in range(n)]
        _assert_same(fc.MatrixGF.identity(GF2, n), grid, n)

    @pytest.mark.parametrize("nrows,ncols", [(0, 0), (0, 4), (4, 0), (3, 9), (1, 17)])
    def test_zeros(self, nrows, ncols):
        z = fc.MatrixGF.zeros(GF2, nrows, ncols)
        _assert_same(z, [[0] * ncols for _ in range(nrows)], ncols)


class TestEqualityAcrossRoutes:
    @pytest.mark.parametrize("seed", range(8))
    def test_tuple_build_and_packed_product(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(6), rng.randrange(1, 14)
        grid = _grid(rng, nrows, ncols)
        built = fc.MatrixGF(GF2, grid, ncols=ncols)
        product = built @ fc.MatrixGF.identity(GF2, ncols)
        assert product == built and built == product
        assert hash(product) == hash(built)
        assert {built: "found"}[product] == "found"
        if nrows:
            grid[rng.randrange(nrows)][rng.randrange(ncols)] ^= 1
            flipped = fc.MatrixGF(GF2, grid, ncols=ncols)
            assert flipped != product and product != flipped

    @pytest.mark.parametrize("seed", range(8))
    def test_int_rows_decode_the_bitmasks_of_either_build(self, seed):
        # no grid is kept: a validated build and a wrap of its bitmasks
        # decode to the grid they were made from on every call
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(6), rng.randrange(14)
        grid = tuple(tuple(r) for r in _grid(rng, nrows, ncols))
        built = fc.MatrixGF(GF2, grid, ncols=ncols)
        wrapped = fc.MatrixGF._wrap(GF2, ncols, built._rows)
        for m in (built, wrapped):
            assert not hasattr(m, "_grid")
            assert m.int_rows() == m.int_rows() == grid

    def test_shape_takes_part(self):
        assert fc.MatrixGF.zeros(GF2, 0, 2) != fc.MatrixGF.zeros(GF2, 0, 3)
        assert fc.MatrixGF.zeros(GF2, 2, 2) != fc.MatrixGF.zeros(GF2, 3, 2)


class TestReadMatrix:
    @pytest.mark.parametrize(
        "row", ["2 -1 3", "0 1 1", "+1 01 -0", "-2 -3 4", "1 1 1"]
    )
    def test_int_tokens_reduce_mod_2(self, row):
        m = read_matrix(iter(["1 3 GF(2)", row]))
        _assert_same(m, [[int(t) % 2 for t in row.split()]], 3)
        assert m == fc.MatrixGF(GF2, [[int(t) for t in row.split()]])

    def test_many_rows_and_blank_lines(self):
        rng = random.Random(4)
        grid = _grid(rng, 9, 19)
        lines = ["9 19 GF(2)", ""] + [" ".join(map(str, r)) + "\n\n" for r in grid]
        _assert_same(read_matrix(iter(lines)), grid, 19)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1.0 1 0", "invalid literal"),
            ("x 1 0", "invalid literal"),
            ("1 0", "row has 2 entries, expected 3"),
            ("1 0 1 1", "row has 4 entries, expected 3"),
            ("1 x", "invalid literal"),  # tokens are read before they are counted
        ],
    )
    def test_bad_rows_raise_as_the_generic_reader(self, row, message):
        for field_name in ("GF(2)", "GF(3)"):
            with pytest.raises(ValueError, match=message):
                read_matrix(iter([f"1 3 {field_name}", row]))

