"""Dense exact matrices over GF(q).

Provides products, reduced row-echelon forms, ranks, companion matrices,
block assembly, multiplicative orders, and the 1-based row-slicing accessors
(first j rows, rows after j, a single row, an inclusive row range) that the
subspace constructions use throughout.  Matrices are immutable.  A GF(2)
matrix stores each row as one bitmask, column 0 the most significant bit,
and every operation here works on them; the external contract stays a grid
of int element codes, which int_rows() makes from the bitmasks on first
request.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate

from .errors import (
    BlockDimMismatch,
    DimMismatch,
    FieldMismatch,
    NonMonic,
    OrderCapExceeded,
    Singular,
    SliceOutOfRange,
)
from .field import FieldSpec, Poly, field_name, parse_field_name

__all__ = [
    "DEFAULT_ORDER_CAP",
    "MatrixGF",
    "block",
    "companion",
    "mat_mul",
    "matrix_from_text",
    "matrix_order",
    "matrix_to_text",
    "read_matrix",
    "rows_in_row_space",
    "vstack",
]

DEFAULT_ORDER_CAP = 1 << 20


def _pack(row: Sequence[int]) -> int:
    """The bitmask of a GF(2) row of codes 0 and 1, column 0 the most
    significant bit."""
    bits = 0
    for v in row:
        bits = bits << 1 | v
    return bits


def _digits(bits: int, ncols: int) -> str:
    """The ``ncols`` binary digits of a GF(2) row's bitmask, column 0 first.
    The sentinel bit ncols pads the numeral to ncols digits (none at
    ncols = 0) and is then dropped."""
    return f"{bits | 1 << ncols:b}"[1:]


_BIT_TOKENS = frozenset(("0", "1"))


def _reduce_into(basis: dict, row, field: FieldSpec) -> bool:
    """Add ``row`` to the fully reduced basis ``basis``; True iff ``row``
    was independent of it.

    Over GF(2) rows are bitmasks keyed by their highest set bit, the bit of
    their leading column; otherwise rows are tuples of element codes keyed
    by their leading column, whose entry is 1.  The row is cleared at every
    existing pivot; a nonzero remainder becomes a pivot row with its pivot
    scaled to 1, and its pivot column is cleared from the older rows.  Every
    pivot column then holds a single nonzero entry, so the rows in
    increasing pivot-column order are the RREF of their span.  That is
    decreasing order, for code tuples and GF(2) bitmasks alike: two rows
    are both 0 before the lesser of their pivot columns, and at it only the
    row of that pivot is nonzero.  This is the package's only step that
    adds a row to a basis.
    """
    if field.q == 2:
        for top, base in basis.items():
            if row & top:
                row ^= base
        if not row:
            return False
        top = 1 << row.bit_length() - 1
        for p, base in basis.items():
            if base & top:
                basis[p] = base ^ row
        basis[top] = row
        return True
    sub, mul = field.sub, field.mul
    for c, base in basis.items():
        x = row[c]
        if x:
            row = tuple([sub(a, mul(x, b)) for a, b in zip(row, base)])
    c = next((j for j, x in enumerate(row) if x), None)
    if c is None:
        return False
    x = row[c]
    if x != 1:
        xi = field.inv(x)
        row = tuple([mul(xi, y) for y in row])
    for p, base in basis.items():
        y = base[c]
        if y:
            basis[p] = tuple([sub(a, mul(y, b)) for a, b in zip(base, row)])
    basis[c] = row
    return True


def _rref_rows(basis: dict) -> tuple:
    """The rows of a fully reduced basis (_reduce_into) in increasing
    pivot-column order, which is decreasing order: the RREF of their span."""
    return tuple(sorted(basis.values(), reverse=True))


class MatrixGF:
    """An immutable matrix over a FieldSpec, stored as element codes.

    ``_rows`` are the stored rows.  Over GF(2) each is a bitmask, entry j as
    bit ncols - 1 - j, so bitmasks of one width compare as their code tuples
    do; the tuple grid ``_grid`` is a view that int_rows() builds from them
    on first use, unless the matrix was made from that grid.  Over every
    other field the rows are code tuples and ``_grid`` is ``_rows``.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_grid")

    def __init__(
        self,
        field: FieldSpec,
        rows: Iterable[Iterable[int]],
        ncols: int | None = None,
    ):
        norm = tuple(map(field.codes_of, rows))
        widths = {len(r) for r in norm}
        if len(widths) > 1:
            raise DimMismatch(f"ragged rows with widths {sorted(widths)}")
        if norm:
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise DimMismatch(f"rows have {width} columns, expected {ncols}")
        else:
            if ncols is None:
                ncols = 0
            width = ncols
        self.field = field
        self.nrows = len(norm)
        self.ncols = width
        self._rows = tuple(map(_pack, norm)) if field.q == 2 else norm
        self._grid = norm

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, field: FieldSpec, ncols: int, rows: tuple) -> MatrixGF:
        """A matrix over ``field`` from rows already valid in it (taken
        from, or computed on, matrices over it), not re-validated, in the
        form it stores them: bitmasks over GF(2), code tuples otherwise."""
        m = cls.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols
        m._rows = rows
        m._grid = None if field.q == 2 else rows
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> MatrixGF:
        # codes 0 and 1 are zero and one in every field: nothing to validate
        if field.q == 2:
            return cls._wrap(field, n, tuple([1 << i for i in reversed(range(n))]))
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls._wrap(field, n, rows)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> MatrixGF:
        zero = 0 if field.q == 2 else (0,) * ncols
        return cls._wrap(field, ncols, (zero,) * nrows)

    # -- inspection ----------------------------------------------------------

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The grid of element codes (polynomial-basis codes for extensions)."""
        grid = self._grid
        if grid is None:
            ncols = self.ncols
            grid = self._grid = tuple([tuple(map(int, _digits(b, ncols))) for b in self._rows])
        return grid

    @property
    def is_zero(self) -> bool:
        return all(not any(r) for r in self.int_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixGF):
            return NotImplemented
        # equal fields store their rows alike
        return (
            self.field == other.field
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"MatrixGF({self.nrows}x{self.ncols} over {self.field})"

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: MatrixGF) -> MatrixGF:
        return mat_mul(self, other)

    def __pow__(self, n: int) -> MatrixGF:
        if self.nrows != self.ncols:
            raise DimMismatch("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        result = MatrixGF.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def transpose(self) -> MatrixGF:
        rows = self.int_rows()
        return MatrixGF(
            self.field,
            [[rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def rref(self) -> tuple[MatrixGF, int]:
        """Reduced row-echelon form and rank.

        The rows go one at a time into a single fully reduced basis
        (_reduce_into), whose rows in pivot order have pivots 1 with their
        columns otherwise cleared and strictly increasing: the unique
        canonical form of the row space, padded with zero rows back to the
        original shape.
        """
        field, ncols = self.field, self.ncols
        basis: dict = {}
        for row in self._rows:
            _reduce_into(basis, row, field)
        rows = _rref_rows(basis)
        rank = len(rows)
        rows += (0 if field.q == 2 else (0,) * ncols,) * (self.nrows - rank)
        return MatrixGF._wrap(field, ncols, rows), rank

    def rank(self) -> int:
        return self.rref()[1]

    # -- row slicing (1-based, mirroring the constructions) -------------------

    def first_rows(self, j: int) -> MatrixGF:
        """The submatrix of the first j rows; requires 1 <= j <= nrows."""
        return self._rows_between(1, j, 1 <= j <= self.nrows, f"first {j} rows")

    def rows_after(self, j: int) -> MatrixGF:
        """The submatrix of rows j+1..nrows; requires 1 <= j < nrows."""
        return self._rows_between(j + 1, self.nrows, 1 <= j < self.nrows, f"rows after {j}")

    def single_row(self, j: int) -> MatrixGF:
        """Row j as a 1-row matrix; requires 1 <= j <= nrows."""
        return self._rows_between(j, j, 1 <= j <= self.nrows, f"row {j}")

    def row_range(self, i: int, j: int) -> MatrixGF:
        """Rows i..j inclusive; requires 1 <= i <= j <= nrows."""
        return self._rows_between(i, j, 1 <= i <= j <= self.nrows, f"rows {i}..{j}")

    def _rows_between(self, i: int, j: int, valid: bool, what: str) -> MatrixGF:
        """Rows i..j inclusive, or SliceOutOfRange naming ``what``."""
        if not valid:
            raise SliceOutOfRange(f"{what} of a {self.nrows}-row matrix")
        return MatrixGF._wrap(self.field, self.ncols, self._rows[i - 1 : j])


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Exact matrix product."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} matrix times {b.field} matrix")
    if a.ncols != b.nrows:
        raise DimMismatch(f"{a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    field = a.field
    if field.q == 2:
        # row i of a*b is the XOR of the rows of b at the set bits of row i
        # of a; bit j of a row of a is entry a.ncols - 1 - j
        brows = b._rows[::-1]
        out = []
        for arow in a._rows:
            acc = 0
            while arow:
                low = arow & -arow
                acc ^= brows[low.bit_length() - 1]
                arow ^= low
            out.append(acc)
        return MatrixGF._wrap(field, b.ncols, tuple(out))
    add, mul = field.add, field.mul
    out = [[0] * b.ncols for _ in range(a.nrows)]
    brows = b._rows
    for i, arow in enumerate(a._rows):
        orow = out[i]
        for j, v in enumerate(arow):
            if v:
                brow = brows[j]
                for c, w in enumerate(brow):
                    if w:
                        orow[c] = add(orow[c], mul(v, w))
    return MatrixGF._wrap(field, b.ncols, tuple(map(tuple, out)))


def vstack(mats: Sequence[MatrixGF]) -> MatrixGF:
    """Stack matrices vertically."""
    if not mats:
        raise DimMismatch("nothing to stack")
    field = mats[0].field
    ncols = mats[0].ncols
    rows: list = []
    for m in mats:
        if m.field != field:
            raise FieldMismatch("stacking matrices over different fields")
        if m.ncols != ncols:
            raise DimMismatch(f"stacking {ncols}-column and {m.ncols}-column matrices")
        rows.extend(m._rows)
    return MatrixGF._wrap(field, ncols, tuple(rows))


def block(field: FieldSpec, cells: Sequence[Sequence[MatrixGF | None]]) -> MatrixGF:
    """Assemble a block matrix; ``None`` cells become zero blocks whose shape
    is inferred from their block row and column."""
    nbr = len(cells)
    nbc = len(cells[0]) if nbr else 0
    if any(len(row) != nbc for row in cells):
        raise BlockDimMismatch("ragged block grid")
    heights = [None] * nbr
    widths = [None] * nbc
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            if cell is None:
                continue
            if cell.field != field:
                raise FieldMismatch("block cell over a different field")
            if heights[i] is None:
                heights[i] = cell.nrows
            elif heights[i] != cell.nrows:
                raise BlockDimMismatch(
                    f"block row {i} mixes heights {heights[i]} and {cell.nrows}"
                )
            if widths[j] is None:
                widths[j] = cell.ncols
            elif widths[j] != cell.ncols:
                raise BlockDimMismatch(
                    f"block column {j} mixes widths {widths[j]} and {cell.ncols}"
                )
    if any(h is None for h in heights) or any(w is None for w in widths):
        raise BlockDimMismatch("a full block row or column has no sized cell")
    if field.q == 2:
        # block column j sits shifts[j] bits above bit 0, the widths of the
        # block columns after it; None cells add no bits
        total = sum(widths)
        shifts = [total - end for end in accumulate(widths)]
        bits: list[int] = []
        for i, row in enumerate(cells):
            placed = [(cell._rows, shift) for cell, shift in zip(row, shifts) if cell is not None]
            for r in range(heights[i]):
                acc = 0
                for cell_bits, shift in placed:
                    acc |= cell_bits[r] << shift
                bits.append(acc)
        return MatrixGF._wrap(field, total, tuple(bits))
    out: list[tuple[int, ...]] = []
    for i, row in enumerate(cells):
        for r in range(heights[i]):
            line: list[int] = []
            for j, cell in enumerate(row):
                if cell is None:
                    line.extend([0] * widths[j])
                else:
                    line.extend(cell._rows[r])
            out.append(tuple(line))
    return MatrixGF._wrap(field, sum(widths), tuple(out))


def companion(f: Poly) -> MatrixGF:
    """Companion matrix of a monic polynomial: superdiagonal ones and last
    row holding the negated coefficients; satisfies f evaluated at it = 0."""
    if not f.is_monic:
        raise NonMonic(f"{f!r} is not monic")
    k = f.degree
    if k < 1:
        raise DimMismatch("companion matrix needs degree >= 1")
    field = f.field
    rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
    rows.append([field.neg(c) for c in f.coeffs[:k]])
    return MatrixGF(field, rows, ncols=k)


def matrix_order(a: MatrixGF, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Smallest t >= 1 with a**t equal to the identity, by iterated products."""
    if a.nrows != a.ncols:
        raise DimMismatch("order of a non-square matrix")
    if a.rank() != a.nrows:
        raise Singular("order of a singular matrix")
    ident = MatrixGF.identity(a.field, a.nrows)
    power = a
    t = 1
    while power != ident:
        power = power @ a
        t += 1
        if t > cap:
            raise OrderCapExceeded(f"order exceeds cap {cap}")
    return t


def rows_in_row_space(inner: MatrixGF, outer: MatrixGF) -> bool:
    """True iff every row of ``inner`` lies in the row space of ``outer``."""
    if inner.field != outer.field or inner.ncols != outer.ncols:
        raise DimMismatch("row-space test needs matching shapes and fields")
    return vstack([outer, inner]).rank() == outer.rank()


# -- text format ---------------------------------------------------------------

_HEADER_RE = re.compile(r"^(\d+)\s+(\d+)\s+(GF\(\S+\))$")


def matrix_to_text(m: MatrixGF) -> str:
    """Render as a ``rows cols GF(q)`` header (the field as field_name
    writes it) plus one line per row of space-separated element codes."""
    lines = [f"{m.nrows} {m.ncols} {field_name(m.field)}"]
    if m.field.q == 2:
        ncols = m.ncols
        lines += [" ".join(_digits(b, ncols)) for b in m._rows]
    else:
        lines += [" ".join(map(str, row)) for row in m._rows]
    return "\n".join(lines)


def read_matrix(lines: Iterator[str], field: FieldSpec | None = None) -> MatrixGF:
    """Consume one matrix from an iterator of lines (blank lines skipped)."""
    header = None
    for raw in lines:
        if raw.strip():
            header = raw.strip()
            break
    if header is None:
        raise ValueError("no matrix header found")
    m = _HEADER_RE.match(header)
    if not m:
        raise ValueError(f"bad matrix header {header!r}")
    nrows, ncols = int(m.group(1)), int(m.group(2))
    named = parse_field_name(m.group(3))
    if field is not None:
        if field != named:
            raise FieldMismatch(f"matrix over {named}, caller expects {field}")
        named = field
    if ncols == 0:
        # the rows of a 0-column matrix are empty lines, which are skipped
        # like the blank lines between matrices: the header gives them all
        return MatrixGF.zeros(named, nrows, 0)
    gf2 = named.q == 2
    rows = []
    while len(rows) < nrows:
        raw = next(lines, None)
        if raw is None:
            raise ValueError(f"matrix ended after {len(rows)} of {nrows} rows")
        tokens = raw.split()
        if not tokens:
            continue
        row = _gf2_row(tokens) if gf2 else [int(t) for t in tokens]
        if len(tokens) != ncols:
            raise ValueError(f"row has {len(tokens)} entries, expected {ncols}")
        rows.append(row)
    if gf2:
        return MatrixGF._wrap(named, ncols, tuple(rows))
    return MatrixGF(named, rows, ncols=ncols)


def _gf2_row(tokens: list[str]) -> int:
    """The bitmask of a row of int tokens over GF(2), each reduced mod 2 as
    FieldSpec.codes_of reduces it; a token that int() refuses raises its
    ValueError, as on the path for other fields."""
    if _BIT_TOKENS.issuperset(tokens):
        # the tokens read as a binary numeral, column 0 its leading digit
        return int("".join(tokens), 2)
    return _pack([int(t) & 1 for t in tokens])


def _expect_end(lines: Iterator[str], what: str) -> None:
    """Raise ValueError if any non-blank line is left after ``what``."""
    extra = next((raw.strip() for raw in lines if raw.strip()), None)
    if extra is not None:
        raise ValueError(f"text after {what}: {extra[:40]!r}")


def matrix_from_text(text: str, field: FieldSpec | None = None) -> MatrixGF:
    return read_matrix(iter(text.splitlines()), field)
