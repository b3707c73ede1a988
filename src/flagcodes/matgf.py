"""Dense exact matrices over GF(q).

Provides products, reduced row-echelon forms, ranks, companion matrices,
block assembly, multiplicative orders, and the two 1-based row-slicing
accessors (first j rows, rows after j) that the constructions use.
Matrices are immutable.  A GF(2) matrix stores each row as one bitmask,
column 0 the most significant bit, and every operation here works on
them; the external contract stays a grid of int element codes, which
int_rows() makes from the bitmasks on each call.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, islice

from .errors import (
    BlockDimMismatch,
    DimMismatch,
    FieldMismatch,
    NonMonic,
    OrderCapExceeded,
    Singular,
    SliceOutOfRange,
)
from .field import FieldSpec, Poly, _misnamed_field, field_name, parse_field_name

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

# A 0-column matrix is all in its header, so its row count is the one size
# read_matrix allocates that the length of the text does not bound; no flag
# or word has 0 columns, and 2^20 empty rows take 8 MB.
_MAX_EMPTY_ROWS = 1 << 20


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


def _forward(rows: Iterable, field: FieldSpec) -> tuple[list, list[int]]:
    """The one elimination loop: each of ``rows`` is reduced by the rows
    kept before it and kept, its pivot scaled to 1, if not 0.  Returns the
    kept rows, in the order kept, and the indices of the rows that reduce
    to 0.

    A kept row is 0 at the pivots of the rows kept before it, so taking
    them in the order kept never brings back a cleared pivot.  Over GF(2)
    the row is instead cleared at its leading pivot while its AND with the
    mask of pivots is nonzero, the kept rows keyed by their pivot's
    bit_length().
    """
    out: list = []
    dropped = []
    basis: dict = {}  # pivot (bit_length() over GF(2), else column) -> kept row
    if field.q == 2:
        mask = 0  # the pivot bits
        for row in rows:
            hit = row & mask
            while hit:
                row ^= basis[hit.bit_length()]
                hit = row & mask
            if row:
                top = row.bit_length()
                basis[top] = row
                mask |= 1 << top - 1
                out.append(row)
            else:
                dropped.append(len(out) + len(dropped))
        return out, dropped
    add, mul, neg, inv = field.tables()
    for row in rows:
        for c, base in basis.items():
            x = row[c]
            if x:
                times = mul[neg[x]]
                row = tuple([add[a][times[b]] for a, b in zip(row, base)])
        x = next(filter(None, row), 0)  # the leading entry
        if not x:
            dropped.append(len(out) + len(dropped))
            continue
        top = row.index(x)
        if x != 1:
            row = tuple(map(mul[inv[x]].__getitem__, row))
        basis[top] = row
        out.append(row)
    return out, dropped


def _echelon(rows: Sequence, lengths: Iterable[int], field: FieldSpec) -> tuple[tuple, list[int]]:
    """The normal-form rows of the span of the first t of ``rows`` for each
    t of the nondecreasing ``lengths`` (each at most len(rows)), and the
    rank of each span.

    A reduced row is the unique vector of its coset that is 0 at every
    pivot kept before it, whatever the lengths, so one forward pass
    (_forward) reduces the rows up to the last length, each rank is read
    off the rows that reduce to 0, and the levels that add more than one
    row are then back-substituted (_leveled): the rows a length adds,
    reduced among themselves, are its RREF rows at their pivots.
    """
    lengths = tuple(lengths)
    out, dropped = _forward(rows[: lengths[-1]] if lengths else (), field)
    ranks = [t - bisect_left(dropped, t) for t in lengths] if dropped else list(lengths)
    return _leveled([tuple(out)], ranks, field)[0], ranks


def _back_substitute(rows: Sequence, field: FieldSpec) -> tuple:
    """The RREF, in pivot order (decreasing order), of rows with pivots 1,
    each 0 at the pivots of the rows before it: one forward pass (_forward)
    over them from the last row up.

    Each row is 0 left of its pivot and 0 at the pivots of the rows above
    it, and the rows below it, as the pass leaves them, are too.  So
    clearing it at the pivots of the rows below it adds only rows that are
    0 at and left of its own pivot (a row below whose pivot is left of it
    meets a 0 there), and its pivot and leading 1 stay in place: every row
    is kept, 0 at every other pivot.
    """
    return tuple(sorted(_forward(reversed(rows), field)[0], reverse=True))


def _leveled(forms: list, dims: Sequence[int], field: FieldSpec) -> list[tuple]:
    """The normal forms of chains at the nondecreasing ``dims`` from their
    forward-reduced rows ``forms`` (a batch's, or one chain's): each level
    that adds more than one row is back-substituted (_back_substitute)."""
    lo = 0
    for hi in dims:
        if hi - lo > 1:
            forms = [f[:lo] + _back_substitute(f[lo:hi], field) + f[hi:] for f in forms]
        lo = hi
    return forms


def _lane_codec(width: int, count: int) -> tuple:
    """(pack, unpack) for ``count`` lanes of ``width`` bits, 8, 16, 32 or
    64: pack makes one int of a sequence of ``count`` ints below 2^width,
    the m-th at bits m*width up, and unpack gives the tuple back, both
    through one struct of little-endian words (``struct`` is imported here,
    on first use, so ``import flagcodes`` does not load it)."""
    import struct

    # B, H, I and Q are the words of 8, 16, 32 and 64 bits
    words = struct.Struct(f"<{count}{'BHIQ'[width.bit_length() - 4]}")
    return (
        lambda lanes: int.from_bytes(words.pack(*lanes), "little"),
        lambda x: words.unpack(x.to_bytes(words.size, "little")),
    )


class _GF2Lanes:
    """One forward elimination of a batch of GF(2) chains of ``n``-column
    bitmask rows, n <= 64, the first ``top`` rows of each, as _echelon
    makes it for each chain alone, with every chain in the same
    Python-level steps.

    Row r of every chain is packed into one int, chain m in lane m: bits
    m*width up, ``width`` the least of 8, 16, 32 and 64 that holds n, so
    lane arithmetic never carries into the next lane.  ``piv[c]`` holds
    in each lane the kept row with pivot at bit c (column n - 1 - c), or 0,
    and ``free[c]`` has bit 0 of each lane where c is no pivot.  A row is
    reduced in one pass over the columns, left to right: ``b``, bit c of
    each lane, is final when the pass reaches c, since only kept rows with
    pivots to the left of c have been added, and each is 0 left of its
    pivot.  The lanes of ``b`` where c is a pivot add that kept row, through
    the spread mask ``(b << width) - b`` (all ones in those lanes); the
    lanes where it is not, and which have no pivot yet in this row, take c
    as the row's pivot (``b & avail & free[c]``).  The pass goes on to the
    last column, so the row is 0 at every pivot kept before it, left or
    right of its own.  Then each new pivot's lanes keep the reduced row.

    ``rows`` and ``pivots`` are the packed reduced rows and their pivot
    bits, and ``bad`` is the least chain with a row that found no pivot
    (a row in the span of the rows before it), or None.
    """

    __slots__ = ("n", "width", "unpack", "ones", "rows", "pivots", "bad")

    def __init__(self, rowsets: Sequence[Sequence[int]], top: int, n: int):
        width = 8
        while width < n:
            width <<= 1
        pack, self.unpack = _lane_codec(width, len(rowsets))
        ones = pack((1,) * len(rowsets))
        piv = [0] * n
        free = [ones] * n
        rows, pivots = [], []
        failed = 0
        for lanes in islice(zip(*rowsets), top):
            x = pack(lanes)
            avail = ones  # the lanes that have no pivot yet in this row
            found = []
            for c in range(n - 1, -1, -1):
                kept = piv[c]
                if not (kept or avail):
                    continue
                b = x >> c & ones
                if kept:
                    x ^= ((b << width) - b) & kept
                if avail:
                    new = b & avail & free[c]
                    if new:
                        avail ^= new
                        found.append((c, new))
            bits = 0
            for c, new in found:
                piv[c] |= ((new << width) - new) & x
                free[c] ^= new
                bits |= new << c
            rows.append(x)
            pivots.append(bits)
            failed |= avail
        self.n = n
        self.width = width
        self.ones = ones
        self.rows = rows
        self.pivots = pivots
        self.bad = ((failed & -failed).bit_length() - 1) // width if failed else None

    def forms(self, dims: Sequence[int], field: FieldSpec) -> list[tuple]:
        """The normal form of each chain at the nondecreasing ``dims``
        (the last ``top``): its reduced rows, leveled (_leveled)."""
        return _leveled(list(zip(*map(self.unpack, self.rows))), dims, field)

    def normals(self) -> tuple:
        """The normal of each chain's span, a hyperplane of GF(2)^n, as
        subspace._hyperplane_normal solves it from the chain's rows, all
        lanes at once: c starts as 1 at the one column of each lane that
        holds no pivot, and from the last row R to the first, R's pivot
        bit is set in the lanes where R & c has odd parity.  The parity of
        a lane gathers at its bit 0 by folding it in halves."""
        n, width, ones = self.n, self.width, self.ones
        if len(self.rows) != n - 1:
            raise DimMismatch(f"a dim-{len(self.rows)} subspace of GF(2)^{n} is not a hyperplane")
        c = (ones << n) - ones
        for bits in self.pivots:
            c ^= bits
        for x, bits in zip(reversed(self.rows), reversed(self.pivots)):
            x &= c
            half = width >> 1
            while half:
                x ^= x >> half
                half >>= 1
            x &= ones
            c |= ((x << width) - x) & bits
        return self.unpack(c)


class _GFqSlices:
    """_GF2Lanes over GF(q), 2 < q <= 16, with the same interface: one
    forward elimination of the first ``top`` code-tuple rows of every
    chain, as _echelon makes it for each chain alone.

    Entry (r, c) of every chain is one byte of one int, chain m in byte m
    of its big-endian bytes: row r is n such slices.  A field operation on
    slices a and b reads one 256-byte table T at a*q + b (``op``); q^2 <=
    256, so no byte carries into the next.  ``base[c]`` holds in each lane
    the kept row with pivot c, pivot 1 and 0 left of c, or 0, and
    ``pivm[c]`` has byte 1 in the lanes where c is a pivot.  A row is
    reduced in one pass over the columns, left to right: v = x[c] is final
    when the pass reaches c, and x[c'] -= v*base[c][c'] for c' >= c clears c
    in the lanes where it is a pivot and changes no other lane.  Where v is
    nonzero, c is no pivot and the row has no pivot yet, c is the row's
    pivot; the row is then scaled by the inverse of its pivot's value.
    ``bad`` is as in _GF2Lanes.
    """

    __slots__ = ("n", "size", "field", "q", "ops", "ones", "base", "pivm", "rows", "bad")

    def __init__(self, rowsets: Sequence[Sequence[tuple]], top: int, n: int, field: FieldSpec):
        q, size = field.q, len(rowsets)
        self.n, self.size, self.field, self.q = n, size, field, q
        add, mul, neg, inv = field.tables()
        # a - b and a b at a*q + b; 1/a and "a is nonzero" at a*q, any b
        self.ops = [b"".join(map(bytes, t)).ljust(256, b"\0") for t in (
            [[row[b] for b in neg] for row in add], mul,
            [[v] * q for v in inv], [[min(v, 1)] * q for v in range(q)])]
        sub_t, mul_t, inv_t, nz_t = self.ops
        op = self.op
        ones = self.ones = int.from_bytes(b"\1" * size, "big")
        base = self.base = [[0] * n for _ in range(n)]
        pivm = self.pivm = [0] * n
        rows = self.rows = []
        failed = 0
        for lanes in islice(zip(*rowsets), top):
            x = [int.from_bytes(bytes(col), "big") for col in zip(*lanes)]
            avail = ones  # the lanes that have no pivot yet in this row
            pv = 0  # each lane's pivot value
            found = []
            for c in range(n):
                v = x[c]
                if not v:
                    continue
                kept = base[c]
                if pivm[c]:
                    for j in range(c, n):
                        if kept[j]:
                            x[j] = op(sub_t, x[j], op(mul_t, v, kept[j]))
                if avail:
                    new = op(nz_t, v) & avail & (ones ^ pivm[c])
                    if new:
                        avail ^= new
                        pv |= v & new * 255
                        found.append((c, new))
            if pv & ~ones:  # a pivot value other than 1
                pv = op(inv_t, pv)
                x = [op(mul_t, pv, y) if y else 0 for y in x]
            for c, new in found:
                kept, spread = base[c], new * 255
                for j in range(c, n):
                    kept[j] |= x[j] & spread
                pivm[c] |= new
            rows.append(x)
            failed |= avail
        self.bad = size - 1 - (failed.bit_length() - 1) // 8 if failed else None

    def op(self, table: bytes, a: int, b: int = 0) -> int:
        """The slice of ``table`` at a*q + b in every lane."""
        return int.from_bytes((a * self.q + b).to_bytes(self.size, "big").translate(table), "big")

    def chains(self, slices: list[int]) -> Iterator[tuple]:
        """Each chain's codes in ``slices``, chain 0 first."""
        return zip(*[v.to_bytes(self.size, "big") for v in slices])

    def forms(self, dims: Sequence[int], field: FieldSpec) -> list[tuple]:
        """The normal form of each chain at the nondecreasing ``dims``
        (the last ``top``): its reduced rows, leveled (_leveled)."""
        return _leveled(list(zip(*map(self.chains, self.rows))), dims, field)

    def normals(self) -> tuple:
        """The normal of each chain's span, a hyperplane of GF(q)^n, as
        subspace._hyperplane_normal solves it from the chain's rows, all
        lanes at once, from the last column back:
        c[p] = -sum_(c' > p) base[p][c'] c[c'] (each term subtracted), plus
        1 where p is no pivot."""
        n, op = self.n, self.op
        if len(self.rows) != n - 1:
            raise DimMismatch(f"a dim-{len(self.rows)} subspace of {self.field}^{n} is not a hyperplane")
        sub_t, mul_t = self.ops[:2]
        c = [0] * n
        for p in range(n - 1, -1, -1):
            kept, acc = self.base[p], 0
            for j in range(p + 1, n):
                if kept[j] and c[j]:
                    acc = op(sub_t, acc, op(mul_t, kept[j], c[j]))
            c[p] = acc | self.ones ^ self.pivm[p]
        return tuple(self.chains(c))


class MatrixGF:
    """An immutable matrix over a FieldSpec, stored as element codes.

    ``_rows`` are the stored rows.  Over GF(2) each is a bitmask, entry j as
    bit ncols - 1 - j, so bitmasks of one width compare as their code tuples
    do, and int_rows() decodes them into a tuple grid on each call.  Over
    every other field the rows are code tuples, which int_rows() returns.
    ``_tables`` holds what _tabulated() made for a matrix that is the right
    factor of many products, and is None on every other matrix.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_tables")

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
        self._tables = None

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
        m._tables = None
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

    def _tabulated(self) -> MatrixGF:
        """An equal matrix to be the right factor of many products, which
        keeps what they read: its product tables (_product_tables) over
        GF(2), otherwise the (column, code) pairs of each row's nonzero
        entries."""
        m = MatrixGF._wrap(self.field, self.ncols, self._rows)
        m._tables = _product_tables(self._rows) if self.field.q == 2 else tuple(
            [[(c, w) for c, w in enumerate(row) if w] for row in self._rows])
        return m

    # -- inspection ----------------------------------------------------------

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The grid of element codes (polynomial-basis codes for extensions)."""
        if self.field.q != 2:
            return self._rows
        ncols = self.ncols
        return tuple([tuple(map(int, _digits(b, ncols))) for b in self._rows])

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

    def rref(self) -> tuple[MatrixGF, int]:
        """Reduced row-echelon form and rank.

        One echelon pass over all rows as a single length (_echelon)
        gives the RREF rows, the unique canonical form of the row space,
        padded with zero rows back to the original shape.
        """
        field, ncols = self.field, self.ncols
        rows, (rank,) = _echelon(self._rows, (self.nrows,), field)
        rows += (0 if field.q == 2 else (0,) * ncols,) * (self.nrows - rank)
        return MatrixGF._wrap(field, ncols, rows), rank

    def rank(self) -> int:
        """The count of rows one forward pass (_forward) keeps."""
        return len(_forward(self._rows, self.field)[0])

    # -- row slicing (1-based, mirroring the constructions) -------------------

    def first_rows(self, j: int) -> MatrixGF:
        """The submatrix of the first j rows; requires 1 <= j <= nrows."""
        if not 1 <= j <= self.nrows:
            raise SliceOutOfRange(f"first {j} rows of a {self.nrows}-row matrix")
        return MatrixGF._wrap(self.field, self.ncols, self._rows[:j])

    def rows_after(self, j: int) -> MatrixGF:
        """The submatrix of rows j+1..nrows; requires 1 <= j < nrows."""
        if not 1 <= j < self.nrows:
            raise SliceOutOfRange(f"rows after {j} of a {self.nrows}-row matrix")
        return MatrixGF._wrap(self.field, self.ncols, self._rows[j:])


def _product_tables(rows: tuple) -> tuple[list[int], ...]:
    """The byte tables of a GF(2) right factor with bitmask ``rows`` (the
    "Four Russians" method: Arlazarov, Dinic, Kronrod and Faradzev, 1970).

    Table c serves bits 8c..8c+7 of a left row, bit j being row
    len(rows) - 1 - j: its entry v is the XOR of the rows at the set bits
    of v.  Each row doubles the table, so the last, partial chunk of m
    rows gets 2^m entries, all that an m-bit byte can index; a matrix of
    no rows gets the one table [0].
    """
    brows = rows[::-1]
    tables = []
    for lo in range(0, len(brows) or 1, 8):
        table = [0]
        for row in brows[lo : lo + 8]:
            table += [x ^ row for x in table]
        tables.append(table)
    return tuple(tables)


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Exact matrix product.  Over GF(2) a product row is one table lookup
    per byte of the left row when ``b`` has product tables (_tabulated),
    and one XOR per set bit otherwise.  Over other fields it reads the
    field's tables once per nonzero entry pair."""
    field = a.field
    if field is not b.field and field != b.field:
        raise FieldMismatch(f"{a.field} matrix times {b.field} matrix")
    if a.ncols != b.nrows:
        raise DimMismatch(f"{a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    tables = b._tables
    if tables is not None and field.q == 2:
        if len(tables) <= 2:
            # at most 16 rows of b: the low byte and the rest, one lookup
            # each; with one table the rest is 0, and (0,)[0] is 0
            low, high = tables if len(tables) == 2 else (tables[0], (0,))
            out = [low[r & 255] ^ high[r >> 8] for r in a._rows]
            return MatrixGF._wrap(field, b.ncols, tuple(out))
        out = []
        for arow in a._rows:
            acc = 0
            for table in tables:
                acc ^= table[arow & 255]
                arow >>= 8
            out.append(acc)
        return MatrixGF._wrap(field, b.ncols, tuple(out))
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
    add, mul, _, _ = field.tables()
    rows = (b if tables is not None else b._tabulated())._tables
    out = []
    for arow in a._rows:
        orow = [0] * b.ncols
        for v, terms in zip(arow, rows):
            if v:
                times = mul[v]
                for c, w in terms:
                    orow[c] = add[orow[c]][times[w]]
        out.append(tuple(orow))
    return MatrixGF._wrap(field, b.ncols, tuple(out))


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
    neg = field.tables()[2]
    rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
    rows.append([neg[c] for c in f.coeffs[:k]])
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
    lines: list[str] = []
    _matrix_lines(m._rows, _RowTexts(m.field, m.ncols), lines)
    return "\n".join(lines)


# the 8 binary digits of each byte, each after one space (joined from
# the 16 nibbles', a quarter of the import-time cost of 256 joins)
_NIBBLE_TEXT = [" ".join(f"{b:04b}") for b in range(16)]
_BYTE_TEXT = [f" {hi} {lo}" for hi in _NIBBLE_TEXT for lo in _NIBBLE_TEXT]


class _RowTexts(dict):
    """The lines of one serialization call, whose matrices share one field
    and one width: each stored row's line, rendered by __missing__ on first
    use, and each header's, keyed by ~nrows (a negative int, so never a
    stored row: GF(2) bitmasks are ints of at least 0, other rows tuples).

    A row's line is its element codes separated by single spaces, column 0
    first.  Over GF(2) it is joined from the _BYTE_TEXT of each byte of
    the bitmask, most significant first (``shifts``), with the leading
    space and the top byte's digits past the width cut off (``skip``).
    """

    __slots__ = ("field", "ncols", "shifts", "skip")

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.shifts = range((ncols - 1) & ~7, -1, -8) if field.q == 2 else None
        self.skip = 1 + 2 * (-ncols & 7)

    def __missing__(self, row) -> str:
        if self.shifts is None:
            text = " ".join(map(str, row))
        else:
            text = ""
            for shift in self.shifts:
                text += _BYTE_TEXT[row >> shift & 255]
            text = text[self.skip :]
        self[row] = text
        return text

    def header(self, nrows: int) -> str:
        text = self.get(~nrows)
        if text is None:
            text = self[~nrows] = f"{nrows} {self.ncols} {field_name(self.field)}"
        return text


def _matrix_lines(rows: tuple, memo: _RowTexts, out: list[str]) -> None:
    """Append the lines of matrix_to_text to ``out`` for the matrix of the
    stored ``rows`` over the field and width of ``memo``, the serialization
    call's lines, so a header or row that repeats is rendered once."""
    out.append(memo.header(len(rows)))
    out += map(memo.__getitem__, rows)


def read_matrix(lines: Iterator[str]) -> MatrixGF:
    """Consume one matrix from an iterator of lines (blank lines skipped)."""
    return _read_matrix(lines, {}, empty=True)


class _NoMatrix(ValueError):
    """The lines ran out before a matrix header: a code file that ends
    before the count its header declares catches this to say so."""


class _RowParses(dict):
    """The rows of one deserialization call under headers of one width and
    field: each raw row line's stored row, parsed by __missing__ on first
    read, or None for a blank line.  A line that fails to parse is not
    kept, so it raises the same error each time it is read.

    Over GF(2), a line in the writer's spelling (exactly ``ncols`` ASCII
    digits 0 and 1 separated by single spaces: ``gaps`` at the odd places)
    is read as one binary numeral.  Every other line is split into tokens:
    int() refuses a token first, then the count is checked, then the codes
    (reduced mod 2 over GF(2), as FieldSpec.codes_of reduces them, and
    checked by it over every other field).
    """

    __slots__ = ("ncols", "field", "gaps", "width")

    def __init__(self, ncols: int, field: FieldSpec):
        self.ncols = ncols
        self.field = field
        self.gaps = " " * (ncols - 1) if field.q == 2 else None
        self.width = 2 * ncols - 1

    def __missing__(self, raw: str):
        gaps = self.gaps
        if gaps is not None and len(raw) == self.width and raw[1::2] == gaps:
            digits = raw[::2]
            if not digits.strip("01"):
                row = self[raw] = int(digits, 2)
                return row
        values = [int(t) for t in raw.split()]
        if not values:
            return None
        if len(values) != self.ncols:
            raise ValueError(f"row has {len(values)} entries, expected {self.ncols}")
        if gaps is None:
            row = self[raw] = self.field.codes_of(values)
        else:
            row = self[raw] = _pack([v & 1 for v in values])
        return row


def _read_matrix(
    lines: Iterator[str], memo: dict, q: tuple[int, str] | None = None, empty: bool = False
) -> MatrixGF:
    """read_matrix, keeping the parses of one deserialization call in
    ``memo``, so a header or row line that repeats is parsed once.

    ``q`` is (the q a code file's header declares, what its matrices hold,
    as in "the flags are"): a matrix header whose field name declares
    another order is refused before that field, and its tables, are built.

    ``empty`` admits a header of 0 columns, whose rows are empty lines:
    the matrix is all in the header.  No flag or word has 0 columns
    (n >= 2), so the loaders refuse such a header before making a row of
    the count it declares.

    ``memo`` maps each raw header line to its (nrows, ncols, field, parse)
    (_read_header), and each (ncols, field) pair to the _RowParses of
    every header of that width and field, whose lookup is ``parse``.  A line
    read under another width or field is parsed and checked afresh.  The
    rows of a block are parsed in one mapped pass over its next nrows
    lines; only a blank line among them, or the end of the lines, sends
    the reader back for more, one line at a time.
    """
    for raw in lines:
        parsed = memo.get(raw)
        if parsed is not None:
            break
        header = raw.strip()
        if header:
            parsed = memo[raw] = _read_header(header, memo, q, empty)
            break
    else:
        raise _NoMatrix("no matrix header found")
    nrows, ncols, named, parse = parsed
    if ncols == 0:
        # the rows of a 0-column matrix are empty lines, which are skipped
        # like the blank lines between matrices: the header gives them all
        return MatrixGF.zeros(named, nrows, 0)
    rows = tuple(map(parse, islice(lines, nrows)))
    if len(rows) < nrows or None in rows:
        rows = [row for row in rows if row is not None]
        while len(rows) < nrows:
            raw = next(lines, None)
            if raw is None:
                raise ValueError(f"matrix ended after {len(rows)} of {nrows} rows")
            row = parse(raw)
            if row is not None:
                rows.append(row)
        rows = tuple(rows)
    return MatrixGF._wrap(named, ncols, rows)


def _read_header(header: str, memo: dict, q: tuple[int, str] | None, empty: bool) -> tuple:
    """The (nrows, ncols, field, parse) of a stripped matrix header line,
    checked as _read_matrix describes."""
    m = _HEADER_RE.match(header)
    if not m:
        raise ValueError(f"bad matrix header {header!r}")
    nrows, ncols = int(m.group(1)), int(m.group(2))
    if ncols == 0 and (not empty or nrows > _MAX_EMPTY_ROWS):
        why = f"and more than {_MAX_EMPTY_ROWS} rows" if empty else "but no flag or word does"
        raise ValueError(f"matrix header {header[:40]!r} has 0 columns, {why}")
    if q is not None:
        misnamed = _misnamed_field(m.group(3), q[0])
        if misnamed is not None:
            raise ValueError(f"header says q = {q[0]}, but {q[1]} over {misnamed}")
    named = parse_field_name(m.group(3))
    rows = memo.setdefault((ncols, named), _RowParses(ncols, named))
    return nrows, ncols, named, rows.__getitem__


def _expect_end(lines: Iterator[str], what: str) -> None:
    """Raise ValueError if any non-blank line is left after ``what``."""
    extra = next((raw.strip() for raw in lines if raw.strip()), None)
    if extra is not None:
        raise ValueError(f"text after {what}: {extra[:40]!r}")


def matrix_from_text(text: str) -> MatrixGF:
    return read_matrix(iter(text.splitlines()))
