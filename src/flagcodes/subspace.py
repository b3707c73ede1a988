"""Points of the Grassmannian and subspace codes.

A subspace is stored by its unique reduced row-echelon generator, so equality
is a plain comparison.  Distances come from the rank of stacked generators:
d(U, V) = dim(U+V) - dim(U int V) = 2 rk[U; V] - dim U - dim V.  Constant
dimension codes, partial spreads, equidistant codes, and cyclic orbit codes
with their stabilizers build on that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from operator import attrgetter, getitem

from .errors import (
    AmbientMismatch,
    DimMismatch,
    Frozen,
    HypothesisUnmet,
    NotConstantDim,
    ResourceBudgetExceeded,
    Singular,
    TooFewWords,
    ZeroRank,
)
from .field import _PRIME_TABLE_LIMIT, FieldSpec
from .matgf import (
    MatrixGF,
    _echelon,
    _expect_end,
    _forward,
    _matrix_lines,
    _NoMatrix,
    _read_matrix,
    _RowTexts,
    block,
)

__all__ = [
    "GroupElementSeq",
    "Subspace",
    "SubspaceCode",
    "code_min_distance",
    "intersection_dim",
    "is_equidistant_c",
    "is_partial_spread",
    "max_partial_spread_size",
    "orbit_code",
    "stabilizer_order",
    "subspace_distance",
    "subspace_of",
]

class Subspace:
    """A nonzero subspace of GF(q)^n, canonicalized by its RREF generator."""

    __slots__ = ("field", "ambient", "dim", "_key")

    def __init__(self, field: FieldSpec, ambient: int, rows: tuple):
        # rows must be the RREF generator's rows as matrices over field
        # store them (bitmasks over GF(2), code tuples otherwise).  Use
        # subspace_of() to canonicalize a matrix.
        self.field = field
        self.ambient = ambient
        self.dim = len(rows)
        self._key = (self.dim, rows)

    @property
    def canon(self) -> MatrixGF:
        """The RREF generator as a matrix: a view of the key rows, made on
        each read."""
        return MatrixGF._wrap(self.field, self.ambient, self._key[1])

    @property
    def key(self) -> tuple:
        """Deterministic sort key: dimension, then canonical entries."""
        return self._key

    def contains(self, other: Subspace) -> bool:
        """True iff ``other`` is a subspace of this space: stacking their
        generators adds no rank."""
        _check_ambient(self, other)
        return _stacked_rank(self, other) == self.dim

    def transform(self, g: MatrixGF) -> Subspace:
        """The image row space under right multiplication by ``g``."""
        if g.nrows != self.ambient:
            raise AmbientMismatch(
                f"{g.nrows}x{g.ncols} action on an ambient-{self.ambient} subspace"
            )
        return subspace_of(self.canon @ g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.field == other.field
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self._key))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient})"


def subspace_of(a: MatrixGF) -> Subspace:
    """The row space of ``a`` as a canonical Subspace."""
    rows, _ = _echelon(a._rows, (a.nrows,), a.field)
    if not rows:
        raise ZeroRank("the zero matrix spans no subspace")
    return Subspace(a.field, a.ncols, rows)


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient != v.ambient or u.field != v.field:
        raise AmbientMismatch(
            f"{u.field}^{u.ambient} subspace vs {v.field}^{v.ambient} subspace"
        )


def _stacked_rank(u: Subspace, v: Subspace) -> int:
    """rk of the stacked canonical generators: the rows one forward pass
    keeps."""
    return len(_forward(u._key[1] + v._key[1], u.field)[0])


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U int V); always an even count for equal dimensions."""
    _check_ambient(u, v)
    return 2 * _stacked_rank(u, v) - u.dim - v.dim


def intersection_dim(u: Subspace, v: Subspace) -> int:
    _check_ambient(u, v)
    return u.dim + v.dim - _stacked_rank(u, v)


class SubspaceCode:
    """A constant dimension code: a set of subspaces of one dimension in a
    common ambient space over one field, stored sorted by key and deduped:
    of words with equal keys the last one given is kept.  A word of another
    dimension than the first raises NotConstantDim; an empty code has
    ``constant_dim`` None."""

    __slots__ = ("ambient", "words", "constant_dim", "_spectrum")

    def __init__(self, ambient: int, words: Iterable[Subspace]):
        seen: dict[tuple, Subspace] = {}
        field = dim = None
        for w in words:
            if w.ambient != ambient:
                raise AmbientMismatch(
                    f"ambient-{w.ambient} word in an ambient-{ambient} code"
                )
            # the key is field-free, so words over two fields could merge
            if field is None:
                field = w.field
                dim = w.dim
            elif w.field != field:
                raise AmbientMismatch(
                    f"word over {w.field} (modulus {w.field.modulus}) in a code "
                    f"over {field} (modulus {field.modulus})"
                )
            elif w.dim != dim:
                raise NotConstantDim(f"a dim-{w.dim} word in a code of dim-{dim} words")
            seen[w.key] = w
        self.ambient = ambient
        self.words = tuple(sorted(seen.values(), key=attrgetter("_key")))
        self.constant_dim = dim
        self._spectrum = None

    def spectrum(self) -> Counter:
        """Distance -> number of unordered word pairs at that distance.

        Computed on first use by an exhaustive scan of the words and
        cached; the same Counter is returned on every later call.
        """
        if self._spectrum is None:
            profile = Counter()
            if self.words:
                rows = [w._key[1] for w in self.words]
                profile = _distance_profile(rows, (self.constant_dim,), self.words[0].field, self.ambient)
            self._spectrum = Counter({vec[0]: n for vec, n in profile.items()})
        return self._spectrum

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.words)

    def __contains__(self, item: Subspace) -> bool:
        return any(w == item for w in self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceCode):
            return NotImplemented
        return self.ambient == other.ambient and self.words == other.words

    def __repr__(self) -> str:
        return f"SubspaceCode({len(self.words)} words, dim {self.constant_dim}, ambient {self.ambient})"

    def dump(self) -> str:
        """Serialize as a ``n k q |C|`` header plus one canonical matrix per word."""
        if not self.words:
            raise NotConstantDim("an empty code has no dimension to serialize")
        field = self.words[0].field
        lines = [f"{self.ambient} {self.constant_dim} {field.q} {len(self.words)}"]
        memo = _RowTexts(field, self.ambient)
        for w in self.words:
            _matrix_lines(w.key[1], memo, lines)
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> SubspaceCode:
        lines = iter(text.splitlines())
        header = next((ln for ln in lines if ln.strip()), None)
        if header is None:
            raise ValueError("empty subspace code file")
        parts = header.split()
        if len(parts) != 4:
            raise ValueError(f"bad code header {header!r}")
        n, k, q, count = (int(t) for t in parts)
        if count < 1:
            # an empty code has no dimension, which dump() refuses to write
            raise ValueError(f"the header declares {count} words, but a code file needs one or more")
        words = []
        memo: dict = {}
        try:
            for _ in range(count):
                # a field name that declares an order other than q is
                # refused before that field is built
                w = subspace_of(_read_matrix(lines, memo, (q, "a word is")))
                if w.ambient != n or w.dim != k:
                    raise ValueError("word does not match the code header")
                words.append(w)
        except _NoMatrix:
            raise ValueError(
                f"the header declares {count} words, but the file ends after {len(words)}"
            ) from None
        _expect_end(lines, f"the {count} words the header declares")
        code = cls(n, words)
        if len(code) != count:
            raise ValueError(f"the header declares {count} words, but {len(code)} are distinct")
        return code


def _distance_profile(rows: Sequence[tuple], dims: tuple[int, ...], field: FieldSpec, n: int) -> Counter:
    """Per-level distance vectors over every unordered pair of nested chains
    in GF(q)^n, q = ``field.q`` = p^e, that all span the dims ``dims``.

    ``rows`` holds one row tuple per chain: all its rows in level order, as
    matrices over ``field`` store them (bitmasks over GF(2), code tuples
    otherwise), the first dims[l] of them spanning its level l.  A flag is
    its normal-form rows (``_rows``) under its type's dims, and a word of a
    SubspaceCode its key rows under (dim,).  The result maps
    (d(U_1, V_1), ..., d(U_r, V_r)) to its number of pairs.  A pair needs
    one elimination basis: level l inserts the rows that U_l and V_l add to
    U_(l-1) and V_(l-1), after which the basis rank is rk[U_l; V_l] and
    d(U_l, V_l) = 2 (rk[U_l; V_l] - dims[l]).  One bit-sliced elimination
    over GF(p) serves a batch of consecutive chains and all their later
    partners at once, each pair one bit, and the last batch every pair of
    the chains left (_sliced_profile).  This is the package's only scan of
    a code's pairs.

    A row r over GF(q) becomes the e rows r, x r, ..., x^(e-1) r over GF(p),
    entry j written as its e base-p digits in columns je .. je+e-1.  Their
    GF(p)-span is, as a set, the GF(q)-span of the rows they came from, so
    every rank over GF(p) is e times the rank over GF(q): the scan runs on
    en columns with every dim scaled by e, and each entry of a distance
    vector it returns is e times the entry over GF(q).
    """
    if not rows:
        return Counter()
    _check_kernel_prime(field.p)
    if field.q == 2:
        # GF(2) rows are already bitmasks
        return _sliced_profile(rows, dims, n, 2)
    p, e = field.p, field.e
    cols = e * n
    width = (p - 1) * cols
    # bits[v]: element code v as entry 0 of a GF(p) row, its digit d at
    # column j being plane column (d - 1) cols + j (_sliced_profile)
    bits = []
    for v in range(field.q):
        b = 0
        for j, d in enumerate(field._digits(v)):
            if d:
                b |= 1 << (width - 1 - ((d - 1) * cols + j))
        bits.append(b)
    # tables[t][j][v]: entry j = v of a row r, as its part of the GF(p) row
    # x^t r (x has code p); the columns of the entries are disjoint, so a
    # row is the sum of its entries' parts
    tables = []
    codes = range(field.q)
    for t in range(e):
        if t:
            codes = list(map(field.tables()[1][p].__getitem__, codes))
        tables.append([[bits[v] >> (j * e) for v in codes] for j in range(n)])
    distinct = {row for chain in rows for row in chain}
    if {len(row) for row in distinct} != {n}:
        raise ValueError(f"a chain has a row that is not a vector of {field}^{n}")
    lifted = {row: [sum(map(getitem, table, row)) for table in tables] for row in distinct}
    restricted = [[x for row in chain for x in lifted[row]] for chain in rows]
    profile = _sliced_profile(restricted, tuple([e * dim for dim in dims]), cols, p)
    if e == 1:
        return profile
    scaled: Counter = Counter()
    for vec, count in profile.items():
        if any(d % e for d in vec):
            raise ArithmeticError(f"GF({p}) distances {vec} are not {e} times distances over {field}")
        scaled[tuple(d // e for d in vec)] = count
    return scaled


# the bits of one batch of _sliced_profile, pad and dropped bits included:
# about how many (chain, partner) pairs one elimination serves; the chains
# left are one cyclic batch once they fit, up to 361 chains at 2^16 bits
_BATCH_BITS = 1 << 16


def _blocks(x: int, w: int, k: int) -> int:
    """x, below 2^w, copied into each of k consecutive blocks of w bits."""
    span = w * k
    while w < span:  # each step doubles the copies
        x |= x << w
        w <<= 1
    return x & (1 << span) - 1


def _bit_planes(chains: Sequence[Sequence[int]], dims: tuple[int, ...], width: int) -> list:
    """The bit planes of chains of rows over ``width`` plane columns, every
    chain spanning the dims ``dims``.

    ``planes[l][t][i]`` holds plane column i of the t-th row each chain adds
    at level l, chain m at bit m; level l has dims[l] - dims[l - 1] rows.  A
    chain is one binary numeral: its rows, each distinct row rendered once
    as ``width`` digits, in level order.  Digit j of every numeral, the last
    chain's first, read as one int is plane column j mod width of row
    j // width, so one transpose makes every plane, and the levels are
    slices of its rows at ``dims``.  A chain whose rows do not number
    dims[-1], or a row wider than ``width``, makes a numeral of another
    length: ValueError.
    """
    fmt = f"0{width}b"
    render = {row: format(row, fmt) for row in {row for rows in chains for row in rows}}.__getitem__
    numerals = ["".join(map(render, rows)) for rows in chains]
    size = dims[-1] * width
    if set(map(len, numerals)) != {size}:
        raise ValueError(f"a chain's rows do not number its top dim, or a row is wider than {width} columns")
    # the numerals, the last chain's first: every size-th digit from digit
    # j is plane column j, chain m at bit m
    text = "".join(reversed(numerals))
    columns = [int(text[j::size], 2) for j in range(size)]
    rows = [columns[i : i + width] for i in range(0, size, width)]
    return [rows[lo:hi] for lo, hi in zip((0, *dims), dims)]


def _sliced_profile(chains: Sequence[Sequence[int]], dims: tuple[int, ...], n: int, p: int) -> Counter:
    """The distance profile of chains of rows over GF(p), p prime, on n
    columns, that all span the dims ``dims``, bit-sliced across pairs of
    chains.

    A chain is its rows in level order, as _distance_profile takes them.  A
    row is an int over (p - 1) n plane columns, column 0 its most
    significant bit, with plane column (v - 1) n + c set when its entry at
    column c is v: over GF(2) its bitmask, over an odd p one one-hot plane
    per nonzero value.  Chain i is bit i of every plane (_bit_planes).

    One bit of the ints the kernel works on is one pair of chains, and each
    pair is in one batch.  Once the m chains left, start .. N - 1 of N, fit
    a cyclic batch of m // 2 blocks of m + 1 bits in _BATCH_BITS, all their
    m(m - 1)/2 pairs form that one last batch: bit a < m of block d - 1,
    d = 1 .. m // 2, is the pair (start + a, start + (a + d) mod m), and
    bit m pads the block.  The own rows are the m chains' planes copied
    into every block; the partner of int bit t is chain
    start + (t + 1) mod m, so the partners' rows are the planes rotated
    down by one chain and copied every m bits (_blocks).  The ``active``
    mask drops the pad bits and, for even m, the bits a >= m/2 of the last
    block, whose pairs d = m/2 lists twice.  Until then a batch takes k
    consecutive chains a = start .. start + k - 1, each in a block of
    ``size`` = m - 1 bits, one per partner after the batch's first chain:
    bit b - start - 1 of block j is the pair (start + j, b).  The partners'
    rows are the shifted planes copied into every block, the own rows of
    chain start + j fill block j above its bit j, and ``active`` drops the
    pairs with b <= a, the low j bits of block j
    (k(k - 1)/2 bits, all inside the batch).  k is as large as _BATCH_BITS
    allows, and at least 1; with k = 1 each chain is its own batch.  Only
    the last batch is cyclic: an own row there spans all m chains, where k
    consecutive chains more often leave a column all zero, which the kernel
    skips.  One elimination serves the whole batch (_sliced_insert over
    GF(2), _odd_kernel(p) over odd p): the batch chains' own rows enter
    first, then the partners' rows, level by level.  A bit-sliced counter
    per level adds up the rank g that level gains for each pair.  One split
    of the batch's active pairs by those counters, level by level, gives
    each distance vector's class of pairs: with ``rank`` the basis rank
    below level l, the pair's entry at level l is 2 (rank + g - dims[l]).
    Each class is counted with int.bit_count().
    """
    count_n = len(chains)
    width = (p - 1) * n
    insert = _sliced_insert if p == 2 else _odd_kernel(p)
    planes = _bit_planes(chains, dims, width)
    profile: Counter = Counter()
    start = 0
    while start < count_n - 1:
        left = count_n - start  # the chains not yet scanned
        half = left // 2
        if half * (left + 1) <= _BATCH_BITS:
            # every pair left, in one cyclic batch
            k = left
            chain_bits = (1 << left) - 1
            active = _blocks(chain_bits, left + 1, half)
            if not left & 1:
                # d = left/2 lists each pair twice: keep its bits a < d
                active ^= chain_bits >> half << (half - 1) * (left + 1) + half

            def own(mask: int) -> int:
                """The chains left in the chain mask, in every block."""
                return _blocks(mask >> start & chain_bits, left + 1, half)

            def partners(mask: int) -> int:
                """Int bit t holds chain start + (t + 1) mod left of the
                chain mask: the chains left rotated down by one, copied
                every left bits across the blocks."""
                x = mask >> start & chain_bits
                return _blocks(x >> 1 | (x & 1) << left - 1, left, half + 1)

        else:
            size = left - 1  # the partners after the batch's first chain
            k = min(max(1, _BATCH_BITS // size), size)
            diag = _blocks(1, size + 1, k)  # bit j of block j
            active = (_blocks(1, size, k) << size) - diag

            def own(mask: int) -> int:
                """All active bits of block j for each batch chain start + j
                in the chain mask: bit j of block j, filled upward."""
                y = _blocks(mask >> start & (1 << k) - 1, size, k) & diag
                return ((y << size) - y) & active

            def partners(mask: int) -> int:
                """The partners in the chain mask, in every block."""
                return _blocks(mask >> start + 1, size, k)

        has = [0] * n  # has[c]: pairs whose basis has a pivot row at c
        pivots = [[0] * width for _ in range(n)]  # pivots[c][i]: bit i of that row
        # (distance vector so far, rank so far, pairs) per class
        classes = [((), 0, active)]
        for slots, dim in zip(planes, dims):
            rows = [[own(x) for x in plane] for plane in slots]
            rows += [[partners(x) for x in plane] for plane in slots]
            gain = [0] * len(rows).bit_length()  # the bit planes of each pair's rank gain
            for row in rows:
                carry = insert(row, has, pivots, active)
                b = 0
                while carry:
                    gain[b], carry = gain[b] ^ carry, gain[b] & carry
                    b += 1
            classes = [
                (vec + (2 * (rank + g - dim),), rank + g, part)
                for vec, rank, cls in classes
                for g, part in _split_by_counter(cls, gain)
            ]
        for vec, _, part in classes:
            profile[vec] += part.bit_count()
        start += k
    return profile


def _sliced_insert(row: list[int], has: list[int], pivots: list[list[int]], active: int) -> int:
    """Insert one GF(2) row per pair into the pairs' bit-sliced echelon
    bases; return the mask of pairs for which it was independent.

    Each bit is one (chain, partner) pair of _sliced_profile, and
    ``row[c]`` is entry c of each pair's row.  Columns go in increasing
    order, as the pivot of a row is its first nonzero column: at column c
    the pairs still reducing whose row has bit c either clear it with their
    pivot row there (has[c] set) or take the row as that pivot.
    """
    n = len(row)
    placed = 0
    for c in range(n):
        x = row[c] & active
        if not x:
            continue
        pivot = pivots[c]
        elim = x & has[c]
        if elim:
            for c2 in range(c + 1, n):
                p = pivot[c2]
                if p:
                    row[c2] ^= p & elim
        new = x ^ elim
        if new:
            has[c] |= new
            for c2 in range(c + 1, n):
                pivot[c2] |= row[c2] & new
            placed |= new
            active ^= new
            if not active:
                break
    return placed


# the kernel's loop, which _odd_kernel writes out for one p: a line
# with {v} or {o} is repeated for each value v = 1 .. p - 1, and one with {y}
# for each pair x < y of them; {o}c is column c of plane v
_ODD_KERNEL = """\
def kernel(row, has, pivots, active):
    n = len(has)
    o{v} = ({v} - 1) * n
    placed = 0
    for c in range(n):
        x{v} = row[{o}c] & active
        x = {x_any}
        if not x:
            continue
        pivot = pivots[c]
        elim = x & has[c]
        if elim:
            s{v} = x{v} & elim
            for c2 in range(c + 1, n):
                q{v} = pivot[{o}c2]
                if {q_any}:
                    b{v} = {b}
                    a{v} = row[{o}c2]
                    m{x}_{y} = (a{x} | b{y}) ^ (a{y} | b{x})
                    d{v} = a{v} | b{v}
                    row[{o}c2] = {sum}
        new = x ^ elim
        if new:
            has[c] |= new
            t{v} = x{v} & new
            for c2 in range(c + 1, n):
                a{v} = row[{o}c2]
                pivot[{o}c2] |= {t}
            placed |= new
            active ^= new
            if not active:
                break
    return placed
"""


def _check_kernel_prime(p: int) -> None:
    """Refuse a pair scan over characteristic p above _PRIME_TABLE_LIMIT,
    the largest p whose kernel _odd_kernel writes out, before its kernel is
    written, with ResourceBudgetExceeded."""
    if p > _PRIME_TABLE_LIMIT:
        raise ResourceBudgetExceeded(
            f"a pair scan over characteristic p = {p} needs a kernel that grows as p^2; "
            f"p above {_PRIME_TABLE_LIMIT} is refused"
        )


@cache
def _odd_kernel(p: int):
    """The kernel that does _sliced_insert's job over GF(p), p an odd
    prime, written out once per p from _ODD_KERNEL with every plane a local
    variable (a loop over the planes ran 2-3 times slower on small batches).
    ``row[(v - 1) n + c]`` holds the (chain, partner) pairs whose entry at
    column c is v, one one-hot plane per nonzero v (Boothby and Bradshaw's
    bit slicing), and every stored pivot entry is 1.  At column c, pairs
    whose entry is v add -v times their pivot row there, and pairs that take
    the row as a new pivot scale it by v^-1; a scaling permutes planes.
    Plane w of a one-hot sum a + b is the XOR of a_x | b_y over the nonzero
    x, y with w in {x, y, x + y} and (x, y) != (w, w) (README.md derives
    it); at p = 3 it is Boothby and Bradshaw's GF(3) sum.
    """
    values = range(1, p)
    pairs = [{"x": x, "y": y} for x in values for y in values if x < y]
    once = {"x_any": " | ".join(f"x{v}" for v in values), "q_any": " | ".join(f"q{v}" for v in values)}
    # plane w of -v P is plane -w / v of P; plane w of v^-1 a is plane w v of
    # a; plane w of a + b XORs m{x}_{y} (a pair x < y and its swap) for the
    # pairs with w in {x, y, x + y}, and d{x} for 2 x = w
    planes = [
        {
            "v": w,
            "o": f"o{w} + " if w > 1 else "",
            "b": " | ".join(f"q{-w * pow(v, -1, p) % p} & s{v}" for v in values),
            "t": " | ".join(f"a{w * v % p} & t{v}" for v in values),
            "sum": " ^ ".join(
                [f"m{x}_{y}" for x in values for y in values if x < y and w in (x, y, (x + y) % p)]
                + [f"d{x}" for x in values if 2 * x % p == w]
            ),
        }
        for w in values
    ]
    lines = []
    for line in _ODD_KERNEL.splitlines():
        items = planes if "{v}" in line or "{o}" in line else pairs if "{y}" in line else [once]
        lines += [line.format(**item) for item in items]
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<GF({p}) sliced kernel>", "exec"), namespace)
    return namespace["kernel"]


def _split_by_counter(mask: int, counter: Sequence[int]) -> list[tuple[int, int]]:
    """(value, pairs) for every value the bit-sliced ``counter`` takes on the
    (chain, partner) pairs in ``mask``, one bit each; the sets of pairs are
    nonempty and disjoint."""
    parts = [(0, mask)] if mask else []
    for b, plane in enumerate(counter):
        split = []
        for value, part in parts:
            high = part & plane
            if high:
                split.append((value | 1 << b, high))
            if high != part:
                split.append((value, part ^ high))
        parts = split
    return parts


def _restrict_profile(profile: Counter, positions: Sequence[int]) -> Counter:
    """A distance profile projected onto some of its (0-based) levels.

    Exact for a restriction that keeps every chain distinct: each restricted
    pair is then exactly one pair of the profile.
    """
    out: Counter = Counter()
    for vec, n in profile.items():
        out[tuple(vec[p] for p in positions)] += n
    return out


def code_min_distance(code: SubspaceCode) -> int:
    """Minimum pairwise subspace distance, from the code's spectrum."""
    if len(code) < 2:
        raise TooFewWords("minimum distance needs at least two words")
    return min(code.spectrum())


def is_partial_spread(code: SubspaceCode) -> bool:
    """True iff all pairs of distinct words intersect trivially."""
    return is_equidistant_c(code, 0)


def is_equidistant_c(code: SubspaceCode, c: int) -> bool:
    """True iff every pairwise intersection has dimension exactly ``c``."""
    # d(U, V) = 2 dim U - 2 dim(U int V) for equal dimensions
    return all(d == 2 * (code.constant_dim - c) for d in code.spectrum())


def max_partial_spread_size(q: int, k: int, n: int) -> int:
    """Largest possible size of a partial k-spread of GF(q)^n, in closed form.

    Writing n = sk + h with 0 <= h < k, the formula
    (q^n - q^(k+h)) / (q^k - 1) + 1 is exact whenever k > (q^h - 1)/(q - 1);
    outside that range this raises HypothesisUnmet instead of guessing.
    """
    if q < 2 or k < 1 or n < k:
        raise ValueError(f"bad parameters q={q}, k={k}, n={n}")
    h = n % k
    threshold = (q**h - 1) // (q - 1)
    if k <= threshold:
        raise HypothesisUnmet(
            f"bound not applicable: k={k} <= (q^h - 1)/(q - 1) = {threshold}"
        )
    num = q**n - q**(k + h)
    den = q**k - 1
    if num % den:
        raise ArithmeticError("spread-size formula did not divide evenly")
    return num // den + 1


class GroupElementSeq(Frozen):
    """A cyclic matrix group given by a generator and its multiplicative order.

    Only the generator is stored; the orbit walk steps its images by it
    instead of forming its powers.
    """

    __slots__ = ("generator", "order")

    def __init__(self, generator: MatrixGF, order: int):
        self._set_fields(generator, order)
        # the checks stay a method of their own, called through self, since
        # benchmark/tracer.py wraps GroupElementSeq.__post_init__ by name
        self.__post_init__()

    def __post_init__(self):
        g = self.generator
        if g.nrows != g.ncols:
            raise AmbientMismatch("group generator must be square")
        if self.order < 1:
            raise ValueError("group order must be positive")
        if g**self.order != MatrixGF.identity(g.field, g.nrows):
            raise ValueError("generator**order is not the identity")

    @property
    def ambient(self) -> int:
        return self.generator.nrows


def orbit_code(u: Subspace, group: GroupElementSeq) -> SubspaceCode:
    """The set of distinct images of ``u`` under the cyclic group."""
    return _orbit_walk(u, group)[0]


def stabilizer_order(u: Subspace, group: GroupElementSeq) -> int:
    """Number of group elements fixing ``u``; divides the group order."""
    return _orbit_walk(u, group)[1]


def _orbit_walk(u: Subspace, group: GroupElementSeq) -> tuple[SubspaceCode, int]:
    """(orbit code, stabilizer order) of ``u`` from one walk over the group.

    The image is stepped, U_t = U_(t-1) g for t = 1..order, each step a
    product with the generator g that Subspace.transform canonicalizes
    afresh, so no power g^t is formed.  U_t is the image of ``u`` under
    g^t, and the images equal to ``u`` are the fixed points.  Any subspace
    walks here; the claim suite walks its hyperplanes on their normals
    (_normal_walk), and this walk is the tests' oracle for that one."""
    if group.ambient != u.ambient:
        raise AmbientMismatch(
            f"{group.ambient}x{group.ambient} group acting on ambient {u.ambient}"
        )
    g = group.generator
    images = []
    w = u
    for _ in range(group.order):
        w = w.transform(g)
        images.append(w)
    return SubspaceCode(u.ambient, images), images.count(u)


def _hyperplane_normal(rows: tuple, n: int, field: FieldSpec):
    """The normal c of the hyperplane {x : x.c = 0} of field^n spanned by
    ``rows``, scaled so that its last nonzero entry is 1: a bitmask over
    GF(2), column 0 the most significant bit, and a code tuple otherwise.

    Each row has pivot 1 and is 0 at the pivots of the rows before it (a
    flag's _rows, or RREF key rows).  With j the one column that holds no
    pivot, c_j = 1, and from the last row R to the first, c_p = -(R.c) for
    R's pivot p, R.c reading only entries already solved.  The rows with
    pivots after j span every unit vector after j, so c_j is the last
    nonzero entry."""
    if len(rows) != n - 1:
        raise DimMismatch(f"a dim-{len(rows)} subspace of {field}^{n} is not a hyperplane")
    if field.q == 2:
        c = (1 << n) - 1
        for row in rows:
            c ^= 1 << row.bit_length() - 1
        for row in reversed(rows):
            if (row & c).bit_count() & 1:
                c |= 1 << row.bit_length() - 1
        return c
    add, mul, neg, _ = field.tables()
    pivots = [row.index(1) for row in rows]
    # the n - 1 pivots are distinct columns of 0..n-1: j is the one left out
    j = n * (n - 1) // 2 - sum(pivots)
    c = [0] * n
    c[j] = 1
    for p, row in zip(reversed(pivots), reversed(rows)):
        acc = 0
        for x, y in zip(row, c):
            if x and y:
                acc = add[acc][mul[x][y]]
        c[p] = neg[acc]
    return tuple(c)


def _normal_walk(c, g: MatrixGF, steps: int) -> list:
    """[c_1, ..., c_steps], c_t = g^-1 c_(t-1) scaled so that its last
    nonzero entry is 1, from c_0 = ``c`` in the form _hyperplane_normal
    gives.

    If U = {x : x.c = 0}, then U g = {x g : x.c = 0} = {y : y.(g^-1 c) = 0},
    so c_t is the normal of U g^t for every t: the walk steps with g^-1,
    not g, and assumes nothing about the order of g.  g^-1 is the right
    half of the RREF of [g | I]; a singular g raises Singular.  Each step
    is one sparse matrix-vector product: over GF(2) one parity per row of
    g^-1, otherwise a sum over the row's nonzero entries."""
    field, n = g.field, g.nrows
    eye = MatrixGF.identity(field, n)
    reduced = block(field, [[g, eye]]).rref()[0]._rows
    if field.q == 2:
        left, inverse = [row >> n for row in reduced], [row & (1 << n) - 1 for row in reduced]
    else:
        left, inverse = [row[:n] for row in reduced], [row[n:] for row in reduced]
    if left != list(eye._rows):
        raise Singular("the group generator is singular")
    walk = []
    if field.q == 2:
        for _ in range(steps):
            x = 0
            for row in inverse:
                x = x << 1 | (row & c).bit_count() & 1
            c = x
            walk.append(c)
        return walk
    add, mul, _, inv = field.tables()
    terms = [[(j, mul[v]) for j, v in enumerate(row) if v] for row in inverse]
    for _ in range(steps):
        x = []
        for row in terms:
            acc = 0
            for j, times in row:
                if c[j]:
                    acc = add[acc][times[c[j]]]
            x.append(acc)
        last = next(v for v in reversed(x) if v)
        c = tuple(x) if last == 1 else tuple(map(mul[inv[last]].__getitem__, x))
        walk.append(c)
    return walk
