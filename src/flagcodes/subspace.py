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
from dataclasses import dataclass
from operator import attrgetter

from .errors import (
    AmbientMismatch,
    DimMismatch,
    HypothesisUnmet,
    NotConstantDim,
    Singular,
    TooFewWords,
    ZeroRank,
)
from .field import FieldSpec
from .matgf import MatrixGF, _expect_end, _reduce_into, _rref_rows, block, matrix_to_text, read_matrix

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

# the sort key of a code's words and flags
_KEY = attrgetter("_key")


class Subspace:
    """A nonzero subspace of GF(q)^n, canonicalized by its RREF generator."""

    __slots__ = ("field", "ambient", "dim", "_basis", "_key", "_canon")

    def __init__(self, field: FieldSpec, ambient: int, rows: tuple):
        # rows must be the RREF generator's rows as matrices over field
        # store them (bitmasks over GF(2), code tuples otherwise); the pivot
        # basis is made from them on first read (_piv).  Use subspace_of()
        # to canonicalize a matrix.
        self.field = field
        self.ambient = ambient
        self.dim = len(rows)
        self._basis = None
        self._key = (self.dim, rows)
        self._canon = None

    @property
    def _piv(self) -> dict:
        """The fully reduced basis keyed as in _reduce_into, in pivot order,
        made from the key rows on first read (over GF(2) keyed by their
        highest set bit; otherwise keyed by their leading column, whose
        entry is 1)."""
        piv = self._basis
        if piv is None:
            rows = self._key[1]
            if self.field.q == 2:
                piv = {1 << b.bit_length() - 1: b for b in rows}
            else:
                piv = {row.index(1): row for row in rows}
            self._basis = piv
        return piv

    @property
    def canon(self) -> MatrixGF:
        """The RREF generator as a matrix, made on first read and cached:
        only serialization and transform() read it."""
        if self._canon is None:
            self._canon = MatrixGF._wrap(self.field, self.ambient, self._key[1])
        return self._canon

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
    basis = next(_prefix_bases(a._rows, (a.nrows,), a.field))
    if not basis:
        raise ZeroRank("the zero matrix spans no subspace")
    return Subspace(a.field, a.ncols, _rref_rows(basis))


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient != v.ambient or u.field != v.field:
        raise AmbientMismatch(
            f"{u.field}^{u.ambient} subspace vs {v.field}^{v.ambient} subspace"
        )


def _prefix_bases(rows: Sequence, lengths: Iterable[int], field: FieldSpec) -> Iterator[dict]:
    """The fully reduced basis of the first t of ``rows`` for each t of the
    nondecreasing ``lengths``, keyed as in _reduce_into.

    The prefixes are nested, so one basis takes the rows one at a time and
    is yielded at each requested length as it stands (the same dict, grown
    in place): no prefix is reduced twice.  Rows are as matrices over
    ``field`` store them.
    """
    basis: dict = {}
    done = 0
    for t in lengths:
        for row in rows[done:t]:
            _reduce_into(basis, row, field)
        done = t
        yield basis


def _stacked_rank(u: Subspace, v: Subspace) -> int:
    """rk of the stacked canonical generators, seeded with u's pivots."""
    basis = dict(u._piv)
    field = u.field
    return u.dim + sum(_reduce_into(basis, row, field) for row in v._piv.values())


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U int V); always an even count for equal dimensions."""
    _check_ambient(u, v)
    return 2 * _stacked_rank(u, v) - u.dim - v.dim


def intersection_dim(u: Subspace, v: Subspace) -> int:
    _check_ambient(u, v)
    return u.dim + v.dim - _stacked_rank(u, v)


class SubspaceCode:
    """A set of subspaces of a common ambient space over one field, stored
    sorted by key and deduped: of words with equal keys the last one given
    is kept."""

    __slots__ = ("ambient", "words", "constant_dim", "_spectrum", "_parent")

    def __init__(self, ambient: int, words: Iterable[Subspace]):
        seen: dict[tuple, Subspace] = {}
        field = None
        for w in words:
            if w.ambient != ambient:
                raise AmbientMismatch(
                    f"ambient-{w.ambient} word in an ambient-{ambient} code"
                )
            # the key is field-free, so words over two fields could merge
            if field is None:
                field = w.field
            elif w.field != field:
                raise AmbientMismatch(
                    f"word over {w.field} (modulus {w.field.modulus}) in a code "
                    f"over {field} (modulus {field.modulus})"
                )
            seen[w.key] = w
        ordered = tuple(sorted(seen.values(), key=_KEY))
        dims = {w.dim for w in ordered}
        self.ambient = ambient
        self.words = ordered
        self.constant_dim = dims.pop() if len(dims) == 1 else None
        self._spectrum = None
        # (flag code, (position,)) when this code is an injective projection
        self._parent = None

    def spectrum(self) -> Counter:
        """Distance -> number of unordered word pairs at that distance.

        Computed on first use and cached; the same Counter is returned on
        every later call.  An injective projection of a flag code reads the
        flag code's profile, where each of its pairs is exactly one pair;
        any other code makes its own exhaustive scan.
        """
        if self._spectrum is None:
            if self._parent is not None:
                parent, positions = self._parent
                profile = _restrict_profile(parent.distance_profile(), positions)
            elif self.words:
                levels = [[(w.key[1], w.dim)] for w in self.words]
                profile = _distance_profile(levels, self.words[0].field, self.ambient)
            else:
                profile = Counter()
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
        dim = self.constant_dim if self.constant_dim is not None else "mixed"
        return f"SubspaceCode({len(self.words)} words, dim {dim}, ambient {self.ambient})"

    def dump(self) -> str:
        """Serialize as a ``n k q |C|`` header plus one canonical matrix per word."""
        if self.constant_dim is None:
            raise NotConstantDim("serialization needs a constant dimension code")
        field = self.words[0].field if self.words else None
        q = field.q if field else 0
        lines = [f"{self.ambient} {self.constant_dim} {q} {len(self.words)}"]
        for w in self.words:
            lines.append(matrix_to_text(w.canon))
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
        if count < 0:
            raise ValueError(f"the header declares {count} words")
        words = []
        for _ in range(count):
            m = read_matrix(lines)
            w = subspace_of(m)
            if w.ambient != n or w.dim != k:
                raise ValueError("word does not match the code header")
            if w.field.q != q:
                raise ValueError(f"header says q = {q}, but a word is over {w.field}")
            words.append(w)
        _expect_end(lines, f"the {count} words the header declares")
        code = cls(n, words)
        if len(code) != count:
            raise ValueError(f"the header declares {count} words, but {len(code)} are distinct")
        return code


def _distance_profile(levels: Sequence[Sequence[tuple]], field: FieldSpec, n: int) -> Counter:
    """Per-level distance vectors over every unordered pair of nested chains
    in GF(q)^n, q = ``field.q``.

    ``levels[m][l]`` is (rows, dim): the rows chain m adds at level l, as
    matrices over ``field`` store them (bitmasks over GF(2), code tuples
    otherwise), and the dim they span together with the rows of the levels
    below.  All chains have the same number of levels: a flag gives the
    basis rows it recorded at each level (Flag._levels), and a word of a
    SubspaceCode its key rows as its single level.  The result maps
    (d(U_1, V_1), ..., d(U_r, V_r)) to its number of pairs.  A pair needs
    one elimination basis: level i inserts the rows that U_i and V_i add to
    U_(i-1) and V_(i-1), after which the basis rank is rk[U_i; V_i].  Over
    GF(2^e) and GF(3^e) one bit-sliced elimination over the prime field
    serves a batch of consecutive chains and all their later partners at
    once, each pair one bit (_prime_field_profile, _sliced_profile).
    Fields of characteristic 5 and up run one basis per pair: both chains'
    level rows go into a fully reduced basis through _reduce_into, the step
    that also builds every Subspace, and the count of independent rows is
    the rank.  This is the package's only scan of a code's pairs.
    """
    if not levels:
        return Counter()
    if field.p <= 3:
        return _prime_field_profile(levels, field, n)
    profile: Counter = Counter()
    for i, a in enumerate(levels):
        for b in levels[i + 1 :]:
            basis: dict = {}
            rank = 0
            vec = []
            for (rows_a, dim_a), (rows_b, dim_b) in zip(a, b):
                for row in rows_a:
                    rank += _reduce_into(basis, row, field)
                for row in rows_b:
                    rank += _reduce_into(basis, row, field)
                vec.append(2 * rank - dim_a - dim_b)
            profile[tuple(vec)] += 1
    return profile


def _prime_field_profile(levels: list, field: FieldSpec, n: int) -> Counter:
    """_distance_profile over GF(p^e), p = 2 or 3, bit-sliced over GF(p).

    ``levels`` is as in _sliced_profile, with rows as matrices over
    ``field`` store them.  A row r over GF(q) becomes the e rows r, x r, ..., x^(e-1) r over
    GF(p), entry j written as its e base-p digits in columns je .. je+e-1.
    Their GF(p)-span is, as a set, the GF(q)-span of the rows they came
    from, so every rank over GF(p) is e times the rank over GF(q): the scan
    runs on en columns with every dim scaled by e, and each entry of a
    distance vector it returns is e times the entry over GF(q).
    """
    p, e = field.p, field.e
    if field.q == 2:
        # GF(2) rows are already bitmasks
        return _sliced_profile(levels, n, 2)
    cols = e * n
    width = (p - 1) * cols
    # bits[v]: element code v as entry 0 of a GF(p) row, its digit d at
    # column j being plane column (d - 1) cols + j (_sliced_profile); entry
    # j' of the row is that shifted right by j' e
    bits = []
    for v in range(field.q):
        b = 0
        for j, d in enumerate(field._digits(v)):
            if d:
                b |= 1 << (width - 1 - ((d - 1) * cols + j))
        bits.append(b)
    mul = field.mul
    x = p  # the code of the element x of GF(p^e)
    restricted = []
    for chain in levels:
        out = []
        for rows, dim in chain:
            prime_rows = []
            for row in rows:
                for power in range(e):
                    if power:
                        row = [mul(x, v) for v in row]
                    b = 0
                    for j, v in enumerate(row):
                        if v:
                            b |= bits[v] >> (j * e)
                    prime_rows.append(b)
            out.append((prime_rows, e * dim))
        restricted.append(out)
    profile = _sliced_profile(restricted, cols, p)
    if e == 1:
        return profile
    scaled: Counter = Counter()
    for vec, count in profile.items():
        if any(d % e for d in vec):
            raise ArithmeticError(f"GF({p}) distances {vec} are not {e} times distances over {field}")
        scaled[tuple(d // e for d in vec)] = count
    return scaled


# the bits of one batch of _sliced_profile: how many (chain, partner) pairs
# one elimination serves, with each block rounded up to whole bytes
_BATCH_BITS = 1 << 16


def _sliced_profile(levels: list, n: int, p: int) -> Counter:
    """The distance profile of chains of rows over GF(p), p = 2 or 3, on n
    columns, bit-sliced across pairs of chains.

    ``levels[m][l]`` is (the rows chain m adds at level l, its dim there).
    A row is an int over (p - 1) n plane columns, column 0 its most
    significant bit, with plane column (v - 1) n + c set when its entry at
    column c is v: over GF(2) its bitmask, over GF(3) a ones plane and a
    twos plane.  Chain m is bit m of every plane: ``planes[l][t][i]`` holds
    plane column i of chain m's t-th level-l row, for all chains at once
    (a chain with fewer rows there has a zero row in that slot, which adds
    no rank).

    One bit of the ints the kernel works on is one pair (a, b), a < b.  A
    batch of k consecutive chains a = start .. start + k - 1 puts each in a
    block of whole bytes, chain start + j in block j, whose bit b - start - 1
    is partner b: every block holds the partners after the batch's first
    chain, so the partners' rows are the shifted planes repeated k times,
    and the ``active`` mask drops the pairs with b <= a (k(k - 1)/2 bits,
    all inside the batch) and the bits that round a block up to bytes.  k
    is as large as _BATCH_BITS allows, and at least 1; with k = 1 each
    chain is its own batch.  One elimination serves the whole batch
    (_sliced_insert over GF(2), _sliced_insert3 over GF(3)): the batch
    chains' own rows enter as all-ones or all-zeros blocks, then the
    partners' rows, level by level.  A bit-sliced counter per level adds up
    the rank that level gains for each pair.  Splitting the pairs by those
    counters (and by both chains' dims, for codes of mixed dimension) gives
    each distance vector's class of pairs, counted with int.bit_count().
    """
    count_n = len(levels)
    depth = len(levels[0])
    width = (p - 1) * n
    insert = _sliced_insert if p == 2 else _sliced_insert3
    planes = [
        [[0] * width for _ in range(max(len(chain[l][0]) for chain in levels))]
        for l in range(depth)
    ]
    by_dims: dict[tuple[int, ...], int] = {}  # dim vector -> mask of chains
    for m, chain in enumerate(levels):
        bit = 1 << m
        for (rows, _), slots in zip(chain, planes):
            for row, plane in zip(rows, slots):
                while row:
                    low = row & -row
                    plane[width - low.bit_length()] |= bit
                    row ^= low
        dims = tuple(dim for _, dim in chain)
        by_dims[dims] = by_dims.get(dims, 0) | bit
    profile: Counter = Counter()
    start = 0
    while start < count_n - 1:
        size = count_n - start - 1  # the partners after the batch's first chain
        nb = (size + 7) // 8  # bytes per block
        k = min(max(1, _BATCH_BITS // (8 * nb)), size)
        fill = str.maketrans({"0": "\0" * nb, "1": "\xff" * nb})

        def own(mask: int) -> int:
            """All-ones blocks for the batch chains in the chain mask."""
            mask = mask >> start & (1 << k) - 1
            if not mask:
                return 0
            # format writes block j as character k - 1 - j: read big-endian
            bits = format(mask, f"0{k}b").translate(fill)
            return int.from_bytes(bits.encode("latin-1"), "big")

        def partners(mask: int) -> int:
            """The partners in the chain mask, in every block."""
            mask >>= start + 1
            if not mask:
                return 0
            return int.from_bytes(mask.to_bytes(nb, "little") * k, "little")

        active = int.from_bytes(
            b"".join(((1 << size) - (1 << j)).to_bytes(nb, "little") for j in range(k)), "little"
        )
        has = [0] * n  # has[c]: pairs whose basis has a pivot row at c
        pivots = [[0] * width for _ in range(n)]  # pivots[c][i]: bit i of that row
        gains = []  # per level, the bit planes of each pair's rank gain
        for slots in planes:
            rows = [[own(x) for x in plane] for plane in slots]
            rows += [[partners(x) for x in plane] for plane in slots]
            gain = [0] * len(rows).bit_length()
            for row in rows:
                carry = insert(row, has, pivots, active)
                b = 0
                while carry:
                    gain[b], carry = gain[b] ^ carry, gain[b] & carry
                    b += 1
            gains.append(gain)
        for dims_a, mask_a in by_dims.items():
            pairs_a = own(mask_a) & active
            for dims_m, mask_m in by_dims.items():
                # (distance vector so far, rank so far, pairs) per class
                classes = [((), 0, pairs_a & partners(mask_m))]
                for gain, dim_a, dim_m in zip(gains, dims_a, dims_m):
                    classes = [
                        (vec + (2 * (rank + g) - dim_a - dim_m,), rank + g, part)
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


def _sliced_insert3(row: list[int], has: list[int], pivots: list[list[int]], active: int) -> int:
    """_sliced_insert over GF(3): ``row[c]`` and ``row[n + c]`` are the
    (chain, partner) pairs whose entry at column c is 1 and 2 (Boothby and
    Bradshaw's two-plane encoding), and every stored pivot entry is 1.

    At column c, pairs with a pivot row there whose entry is 1 subtract
    that row and those whose entry is 2 add it.  A GF(3) sum a + b of two
    plane pairs is t = (a1 | b2) ^ (a2 | b1), then ones (a2 | b2) ^ t and
    twos (a1 | b1) ^ t.  A pair that takes the row as a new pivot with
    entry 2 first negates it, which swaps its two planes.
    """
    n = len(has)
    placed = 0
    for c in range(n):
        ones = row[c] & active
        twos = row[n + c] & active
        x = ones | twos
        if not x:
            continue
        pivot = pivots[c]
        elim = x & has[c]
        if elim:
            sub = ones & elim
            add = twos & elim
            for c2 in range(c + 1, n):
                p1 = pivot[c2]
                p2 = pivot[n + c2]
                if p1 | p2:
                    # b = pivot row where adding, its negation where subtracting
                    b1 = (p1 & add) | (p2 & sub)
                    b2 = (p2 & add) | (p1 & sub)
                    a1 = row[c2]
                    a2 = row[n + c2]
                    t = (a1 | b2) ^ (a2 | b1)
                    row[c2] = (a2 | b2) ^ t
                    row[n + c2] = (a1 | b1) ^ t
        new = x ^ elim
        if new:
            has[c] |= new
            neg = twos & new
            for c2 in range(c + 1, n):
                a1 = row[c2]
                a2 = row[n + c2]
                if neg:
                    swap = (a1 ^ a2) & neg
                    a1 ^= swap
                    a2 ^= swap
                pivot[c2] |= a1 & new
                pivot[n + c2] |= a2 & new
            placed |= new
            active ^= new
            if not active:
                break
    return placed


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
    if code.constant_dim is None:
        raise NotConstantDim("partial spreads are constant dimension codes")
    return is_equidistant_c(code, 0)


def is_equidistant_c(code: SubspaceCode, c: int) -> bool:
    """True iff every pairwise intersection has dimension exactly ``c``."""
    if code.constant_dim is None:
        raise NotConstantDim("equidistant codes are constant dimension codes")
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


@dataclass(frozen=True)
class GroupElementSeq:
    """A cyclic matrix group given by a generator and its multiplicative order.

    Only the generator is stored; the orbit walk steps its images by it
    instead of forming its powers.
    """

    generator: MatrixGF
    order: int

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


def _hyperplane_normal(u: Subspace):
    """The normal c of the hyperplane ``u`` = {x : x.c = 0}, scaled so that
    its last nonzero entry is 1: a bitmask over GF(2), column 0 the most
    significant bit, and a code tuple otherwise.

    Read off the RREF key in closed form: with j the one column that holds
    no pivot, c_j = 1 and c_(p_i) = -R_i[j] for the pivot column p_i of
    each key row R_i.  Then R_i.c = R_i[j] - R_i[j] = 0.  A row whose pivot
    lies after j is 0 at j, so c_j is the last nonzero entry."""
    n = u.ambient
    if u.dim != n - 1:
        raise DimMismatch(f"a dim-{u.dim} subspace of {u.field}^{n} is not a hyperplane")
    rows = u._key[1]
    if u.field.q == 2:
        free = (1 << n) - 1
        for row in rows:
            free ^= 1 << row.bit_length() - 1
        c = free
        for row in rows:
            if row & free:
                c |= 1 << row.bit_length() - 1
        return c
    neg = u.field.neg
    pivots = [row.index(1) for row in rows]
    # the n - 1 pivots are distinct columns of 0..n-1: j is the one left out
    j = n * (n - 1) // 2 - sum(pivots)
    c = [0] * n
    c[j] = 1
    for p, row in zip(pivots, rows):
        c[p] = neg(row[j])
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
    add, mul, inv = field.add, field.mul, field.inv
    terms = [[(j, v) for j, v in enumerate(row) if v] for row in inverse]
    for _ in range(steps):
        x = []
        for row in terms:
            acc = 0
            for j, v in row:
                if c[j]:
                    acc = add(acc, mul(v, c[j]))
            x.append(acc)
        last = next(v for v in reversed(x) if v)
        if last != 1:
            scale = inv(last)
            x = [mul(scale, v) for v in x]
        c = tuple(x)
        walk.append(c)
    return walk
