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

from .errors import (
    AmbientMismatch,
    HypothesisUnmet,
    NotConstantDim,
    TooFewWords,
    ZeroRank,
)
from .field import FieldSpec
from .matgf import MatrixGF, _expect_end, _reduce_into, _unpack, matrix_to_text, read_matrix

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

    __slots__ = ("field", "ambient", "dim", "_piv", "_key", "_canon")

    def __init__(self, field: FieldSpec, ambient: int, piv: dict, rows: tuple):
        # piv must be a fully reduced basis in pivot order and rows its rows
        # as code tuples, which is then the RREF generator; use subspace_of()
        self.field = field
        self.ambient = ambient
        self.dim = len(rows)
        self._piv = piv
        self._key = (self.dim, rows)
        self._canon = None

    @property
    def canon(self) -> MatrixGF:
        """The RREF generator as a matrix, made on first read and cached:
        only serialization and transform() read it."""
        if self._canon is None:
            # over GF(2) piv holds the rows as bitmasks, the canon's stored form
            bits = tuple(self._piv.values()) if self.field.q == 2 else None
            self._canon = MatrixGF._wrap(self.field, self.ambient, self._key[1], bits)
        return self._canon

    @property
    def key(self) -> tuple:
        """Deterministic sort key: dimension, then canonical entries."""
        return self._key

    def contains(self, other: Subspace) -> bool:
        """True iff ``other`` is a subspace of this space: every row of its
        basis reduces to zero against this space's basis, which is read in
        place, not copied."""
        _check_ambient(self, other)
        return _spans(self._piv, other._piv.values(), self.field)

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
    rank, space = next(_prefix_spaces(a, (a.nrows,)))
    if rank == 0:
        raise ZeroRank("the zero matrix spans no subspace")
    return space


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient != v.ambient or u.field != v.field:
        raise AmbientMismatch(
            f"{u.field}^{u.ambient} subspace vs {v.field}^{v.ambient} subspace"
        )


def _spans(piv: dict, rows: Iterable, field) -> bool:
    """True iff every row of ``rows`` reduces to zero against the reduced
    basis ``piv``, keyed as in _reduce_into.

    A read-only walk kept apart from _reduce_into: it stops at the first row
    with a nonzero remainder, and it neither copies ``piv`` nor clears a
    pivot column from its rows.  Subspace.contains runs it, and so does
    Flag's nesting check on every adjacent pair of parts of each flag built
    from parts.
    """
    if field.q == 2:
        for row in rows:
            while row:
                base = piv.get(row & -row)
                if base is None:
                    return False
                row ^= base
        return True
    sub, mul = field.sub, field.mul
    for row in rows:
        for c in range(len(row)):
            x = row[c]
            if x:
                base = piv.get(c)
                if base is None:
                    return False
                row = [sub(a, mul(x, b)) for a, b in zip(row, base)]
    return True


def _prefix_spaces(w: MatrixGF, lengths: Iterable[int]) -> Iterator[tuple[int, Subspace | None]]:
    """(rank, row space) of the first t rows of ``w`` for each t of the
    nondecreasing ``lengths``; the space is None when the rank is 0.

    The prefixes are nested, so one fully reduced basis takes the rows one
    at a time and each requested prefix is read off it: no prefix is reduced
    twice.  Over GF(2) the basis takes w's stored bitmasks, and a basis row
    is unpacked for the space's key through the cache of matgf._unpack, so
    the tuple is shared by every space that holds that row.
    """
    field, ncols = w.field, w.ncols
    gf2 = field.q == 2
    rows = w._bits if gf2 else w._rows
    basis: dict = {}
    done = 0
    for t in lengths:
        for row in rows[done:t]:
            _reduce_into(basis, row, field)
        done = t
        if not basis:
            yield 0, None
            continue
        piv = dict(sorted(basis.items()))
        if gf2:
            canon = tuple([_unpack(b, ncols) for b in piv.values()])
        else:
            canon = tuple(piv.values())
        yield len(piv), Subspace(field, ncols, piv, canon)


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
    sorted and deduped."""

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
        ordered = tuple(seen[k] for k in sorted(seen))
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
            if self._parent is None:
                profile = _distance_profile([(w,) for w in self.words])
            else:
                parent, positions = self._parent
                profile = _restrict_profile(parent.distance_profile(), positions)
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
        return cls(n, words)


def _distance_profile(chains: Sequence[Sequence[Subspace]]) -> Counter:
    """Per-level distance vectors over every unordered pair of nested chains.

    Each chain is a sequence of nested subspaces (one word of a subspace
    code, or the parts of a flag); all chains have the same length.  The
    result maps (d(U_1, V_1), ..., d(U_r, V_r)) to its number of pairs.
    Because the parts are nested, a pair needs one elimination basis: level
    i inserts the rows that U_i and V_i add to U_(i-1) and V_(i-1), after
    which the basis rank is rk[U_i; V_i].  Over GF(2^e) and GF(3^e) one
    bit-sliced elimination per chain, over the prime field, serves all its
    later partners at once (_prime_field_profile).  Fields of
    characteristic 5 and up run one basis per pair: both chains' level rows
    go into a fully reduced basis through _reduce_into, the step that also
    builds every Subspace, and the count of independent rows is the rank.
    This is the package's only scan of a code's pairs.
    """
    if not chains:
        return Counter()
    first = chains[0][0]
    for chain in chains:
        # the parts of one chain share a field, as Flag checks their nesting
        _check_ambient(first, chain[0])
    field = first.field
    # nested parts have nested pivot sets, so the rows a level adds are the
    # rows of its basis whose pivot is not one of the level below
    levels = []
    for chain in chains:
        prev: dict = {}
        rows = []
        for part in chain:
            rows.append(([row for c, row in part._piv.items() if c not in prev], part.dim))
            prev = part._piv
        levels.append(rows)
    if field.p <= 3:
        return _prime_field_profile(levels, field, first.ambient)
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

    ``levels`` is as in _sliced_profile, with rows as the reduced bases hold
    them.  A row r over GF(q) becomes the e rows r, x r, ..., x^(e-1) r over
    GF(p), entry j written as its e base-p digits in columns je .. je+e-1.
    Their GF(p)-span is, as a set, the GF(q)-span of the rows they came
    from, so every rank over GF(p) is e times the rank over GF(q): the scan
    runs on en columns with every dim scaled by e, and each entry of a
    distance vector it returns is e times the entry over GF(q).
    """
    p, e = field.p, field.e
    if field.q == 2:
        # the reduced bases already hold GF(2) rows as bitmasks
        return _sliced_profile(levels, n, 2)
    cols = e * n
    # bits[v]: element code v as entry 0 of a GF(p) row, its digit d at
    # column j being bit (d - 1) cols + j
    bits = []
    for v in range(field.q):
        b = 0
        for j, d in enumerate(field._digits(v)):
            if d:
                b |= 1 << ((d - 1) * cols + j)
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
                            b |= bits[v] << (j * e)
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


def _sliced_profile(levels: list, n: int, p: int) -> Counter:
    """The distance profile of chains of rows over GF(p), p = 2 or 3, on n
    columns, bit-sliced across partners.

    ``levels[m][l]`` is (the rows chain m adds at level l, its dim there).
    A row is an int with bit (v - 1) n + c set when its entry at column c
    is v: over GF(2) its bitmask, over GF(3) a ones plane and a twos plane.
    Chain m is bit m of every plane: ``planes[l][j][i]`` holds bit i of
    chain m's j-th level-l row, for all chains at once (a chain with fewer
    rows there has a zero row in that slot, which adds no rank).  For each
    chain a, the planes shifted past a put a's later partners in the low
    bits, and one elimination runs for all of them (_sliced_insert over
    GF(2), _sliced_insert3 over GF(3)): a's own rows enter as all-ones or
    all-zeros planes, then the partners' rows, level by level.  A
    bit-sliced counter per level adds up the rank that level gains for each
    partner.  Splitting the partner mask by those counters (and by the
    partners' dims, for codes of mixed dimension) gives each distance
    vector's class of partners, counted with int.bit_count().
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
                    plane[low.bit_length() - 1] |= bit
                    row ^= low
        dims = tuple(dim for _, dim in chain)
        by_dims[dims] = by_dims.get(dims, 0) | bit
    bits = range(width)
    profile: Counter = Counter()
    for a, chain in enumerate(levels[:-1]):
        shift = a + 1
        partners = (1 << (count_n - shift)) - 1
        has = [0] * n  # has[c]: partners whose basis has a pivot row at c
        pivots = [[0] * width for _ in range(n)]  # pivots[c][i]: bit i of that row
        gains = []  # per level, the bit planes of each partner's rank gain
        for (rows_a, _), slots in zip(chain, planes):
            rows = [[partners if row >> i & 1 else 0 for i in bits] for row in rows_a]
            rows += [[p >> shift for p in plane] for plane in slots]
            gain = [0] * len(rows).bit_length()
            for row in rows:
                carry = insert(row, has, pivots, partners)
                b = 0
                while carry:
                    gain[b], carry = gain[b] ^ carry, gain[b] & carry
                    b += 1
            gains.append(gain)
        dims_a = [dim for _, dim in chain]
        for dims_m, mask in by_dims.items():
            # (distance vector so far, rank so far, partners) per class
            classes = [((), 0, mask >> shift)]
            for gain, dim_a, dim_m in zip(gains, dims_a, dims_m):
                classes = [
                    (vec + (2 * (rank + g) - dim_a - dim_m,), rank + g, part)
                    for vec, rank, cls in classes
                    for g, part in _split_by_counter(cls, gain)
                ]
            for vec, _, part in classes:
                profile[vec] += part.bit_count()
    return profile


def _sliced_insert(row: list[int], has: list[int], pivots: list[list[int]], active: int) -> int:
    """Insert one GF(2) row per partner into the partners' bit-sliced
    echelon bases; return the mask of partners for which it was independent.

    ``row[c]`` is bit c of each partner's row.  Columns go in increasing
    order, as the pivot of a row is its lowest set bit: at column c the
    partners still reducing whose row has bit c either clear it with their
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
    partners whose entry at column c is 1 and 2 (Boothby and Bradshaw's
    two-plane encoding), and every stored pivot entry is 1.

    At column c, partners with a pivot row there whose entry is 1 subtract
    that row and those whose entry is 2 add it.  A GF(3) sum a + b of two
    plane pairs is t = (a1 | b2) ^ (a2 | b1), then ones (a2 | b2) ^ t and
    twos (a1 | b1) ^ t.  A partner that takes the row as a new pivot with
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
    """(value, partners) for every value the bit-sliced ``counter`` takes on
    the partners in ``mask``; the partner sets are nonempty and disjoint."""
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

    Elements are materialized lazily as successive powers; the full group is
    never stored.
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

    def powers(self) -> Iterator[tuple[int, MatrixGF]]:
        """Yield (t, generator**t) for t = 1..order."""
        g = self.generator
        power = g
        yield 1, power
        for t in range(2, self.order + 1):
            power = power @ g
            yield t, power


def orbit_code(u: Subspace, group: GroupElementSeq) -> SubspaceCode:
    """The set of distinct images of ``u`` under the cyclic group."""
    return _orbit_walk(u, group)[0]


def stabilizer_order(u: Subspace, group: GroupElementSeq) -> int:
    """Number of group elements fixing ``u``; divides the group order."""
    return _orbit_walk(u, group)[1]


def _orbit_walk(u: Subspace, group: GroupElementSeq) -> tuple[SubspaceCode, int]:
    """(orbit code, stabilizer order) of ``u`` from one walk over the group:
    every element transforms ``u`` once, and the images equal to ``u`` are
    the fixed points."""
    if group.ambient != u.ambient:
        raise AmbientMismatch(
            f"{group.ambient}x{group.ambient} group acting on ambient {u.ambient}"
        )
    images = [u.transform(g) for _, g in group.powers()]
    return SubspaceCode(u.ambient, images), images.count(u)
