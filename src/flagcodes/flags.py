"""Flags, flag codes, and the flag distance.

A flag of type (t_1, ..., t_r) is a strictly nested chain of subspaces with
those dimensions; the flag distance is the componentwise sum of subspace
distances, bounded above by twice the sum of min(t_i, n - t_i).  This module
also carries the type-vector machinery: the pivotal indices a and b around
n/2, subsequence restriction, projected codes, cardinality consistency, the
optimum / quasi-optimum classification, and the additive split of the maximum
distance.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate

from .errors import (
    AmbientMismatch,
    EllOutOfRange,
    FlagCodesError,
    Frozen,
    IndexOutOfRange,
    NotASubsequence,
    RankDeficientPrefix,
    TheoremViolated,
    TooFewFlags,
    TooFewRows,
    TypeMismatch,
)
from .field import DEFAULT_FACTOR_BUDGET, _shown, factorize
from .matgf import (
    MatrixGF,
    _back_substitute,
    _GF2Lanes,
    _GFqSlices,
    _echelon,
    _expect_end,
    _leveled,
    _matrix_lines,
    _NoMatrix,
    _read_matrix,
    _RowTexts,
)
from .subspace import (
    Subspace,
    SubspaceCode,
    _distance_profile,
    _restrict_profile,
    subspace_distance,
    subspace_of,
)

__all__ = [
    "AbIndices",
    "Classification",
    "Flag",
    "FlagCode",
    "TypeVector",
    "ab_indices",
    "admissible_type_check",
    "classify",
    "code_flag_min_distance",
    "distance_decomposition_check",
    "dump_flag",
    "dump_flag_code",
    "flag_distance",
    "flag_from_matrix",
    "is_cardinality_consistent",
    "load_flag",
    "load_flag_code",
    "max_flag_distance",
    "optimum_check_ab",
    "projected_code",
    "projected_code_at_dim",
    "split_type",
    "subsequence_code",
]


class TypeVector(Frozen):
    """A strictly increasing vector of subspace dimensions inside GF(q)^n."""

    __slots__ = ("n", "dims")

    def __init__(self, n: int, dims: tuple[int, ...]):
        if n < 2:
            raise ValueError(f"ambient dimension {n} is too small")
        if not dims:
            raise ValueError("a type vector needs at least one dimension")
        prev = 0
        for d in dims:
            if not 1 <= d <= n - 1:
                raise ValueError(f"dimension {d} outside [1, {n - 1}]")
            if d <= prev:
                raise ValueError(f"dimensions not strictly increasing at {d}")
            prev = d
        self._set_fields(n, dims)

    # the fields written out, not the generic Record methods: FlagCode
    # compares every flag's type with its own, and a generic != of two equal
    # types takes about 1.5 us against 0.18 us (timeit, best of 7, Python 3.11.7)
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.dims == other.dims

    def __hash__(self):
        return hash((self.n, self.dims))

    @classmethod
    def full(cls, n: int) -> TypeVector:
        """The longest possible type (1, 2, ..., n-1)."""
        return cls(n, tuple(range(1, n)))

    @classmethod
    def make(cls, n: int, dims: Iterable[int]) -> TypeVector:
        """Build from any iterable of dimensions, sorting and deduplicating."""
        return cls(n, tuple(sorted(set(dims))))

    @property
    def r(self) -> int:
        return len(self.dims)

    @property
    def is_full(self) -> bool:
        return self.dims == tuple(range(1, self.n))

    def is_subsequence_of(self, other: TypeVector) -> bool:
        if self.n != other.n:
            return False
        return set(self.dims) <= set(other.dims)

    def index_of_dim(self, dim: int) -> int:
        """1-based position of a dimension in the type."""
        try:
            return self.dims.index(dim) + 1
        except ValueError:
            raise IndexOutOfRange(f"dimension {dim} not in type {self.dims}") from None


class AbIndices(Frozen):
    """The 1-based indices a = max{i : 2 t_i <= n} and b = min{i : 2 t_i >= n}.

    They never both vanish; both exist with a == b exactly when n is even and
    n/2 is a type dimension, and otherwise b == a + 1 whenever both exist.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | None, b: int | None):
        if a is None and b is None:
            raise ValueError("at least one of a and b must exist")
        self._set_fields(a, b)


def ab_indices(tv: TypeVector) -> AbIndices:
    n = tv.n
    a = None
    b = None
    for idx, d in enumerate(tv.dims, start=1):
        if 2 * d <= n:
            a = idx
        if 2 * d >= n and b is None:
            b = idx
    return AbIndices(a, b)


class Flag:
    """A strictly nested chain of subspaces matching a type vector.

    A flag is its normal form (Liebhold, Nebe and Vazquez-Castro): per
    level, the RREF rows of its part at the pivots it adds.  ``key`` and
    ``_rows`` are that tuple, which equality, hashing (with ``field``),
    FlagCode's order and the scan read.  ``source`` is flag_from_matrix's
    matrix (a restriction inherits it) or None.  Parts are made on first
    read and kept, and a part's key rows are its own; a restriction keeps
    no parts and reads its parent's.
    """

    __slots__ = ("type", "field", "source", "_rows", "_parts", "_parent")

    def __init__(self, type_: TypeVector, parts: Sequence[Subspace]):
        parts = list(parts)
        if len(parts) != type_.r:
            raise TypeMismatch(
                f"{len(parts)} components for a type of length {type_.r}"
            )
        field = parts[0].field
        for part, dim in zip(parts, type_.dims):
            if part.ambient != type_.n:
                raise AmbientMismatch(
                    f"ambient {part.ambient} component in GF(q)^{type_.n}"
                )
            if part.dim != dim:
                raise TypeMismatch(f"component of dim {part.dim} where {dim} expected")
            if part.field != field:
                raise AmbientMismatch(
                    f"component over {part.field} (modulus {part.field.modulus}) in "
                    f"a flag over {field} (modulus {field.modulus})"
                )
        # the first part's key rows are independent: only a later part can
        # fail the rank check
        dims = type_.dims
        stacked = [row for part in parts for row in part._key[1]]
        rows, ranks = _echelon(stacked, accumulate(dims), field)
        for i, rank in enumerate(ranks):
            if rank != dims[i]:
                raise RankDeficientPrefix(
                    f"component of dim {dims[i - 1]} not inside the next of dim {dims[i]}"
                )
        self._set(type_, field, None, rows, parts, None)

    def _set(self, type_, field, source, rows, parts, parent) -> Flag:
        """Fill every slot but a restriction's ``_rows`` (__getattr__)."""
        self.type = type_
        self.field = field
        self.source = source
        if rows is not None:
            self._rows = rows
        self._parts = parts
        self._parent = parent  # a restriction's (parent flag, positions)
        return self

    def _restricted(self, sub: TypeVector, positions: tuple) -> Flag:
        """The flag of type ``sub`` made of this flag's parts at the 0-based
        ``positions``."""
        parent = (self, positions)
        return Flag.__new__(Flag)._set(sub, self.field, self.source, None, None, parent)

    def __getattr__(self, name: str):
        """A restriction's ``_rows``, made on first read from its parent's,
        which are already forward-reduced: only the levels it merges are
        reduced (matgf._leveled)."""
        if name != "_rows" or self._parent is None:
            raise AttributeError(name)
        dims = self.type.dims
        self._rows = _leveled([self._parent[0]._rows[: dims[-1]]], dims, self.field)[0]
        return self._rows

    @property
    def parts(self) -> tuple[Subspace, ...]:
        """The components as Subspace objects, each made on first read."""
        return tuple([self._part(i) for i in range(self.type.r)])

    def _part(self, i: int) -> Subspace:
        """Component ``i`` (0-based), made from its key rows on first read
        and kept, or a restriction's parent's part.  The same object on
        every read."""
        parent = self._parent
        if parent:
            return parent[0]._part(parent[1][i])
        parts = self._parts
        if parts is None:
            parts = self._parts = [None] * self.type.r
        part = parts[i]
        if part is None:
            part = parts[i] = Subspace(self.field, self.type.n, self._key_rows(i))
        return part

    def _key_rows(self, i: int) -> tuple:
        """The RREF rows of component ``i`` (0-based): the part's own once
        it is made, else back-substituted from the normal-form rows up to
        its dim, or a restriction's parent's.  Nothing is stored."""
        parent = self._parent
        if parent:
            return parent[0]._key_rows(parent[1][i])
        parts = self._parts
        if parts is not None and parts[i] is not None:
            return parts[i]._key[1]
        return _back_substitute(self._rows[: self.type.dims[i]], self.field)

    @property
    def key(self) -> tuple:
        """The normal-form rows, level after level."""
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        return (
            self.type == other.type
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.type, self.field, self._rows))

    def __repr__(self) -> str:
        return f"Flag(type {self.type.dims} in GF(q)^{self.type.n})"


def flag_from_matrix(w: MatrixGF, type_: TypeVector) -> Flag:
    """The flag whose i-th component is the row space of the first t_i rows.

    One echelon pass (matgf._echelon) gives the flag's normal form, and
    at each type dimension t the rank must be t: the nesting check, which
    holds at every t once it holds at the last.
    """
    if w.ncols != type_.n:
        raise AmbientMismatch(f"{w.ncols}-column matrix for ambient {type_.n}")
    dims = type_.dims
    if w.nrows < dims[-1]:
        raise TooFewRows(
            f"{w.nrows} rows cannot produce a flag of type {dims}"
        )
    rows, ranks = _echelon(w._rows, dims, w.field)
    if len(rows) != dims[-1]:
        t, rank = next((t, rank) for t, rank in zip(dims, ranks) if rank != t)
        raise RankDeficientPrefix(f"first {t} rows have rank {rank}")
    return Flag.__new__(Flag)._set(type_, w.field, w, rows, None, None)


def _flags_from_matrices(
    mats: Sequence[MatrixGF], type_: TypeVector
) -> tuple[list[Flag], _GF2Lanes | _GFqSlices | None]:
    """The flag_from_matrix of each of ``mats``, in order, and the batch
    they were made on, or None.

    Over GF(2) one lane-packed elimination (matgf._GF2Lanes) makes every
    normal form, and over GF(q), 2 < q <= 16, one byte-sliced elimination
    (matgf._GFqSlices).  If a matrix is over a field other than the
    first one's (the same order under another modulus counts), has a
    shape flag_from_matrix refuses, or has a row in the span of the rows
    before it, flag_from_matrix runs on each matrix in turn instead, as
    over every larger field and over GF(2) past 64 columns (no generator
    set under the flag bound has more than 34), so the first it refuses
    raises its own error, with ``index`` set to its place in ``mats``."""
    n, top = type_.n, type_.dims[-1]
    field = mats[0].field if mats else None
    if (
        field is not None and field.q <= 16 and (field.q > 2 or n <= 64)
        and all((w.field is field or w.field == field) and w.ncols == n and w.nrows >= top for w in mats)
    ):
        rowsets = [w._rows for w in mats]
        lanes = _GF2Lanes(rowsets, top, n) if field.q == 2 else _GFqSlices(rowsets, top, n, field)
        if lanes.bad is None:
            forms = lanes.forms(type_.dims, field)
            return [Flag.__new__(Flag)._set(type_, field, w, rows, None, None) for w, rows in zip(mats, forms)], lanes
    flags: list[Flag] = []
    for j, w in enumerate(mats):
        try:
            flags.append(flag_from_matrix(w, type_))
        except FlagCodesError as err:
            err.index = j
            raise
    return flags, None


class FlagCode:
    """A set of flags sharing one type vector and one field, stored sorted by
    key and deduped: of flags with equal keys the last one given is kept."""

    __slots__ = ("type", "flags", "_profile", "_parent")

    def __init__(self, type_: TypeVector, flags: Iterable[Flag]):
        seen: dict[tuple, Flag] = {}
        field = None
        for f in flags:
            if f.type != type_:
                raise TypeMismatch(f"flag of type {f.type.dims} in a {type_.dims} code")
            if field is None:
                field = f.field
            elif f.field != field:
                raise AmbientMismatch(
                    f"flag over {f.field} (modulus {f.field.modulus}) in a code "
                    f"over {field} (modulus {field.modulus})"
                )
            seen[f._rows] = f
        self.type = type_
        self.flags = tuple([seen[key] for key in sorted(seen)])
        self._profile = None
        # (flag code, positions) when this code is an injective restriction
        self._parent = None

    def distance_profile(self) -> Counter:
        """(d(U_1, V_1), ..., d(U_r, V_r)) -> number of unordered flag pairs
        with those component distances.

        Computed on first use and cached; the same Counter is returned on
        every later call.  An injective restriction of another code reads
        that code's profile at its positions, since each of its pairs is
        exactly one parent pair; any other code makes its own exhaustive
        scan.  Flag distances are the vector sums, and entry i-1 of each
        vector is the pair's distance in the i-th projected code.
        """
        if self._profile is None:
            if self._parent is not None:
                parent, positions = self._parent
                self._profile = _restrict_profile(parent.distance_profile(), positions)
            elif self.flags:
                rows = [f._rows for f in self.flags]
                self._profile = _distance_profile(rows, self.type.dims, self.flags[0].field, self.type.n)
            else:
                self._profile = Counter()
        return self._profile

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[Flag]:
        return iter(self.flags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlagCode):
            return NotImplemented
        return self.type == other.type and self.flags == other.flags

    def __repr__(self) -> str:
        return f"FlagCode({len(self.flags)} flags of type {self.type.dims})"


def flag_distance(f: Flag, g: Flag) -> int:
    """Componentwise sum of subspace distances."""
    if f.type != g.type:
        raise TypeMismatch(f"types {f.type.dims} vs {g.type.dims}")
    return sum(subspace_distance(u, v) for u, v in zip(f.parts, g.parts))


def max_flag_distance(tv: TypeVector) -> int:
    """The largest distance any two flags of this type can achieve:
    2 * sum over i of min(t_i, n - t_i)."""
    return 2 * sum(min(d, tv.n - d) for d in tv.dims)


def code_flag_min_distance(code: FlagCode) -> int:
    """Minimum pairwise flag distance, from the code's distance profile."""
    if len(code) < 2:
        raise TooFewFlags("minimum distance needs at least two flags")
    return min(sum(vec) for vec in code.distance_profile())


def projected_code(code: FlagCode, i: int) -> SubspaceCode:
    """The deduplicated set of i-th components (1-based index into the type),
    a code that scans its own words.  The claim suite reads projected codes
    off ``code`` instead (_words_at, _distances_at)."""
    if not 1 <= i <= code.type.r:
        raise IndexOutOfRange(f"index {i} outside 1..{code.type.r}")
    return SubspaceCode(code.type.n, (f._part(i - 1) for f in code))


def projected_code_at_dim(code: FlagCode, dim: int) -> SubspaceCode:
    """The projected code selected by dimension rather than position."""
    return projected_code(code, code.type.index_of_dim(dim))


def is_cardinality_consistent(code: FlagCode) -> bool:
    """True iff every projected code has as many words as the code has
    flags: no pair of flags has distance 0 at any level of the profile."""
    return all(all(vec) for vec in code.distance_profile())


def _words_at(code: FlagCode, i: int) -> int:
    """The number of words of the projected code at 0-based position ``i``:
    ``len(code)`` when no pair of the profile has distance 0 there (a 0 is
    exactly a pair sharing its i-th part), else the distinct part keys."""
    if all(vec[i] for vec in code.distance_profile()):
        return len(code)
    return len({f._key_rows(i) for f in code})


def _distances_at(code: FlagCode, i: int) -> set[int]:
    """The distances of the projected code at 0-based position ``i``: the
    nonzero i-th profile entries, since a pair sharing its i-th part is no
    pair of that deduplicated code."""
    return {vec[i] for vec in code.distance_profile() if vec[i]}


class Classification(Frozen):
    """Where a code's distance sits below the maximum for its type."""

    __slots__ = ("min_distance", "max_distance", "deficit")

    def __init__(self, min_distance: int, max_distance: int, deficit: int):
        # min_distance == max_distance - 2 * deficit
        self._set_fields(min_distance, max_distance, deficit)

    @property
    def label(self) -> str:
        if self.deficit == 0:
            return "optimum"
        if self.deficit == 1:
            return "quasi-optimum"
        return f"general({self.deficit})"

    @property
    def is_optimum(self) -> bool:
        return self.deficit == 0


def classify(code: FlagCode) -> Classification:
    if len(code) < 2:
        raise TooFewFlags("classification needs at least two flags")
    d = code_flag_min_distance(code)
    top = max_flag_distance(code.type)
    gap = top - d
    if gap < 0 or gap % 2:
        raise TheoremViolated(
            f"distance {d} vs maximum {top}: the gap must be even and nonnegative"
        )
    return Classification(d, top, gap // 2)


def optimum_check_ab(code: FlagCode) -> bool:
    """Check optimality through the two projected codes nearest n/2.

    The code attains the maximum distance exactly when the projected codes at
    indices a and b (those that exist) are as large as the code and attain
    the maximum subspace distance for their dimension.  The result is cross
    checked against the direct classification; disagreement means a bug.
    """
    if len(code) < 2:
        raise TooFewFlags("optimality check needs at least two flags")
    tv = code.type
    ab = ab_indices(tv)
    profile = code.distance_profile()
    ok = True
    for idx in sorted({i for i in (ab.a, ab.b) if i is not None}):
        dim = tv.dims[idx - 1]
        # a zero entry is a pair of flags sharing their idx-th part, i.e. a
        # projected code smaller than the code, so it fails this test too
        if min(vec[idx - 1] for vec in profile) != 2 * min(dim, tv.n - dim):
            ok = False
            break
    direct = classify(code).is_optimum
    if ok != direct:
        raise TheoremViolated(
            f"projected-code optimality test ({ok}) disagrees with the direct "
            f"classification ({direct})"
        )
    return ok


def subsequence_code(code: FlagCode, sub: TypeVector) -> FlagCode:
    """Componentwise restriction of a flag code to a subsequence of its type.

    Each restricted flag reads its parent's parts and is not re-checked
    for nesting (Flag._restricted)."""
    tv = code.type
    if not sub.is_subsequence_of(tv):
        raise NotASubsequence(f"{sub.dims} is not a subsequence of {tv.dims}")
    positions = tuple(tv.dims.index(d) for d in sub.dims)
    flags = [f._restricted(sub, positions) for f in code]
    t = tv.dims[0]
    if positions[0] == 0 and len({f._rows[:t] for f in code}) == len(code):
        # first parts kept and distinct: the flags are distinct and in order
        out = FlagCode(sub, ())
        out.flags = tuple(flags)
    else:
        out = FlagCode(sub, flags)
    if len(out) == len(code):
        out._parent = (code, positions)
    return out


def split_type(tv: TypeVector, ell: int) -> tuple[TypeVector, TypeVector]:
    """Split a type into the 2*ell dimensions closest to n/2 and the rest.

    With a and b the pivotal indices, the inner part takes indices
    a-ell+1..a and b..b+ell-1 (as a set, so a == b contributes once); the
    outer part keeps everything else.  ``ell`` must be at least 1 and small
    enough that both sides stay nonempty on each existing flank.
    """
    ab = ab_indices(tv)
    r = tv.r
    if ab.a is not None and ab.b is not None:
        limit = min(ab.a - 1, r - ab.b)
    elif ab.a is not None:
        limit = ab.a - 1
    else:
        limit = r - ab.b
    if not 1 <= ell <= limit:
        raise EllOutOfRange(f"ell={ell} outside 1..{limit} for type {tv.dims}")
    inner: set[int] = set()
    if ab.a is not None:
        inner.update(range(ab.a - ell + 1, ab.a + 1))
    if ab.b is not None:
        inner.update(range(ab.b, ab.b + ell))
    inner_dims = [tv.dims[i - 1] for i in sorted(inner)]
    outer_dims = [d for i, d in enumerate(tv.dims, start=1) if i not in inner]
    return TypeVector(tv.n, tuple(inner_dims)), TypeVector(tv.n, tuple(outer_dims))


def distance_decomposition_check(tv: TypeVector, ell: int) -> bool:
    """Verify that the maximum distance is additive across the ell-split."""
    inner, outer = split_type(tv, ell)
    return max_flag_distance(tv) == max_flag_distance(inner) + max_flag_distance(outer)


def admissible_type_check(tv: TypeVector, k: int) -> bool:
    """True iff k is a type dimension and every dimension is <= k or >= n-k."""
    n = tv.n
    return k in tv.dims and all(d <= k or d >= n - k for d in tv.dims)


# -- serialization --------------------------------------------------------------


def _type_line(tv: TypeVector) -> str:
    return "type " + ",".join(str(d) for d in tv.dims)


def _parse_type_line(line: str, n: int) -> TypeVector:
    body = line.strip()
    if not body.startswith("type "):
        raise ValueError(f"expected a type line, got {line!r}")
    dims = tuple(int(t) for t in body[5:].split(","))
    return TypeVector(n, dims)


def dump_flag(flag: Flag) -> str:
    """Serialize as a type line plus either the t_r x n generator matrix
    (when the flag kept one) or each component matrix in order."""
    lines = [_type_line(flag.type)]
    _flag_lines(flag, _RowTexts(flag.field, flag.type.n), lines)
    return "\n".join(lines) + "\n"


def _flag_lines(flag: Flag, memo: _RowTexts, out: list[str]) -> None:
    """Append the matrix block of ``flag`` to ``out``, rendering through
    the serialization call's ``memo`` (matgf._matrix_lines)."""
    if flag.source is not None:
        # flag_from_matrix checked that the source has these rows
        _matrix_lines(flag.source._rows[: flag.type.dims[-1]], memo, out)
    else:
        for i in range(flag.type.r):
            _matrix_lines(flag._key_rows(i), memo, out)


def _read_flag_body(
    lines: Iterator[str], tv: TypeVector, first: MatrixGF, memo: dict, q: tuple | None = None
) -> Flag:
    """The flag whose matrix block starts with ``first``, already read from
    ``lines``; the rest of the block, if any, is read from ``lines``
    through the deserialization call's ``memo`` and header ``q``
    (matgf._read_matrix)."""
    if first.nrows == tv.dims[-1]:
        return flag_from_matrix(first, tv)
    parts = [subspace_of(first)]
    for _ in range(tv.r - 1):
        parts.append(subspace_of(_read_matrix(lines, memo, q)))
    return Flag(tv, parts)


def load_flag(text: str) -> Flag:
    lines = iter(text.splitlines())
    type_line = next((ln for ln in lines if ln.strip()), None)
    if type_line is None:
        raise ValueError("empty flag file")
    # the ambient dimension comes from the first matrix header
    memo: dict = {}
    first = _read_matrix(lines, memo)
    flag = _read_flag_body(lines, _parse_type_line(type_line, first.ncols), first, memo)
    _expect_end(lines, "the flag")
    return flag


def dump_flag_code(code: FlagCode) -> str:
    """Serialize as ``flagcode n q |C|``, a shared type line, then one flag
    matrix block per flag.  A header or row that repeats is rendered once
    (matgf._RowTexts): a flag that kept its source matrix is written as
    its header plus one mapped pass over its rows, others by _flag_lines."""
    field = code.flags[0].field if len(code) else None
    q = field.q if field else 0
    lines = [f"flagcode {code.type.n} {q} {len(code)}", _type_line(code.type)]
    if field is None:
        return "\n".join(lines) + "\n"
    memo = _RowTexts(field, code.type.n)
    render = memo.__getitem__
    top = code.type.dims[-1]
    header = memo.header(top)
    for f in code:
        if f.source is not None:
            # flag_from_matrix checked that the source has these rows
            lines.append(header)
            lines += map(render, f.source._rows[:top])
        else:
            _flag_lines(f, memo, lines)
    return "\n".join(lines) + "\n"


def load_flag_code(text: str) -> FlagCode:
    """The flag code of a dump_flag_code file.  A header or row line that
    repeats is parsed once (matgf._read_matrix), and every check runs on
    every flag.  A matrix whose field name declares an order other than
    the header's q is refused before its field is built.  The flags given
    by one matrix are made in one batch once the file is read
    (_flags_from_matrices), and a flag that fails its checks is still
    reported before anything that fails after it in the file."""
    lines = iter(text.splitlines())
    header = next((ln for ln in lines if ln.strip()), None)
    if header is None:
        raise ValueError("empty flag code file")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "flagcode":
        raise ValueError(f"bad flag code header {header!r}")
    n, q, count = int(parts[1]), int(parts[2]), int(parts[3])
    if count < 0:
        raise ValueError(f"the header declares {count} flags")
    # every matrix's field name checks q; an empty code has none and dumps
    # q = 0.  A q past 10^12 is called "not 0" without trial division, which
    # could not finish on it (field.factorize)
    if count == 0 and q != 0:
        order = q > DEFAULT_FACTOR_BUDGET**2 or (q > 1 and len(factorize(q)) == 1)
        what = "not 0" if order else "no field order"
        raise ValueError(f"empty code: header says q = {_shown(q)}, which is {what}")
    type_line = next((ln for ln in lines if ln.strip()), None)
    if type_line is None:
        raise ValueError("flag code file has no type line")
    tv = _parse_type_line(type_line, n)
    memo: dict = {}
    order = (q, "the flags are")
    flags: list = []
    # the flags of one matrix block: made in one batch after the reading
    singles: list[MatrixGF] = []
    places: list[int] = []
    error = None
    try:
        for _ in range(count):
            first = _read_matrix(lines, memo, order)
            if first.nrows == tv.dims[-1]:
                places.append(len(flags))
                singles.append(first)
                flags.append(None)
            else:
                flags.append(_read_flag_body(lines, tv, first, memo, order))
        _expect_end(lines, f"the {count} flags the header declares")
    except _NoMatrix:
        error = ValueError(f"the header declares {count} flags, but the file ends after {len(flags)}")
    except Exception as err:
        error = err
    # a flag that fails its own checks is reported before what fails after it
    for at, flag in zip(places, _flags_from_matrices(singles, tv)[0]):
        flags[at] = flag
    if error is not None:
        raise error
    code = FlagCode(tv, flags)
    if len(code) != count:
        raise ValueError(f"the header declares {count} flags, but {len(code)} are distinct")
    return code
