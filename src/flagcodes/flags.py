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
from dataclasses import dataclass

from .errors import (
    AmbientMismatch,
    EllOutOfRange,
    IndexOutOfRange,
    NotASubsequence,
    RankDeficientPrefix,
    TheoremViolated,
    TooFewFlags,
    TooFewRows,
    TypeMismatch,
)
from .matgf import MatrixGF, _expect_end, matrix_to_text, read_matrix
from .subspace import (
    Subspace,
    SubspaceCode,
    _distance_profile,
    _prefix_spaces,
    _restrict_profile,
    _spans,
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


@dataclass(frozen=True)
class TypeVector:
    """A strictly increasing vector of subspace dimensions inside GF(q)^n."""

    n: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ambient dimension {self.n} is too small")
        if not self.dims:
            raise ValueError("a type vector needs at least one dimension")
        prev = 0
        for d in self.dims:
            if not 1 <= d <= self.n - 1:
                raise ValueError(f"dimension {d} outside [1, {self.n - 1}]")
            if d <= prev:
                raise ValueError(f"dimensions not strictly increasing at {d}")
            prev = d

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

    def __repr__(self) -> str:
        return f"TypeVector(n={self.n}, dims={self.dims})"


@dataclass(frozen=True)
class AbIndices:
    """The 1-based indices a = max{i : 2 t_i <= n} and b = min{i : 2 t_i >= n}.

    They never both vanish; both exist with a == b exactly when n is even and
    n/2 is a type dimension, and otherwise b == a + 1 whenever both exist.
    """

    a: int | None
    b: int | None

    def __post_init__(self):
        if self.a is None and self.b is None:
            raise ValueError("at least one of a and b must exist")


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

    ``source`` optionally keeps a generator matrix whose row prefixes produce
    the chain; it is ignored by equality and hashing.  ``field`` is the
    parts' common field (parts over different fields are refused), and it
    takes part in equality and hashing.  Every chain built from parts has
    its nesting checked once, here; a restriction of a flag (_restricted)
    is nested because its parent is, and is not checked again.
    """

    __slots__ = ("type", "field", "parts", "source", "_key")

    def __init__(
        self,
        type_: TypeVector,
        parts: Sequence[Subspace],
        source: MatrixGF | None = None,
    ):
        parts = tuple(parts)
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
        # nesting is usually automatic from prefix structure; re-verify anyway
        for lower, upper in zip(parts, parts[1:]):
            if not _spans(upper._piv, lower._piv.values(), field):
                raise RankDeficientPrefix(
                    f"component of dim {lower.dim} not inside the next of dim {upper.dim}"
                )
        self.type = type_
        self.field = field
        self.parts = parts
        self.source = source
        self._key = tuple(p.key for p in parts)

    def _restricted(self, sub: TypeVector, positions: Sequence[int]) -> Flag:
        """The flag of type ``sub`` made of this flag's parts at the 0-based
        ``positions``, sharing its parts, part keys, field and source.  A
        subsequence of a nested chain is nested, so nothing is re-checked."""
        flag = Flag.__new__(Flag)
        flag.type = sub
        flag.field = self.field
        flag.parts = tuple([self.parts[p] for p in positions])
        flag.source = self.source
        flag._key = tuple([self._key[p] for p in positions])
        return flag

    @property
    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        return (
            self.type == other.type
            and self.field == other.field
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash((self.type, self.field, self._key))

    def __repr__(self) -> str:
        return f"Flag(type {self.type.dims} in GF(q)^{self.type.n})"


def flag_from_matrix(w: MatrixGF, type_: TypeVector) -> Flag:
    """The flag whose i-th component is the row space of the first t_i rows."""
    if w.ncols != type_.n:
        raise AmbientMismatch(f"{w.ncols}-column matrix for ambient {type_.n}")
    if w.nrows < type_.dims[-1]:
        raise TooFewRows(
            f"{w.nrows} rows cannot produce a flag of type {type_.dims}"
        )
    parts = []
    for t, (rank, part) in zip(type_.dims, _prefix_spaces(w, type_.dims)):
        if rank != t:
            raise RankDeficientPrefix(f"first {t} rows have rank {rank}")
        parts.append(part)
    return Flag(type_, parts, source=w)


class FlagCode:
    """A set of flags sharing one type vector and one field, stored sorted and
    deduped."""

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
            seen[f.key] = f
        self.type = type_
        self.flags = tuple(seen[k] for k in sorted(seen))
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
            if self._parent is None:
                self._profile = _distance_profile([f.parts for f in self.flags])
            else:
                parent, positions = self._parent
                self._profile = _restrict_profile(parent.distance_profile(), positions)
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
    """The deduplicated set of i-th components (1-based index into the type)."""
    if not 1 <= i <= code.type.r:
        raise IndexOutOfRange(f"index {i} outside 1..{code.type.r}")
    out = SubspaceCode(code.type.n, (f.parts[i - 1] for f in code))
    if len(out) == len(code):
        out._parent = (code, (i - 1,))
    return out


def projected_code_at_dim(code: FlagCode, dim: int) -> SubspaceCode:
    """The projected code selected by dimension rather than position."""
    return projected_code(code, code.type.index_of_dim(dim))


def is_cardinality_consistent(code: FlagCode) -> bool:
    """True iff every projected code has as many words as the code has flags."""
    return all(
        len({f.parts[i].key for f in code}) == len(code)
        for i in range(code.type.r)
    )


@dataclass(frozen=True)
class Classification:
    """Where a code's distance sits below the maximum for its type."""

    min_distance: int
    max_distance: int
    deficit: int  # min_distance == max_distance - 2 * deficit

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

    Each restricted flag shares its parent's parts and is not re-checked for
    nesting (Flag._restricted)."""
    tv = code.type
    if not sub.is_subsequence_of(tv):
        raise NotASubsequence(f"{sub.dims} is not a subsequence of {tv.dims}")
    positions = tuple(tv.dims.index(d) for d in sub.dims)
    out = FlagCode(sub, (f._restricted(sub, positions) for f in code))
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
    return "\n".join([_type_line(flag.type), *_flag_body(flag)]) + "\n"


def _flag_body(flag: Flag) -> list[str]:
    if flag.source is not None:
        return [matrix_to_text(flag.source.first_rows(flag.type.dims[-1]))]
    return [matrix_to_text(part.canon) for part in flag.parts]


def _read_flag_body(lines: Iterator[str], tv: TypeVector, first: MatrixGF) -> Flag:
    """The flag whose matrix block starts with ``first``, already read from
    ``lines``; the rest of the block, if any, is read from ``lines``."""
    if first.nrows == tv.dims[-1]:
        return flag_from_matrix(first, tv)
    parts = [subspace_of(first)]
    for _ in range(tv.r - 1):
        parts.append(subspace_of(read_matrix(lines)))
    return Flag(tv, parts)


def load_flag(text: str) -> Flag:
    lines = iter(text.splitlines())
    type_line = next((ln for ln in lines if ln.strip()), None)
    if type_line is None:
        raise ValueError("empty flag file")
    # the ambient dimension comes from the first matrix header
    first = read_matrix(lines)
    flag = _read_flag_body(lines, _parse_type_line(type_line, first.ncols), first)
    _expect_end(lines, "the flag")
    return flag


def dump_flag_code(code: FlagCode) -> str:
    """Serialize as ``flagcode n q |C|``, a shared type line, then one flag
    matrix block per flag."""
    field = code.flags[0].field if len(code) else None
    q = field.q if field else 0
    lines = [f"flagcode {code.type.n} {q} {len(code)}", _type_line(code.type)]
    for f in code:
        lines.extend(_flag_body(f))
    return "\n".join(lines) + "\n"


def load_flag_code(text: str) -> FlagCode:
    lines = iter(text.splitlines())
    header = next((ln for ln in lines if ln.strip()), None)
    if header is None:
        raise ValueError("empty flag code file")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "flagcode":
        raise ValueError(f"bad flag code header {header!r}")
    n, q, count = int(parts[1]), int(parts[2]), int(parts[3])
    type_line = next((ln for ln in lines if ln.strip()), None)
    if type_line is None:
        raise ValueError("flag code file has no type line")
    tv = _parse_type_line(type_line, n)
    flags = [_read_flag_body(lines, tv, read_matrix(lines)) for _ in range(count)]
    _expect_end(lines, f"the {count} flags the header declares")
    if flags and flags[0].field.q != q:
        raise ValueError(f"header says q = {q}, but the flags are over {flags[0].field}")
    return FlagCode(tv, flags)
