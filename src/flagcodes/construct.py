"""The orbit-based flag code constructions on GF(q)^n with n = sk + h.

For each i in 1..s-1 a cyclic group G_i acts on a seed hyperplane matrix A_i;
together with companion matrices B_i and the anti-diagonal matrix M this
yields a generator family of sum_{i=1}^{s-1} q^(ik+h) + 1 distinct row
spaces.  Taking row-prefix flags of the generator matrices produces, by type
vector:

* the full type (1, ..., n-1);
* the admissible type (1, ..., k, n-k, ..., n-1), whose code attains the
  maximum possible flag distance;
* the master type (1, ..., k+h, 2k+h, ..., (s-2)k+h, n-k, ..., n-1) and its
  subsequences, with flag distance 2k(s+h+k-2) for s != 4 and
  2k(k+h+1) + 2h for s = 4 when 2k+h is kept in the type.

Every claimed cardinality, spread property, and distance is re-verified here
by exhaustive computation; the verify_* functions return structured
pass/fail reports rather than aborting.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from itertools import islice
from time import perf_counter

from .errors import (
    CardinalityMismatch,
    Frozen,
    HypothesisUnmet,
    NotASubsequence,
    RankDeficientPrefix,
    Record,
    ResourceBudgetExceeded,
    TheoremViolated,
)
from .field import (
    FieldSpec,
    Poly,
    _primitive_count,
    _shown,
    factorize,
    field_from_order,
    iter_primitive_polys,
)
from .flags import (
    Classification,
    Flag,
    FlagCode,
    TypeVector,
    _distances_at,
    _flags_from_matrices,
    _words_at,
    ab_indices,
    admissible_type_check,
    classify,
    code_flag_min_distance,
    distance_decomposition_check,
    is_cardinality_consistent,
    max_flag_distance,
    optimum_check_ab,
    projected_code_at_dim,
    split_type,
    subsequence_code,
)
from .matgf import MatrixGF, _pack, block, companion
from .subspace import (
    SubspaceCode,
    _check_kernel_prime,
    _hyperplane_normal,
    _normal_walk,
    max_partial_spread_size,
    subspace_distance,
    subspace_of,
)

__all__ = [
    "Claim",
    "ConstructionParams",
    "GeneratorEntry",
    "GeneratorSet",
    "VerificationReport",
    "admissible_type",
    "build_A",
    "build_B",
    "build_G_generator",
    "build_M",
    "build_P",
    "build_full_flag_code",
    "build_generator_set",
    "build_longer_type_code",
    "build_optimum_code",
    "expected_restricted_distance",
    "master_type",
    "middle_dims",
    "run_claim_suite",
    "verify_intermediate_distances",
    "verify_maximality",
    "verify_orbit_decomposition",
    "verify_spread_projections",
]


class ConstructionParams(Frozen):
    """Input bundle (q, k, h, s) with n = sk + h, plus reproducibility knobs.

    ``poly_choice`` selects the poly_choice-th smallest primitive polynomial
    for every degree the construction needs (0 = smallest); the guaranteed
    properties hold for any choice, so rebuilding with 1 is a useful
    independence check.
    """

    __slots__ = ("field", "k", "h", "s", "poly_choice")

    def __init__(self, field: FieldSpec, k: int, h: int, s: int, poly_choice: int = 0):
        shown_k, shown_h = _shown(k), _shown(h)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {shown_k}")
        if not 0 <= h < k:
            raise ValueError(f"h must satisfy 0 <= h < k, got h={shown_h}, k={shown_k}")
        if s < 2:
            raise ValueError(f"s must be >= 2, got {_shown(s)}")
        if poly_choice < 0:
            raise ValueError("poly_choice must be nonnegative")
        self._set_fields(field, k, h, s, poly_choice)

    @classmethod
    def make(cls, q: int, k: int, h: int, s: int, **kwargs) -> ConstructionParams:
        return cls(field_from_order(q), k, h, s, **kwargs)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n(self) -> int:
        return self.s * self.k + self.h

    @property
    def expected_size(self) -> int:
        return sum(self.q ** (i * self.k + self.h) for i in range(1, self.s)) + 1

    def describe(self) -> dict:
        return {"q": self.q, "k": self.k, "h": self.h, "s": self.s, "n": self.n}


# the most flags a generator set may have.  A set is built flag by flag:
# (2,2,1,8), n = 17, took 1.63 s and 73 MB peak for its 43,689 flags
# (37 us a flag, Python 3.11, 2 vCPUs), so a set at this bound, six times
# as large, builds in well under a minute, while (2,13,0,4), with more
# than 2^39 flags, would take months
_MAX_FLAGS = 1 << 18


def _check_size(params: ConstructionParams) -> None:
    """Refuse an instance whose generator set has more than _MAX_FLAGS
    flags with ResourceBudgetExceeded, before anything is built.  Its
    largest family alone has q^e - 1 members, e = (s-1)k+h, and q >= 2, so
    an e of _MAX_FLAGS's bit length or more is refused before q^e is
    formed."""
    e = (params.s - 1) * params.k + params.h
    if e >= _MAX_FLAGS.bit_length() or params.expected_size > _MAX_FLAGS:
        raise ResourceBudgetExceeded(
            f"the generator set has more than {_MAX_FLAGS} flags: q = {params.q}, "
            f"e = (s-1)k+h = {_shown(e)}"
        )


def master_type(params: ConstructionParams) -> TypeVector:
    """The longest guaranteed type: (1..k+h, 2k+h, ..., (s-2)k+h, n-k..n-1)."""
    k, h, s, n = params.k, params.h, params.s, params.n
    dims = set(range(1, k + h + 1))
    dims.update(j * k + h for j in range(2, s - 1))
    dims.update(range(n - k, n))
    return TypeVector.make(n, dims)


def admissible_type(params: ConstructionParams) -> TypeVector:
    """The type (1..k, n-k..n-1) on which the maximum distance is attained."""
    k, n = params.k, params.n
    return TypeVector.make(n, set(range(1, k + 1)) | set(range(n - k, n)))


def middle_dims(params: ConstructionParams) -> list[int]:
    """Dimensions of the master type strictly between k and n-k."""
    k, n = params.k, params.n
    return [d for d in master_type(params).dims if k < d < n - k]


def expected_restricted_distance(params: ConstructionParams, tv: TypeVector) -> int:
    """Guaranteed flag distance of the construction restricted to ``tv``.

    Per dimension t: 2t below k, 2(n-t) above n-k, and 2k in between, except
    that for s = 4 the dimension 2k+h contributes 2h.
    """
    return sum(_guaranteed_distance(params, t) for t in tv.dims)


def _guaranteed_distance(params: ConstructionParams, t: int) -> int:
    """The guaranteed distance at dimension t, a term of
    expected_restricted_distance."""
    k, h, s, n = params.k, params.h, params.s, params.n
    if t <= k:
        return 2 * t
    if t >= n - k:
        return 2 * (n - t)
    if s == 4 and t == 2 * k + h:
        return 2 * h
    return 2 * k


def _unguaranteed_dims(params: ConstructionParams, tv: TypeVector) -> list[int]:
    """The dims of ``tv`` with guaranteed distance 0 (2k+h when s = 4 and
    h = 0), where two flags of the construction may share their part."""
    return [t for t in tv.dims if not _guaranteed_distance(params, t)]


# (field, degree) -> (the primitive polynomials found so far, in
# increasing code order, the search that resumes after the last of them,
# and how many there are)
_primitive_searches: dict[tuple, tuple[list[Poly], Iterator[Poly], int]] = {}


def _primitive_poly(field: FieldSpec, degree: int, choice: int) -> Poly:
    """The choice-th smallest primitive polynomial.

    One search runs per (field, degree): a later call that needs a larger
    choice resumes it where it stopped.  A choice past the number of
    primitive polynomials raises ValueError before any search.  A search
    whose factorization of q^degree - 1 fails (past the trial-division
    bound) is not kept, and neither is one that raised, so the next call
    raises the same error again."""
    key = (field, degree)
    search = _primitive_searches.get(key)
    if search is None:
        search = _primitive_searches[key] = (
            [], iter_primitive_polys(field, degree), _primitive_count(field, degree)
        )
    found, rest, count = search
    if choice >= count:
        raise ValueError(
            f"poly_choice {_shown(choice)} needs {_shown(choice + 1)} primitive polynomials "
            f"of degree {degree} over {field}; there are only {count}"
        )
    if len(found) <= choice:
        try:
            found.extend(islice(rest, choice + 1 - len(found)))
        except BaseException:
            # a generator that raised is finished: the next call starts anew
            del _primitive_searches[key]
            raise
    return found[choice]


def _family_poly(params: ConstructionParams, i: int) -> Poly:
    """f_i: the chosen primitive polynomial of degree ik+h."""
    return _primitive_poly(params.field, i * params.k + params.h, params.poly_choice)


def build_P(params: ConstructionParams, i: int) -> MatrixGF:
    """Companion matrix of the chosen primitive polynomial of degree ik+h."""
    _check_family_index(params, i)
    return companion(_family_poly(params, i))


def _check_family_index(params: ConstructionParams, i: int) -> None:
    if not 1 <= i <= params.s - 1:
        raise ValueError(f"family index {i} outside 1..{params.s - 1}")


def build_G_generator(params: ConstructionParams, i: int) -> MatrixGF:
    """Generator of the cyclic group G_i: blockdiag(I_(s-i-1)k, I_k, P_i)."""
    _check_family_index(params, i)
    f = params.field
    w1 = (params.s - i - 1) * params.k
    return block(
        f,
        [
            [MatrixGF.identity(f, w1), None, None],
            [None, MatrixGF.identity(f, params.k), None],
            [None, None, build_P(params, i)],
        ],
    )


def _family_matrix(
    params: ConstructionParams, i: int, x: MatrixGF, top_right: bool
) -> MatrixGF:
    """The (n-1) x n block matrix over column widths ((s-i-1)k, k, ik+h):

        [ 0 | I_k | X^(k) or 0 ]
        [ 0 |  0  | X^[k]      ]
        [ I |  0  | 0          ]
        [ 0 |  0  | X^(k-1)    ]
    """
    f = params.field
    k = params.k
    w1 = (params.s - i - 1) * k
    d = i * k + params.h
    top = x.first_rows(k) if top_right else MatrixGF.zeros(f, k, d)
    mid = x.rows_after(k) if d > k else MatrixGF.zeros(f, 0, d)
    low = x.first_rows(k - 1) if k > 1 else MatrixGF.zeros(f, 0, d)
    return block(
        f,
        [
            [MatrixGF.zeros(f, k, w1), MatrixGF.identity(f, k), top],
            [MatrixGF.zeros(f, d - k, w1), MatrixGF.zeros(f, d - k, k), mid],
            [MatrixGF.identity(f, w1), MatrixGF.zeros(f, w1, k), MatrixGF.zeros(f, w1, d)],
            [MatrixGF.zeros(f, k - 1, w1), MatrixGF.zeros(f, k - 1, k), low],
        ],
    )


def build_A(params: ConstructionParams, i: int) -> MatrixGF:
    """Seed matrix A_i: identity slices in the right column block."""
    _check_family_index(params, i)
    d = i * params.k + params.h
    ident = MatrixGF.identity(params.field, d)
    m = _family_matrix(params, i, ident, top_right=True)
    _assert_hyperplane(params, m, f"A_{i}")
    return m


def build_B(params: ConstructionParams, i: int) -> MatrixGF:
    """Companion seed B_i: as A_i but with a zero top-right block."""
    _check_family_index(params, i)
    d = i * params.k + params.h
    ident = MatrixGF.identity(params.field, d)
    m = _family_matrix(params, i, ident, top_right=False)
    _assert_hyperplane(params, m, f"B_{i}")
    return m


def build_M(params: ConstructionParams) -> MatrixGF:
    """The (n-1) x n anti-diagonal matrix: row j has its 1 in column n+1-j."""
    n = params.n
    rows = [[1 if c == n - j else 0 for c in range(n)] for j in range(1, n)]
    m = MatrixGF(params.field, rows, ncols=n)
    _assert_hyperplane(params, m, "M")
    return m


def _assert_hyperplane(params: ConstructionParams, m: MatrixGF, label: str) -> None:
    if m.nrows != params.n - 1 or m.ncols != params.n:
        raise TheoremViolated(
            f"{label} is {m.nrows}x{m.ncols}, expected {params.n - 1}x{params.n}"
        )
    if m.rank() != params.n - 1:
        raise TheoremViolated(f"{label} is not of full row rank")


def _recurring_sequence(f: Poly, length: int) -> list:
    """s_0, ..., s_(length-1) with s_t = x^t mod f, each a row whose column
    j holds the coefficient of x^j: bitmasks over GF(2), column 0 the most
    significant bit, and code tuples otherwise.

    Shift-and-reduce: s_(t+1) is s_t shifted one column right, plus the
    coefficient that leaves column d-1 times x^d mod f = -(f_0, ..., f_(d-1)).
    """
    field, d = f.field, f.degree
    if field.q == 2:
        tail = _pack(f.coeffs[:d])
        s = 1 << d - 1
        seq = [s]
        for _ in range(length - 1):
            s = (s >> 1) ^ tail if s & 1 else s >> 1
            seq.append(s)
        return seq
    add, mul, neg, _ = field.tables()
    neg_tail = [neg[c] for c in f.coeffs[:d]]
    s = (1,) + (0,) * (d - 1)
    seq = [s]
    for _ in range(length - 1):
        top, s = s[-1], (0,) + s[:-1]
        if top:
            times = mul[top]
            s = tuple([add[a][times[c]] for a, c in zip(s, neg_tail)])
        seq.append(s)
    return seq


def _block_windows(params: ConstructionParams, i: int) -> Callable[[int], tuple]:
    """t -> the rows of the block form of A_i g^t, as MatrixGF stores them,
    written down from the recurring sequence s of f_i.

    Row j of P_i^t is x^(t+j) mod f_i = s_(t+j), so the X blocks of
    _family_matrix are the windows s_t..s_(t+k-1) (beside I_k),
    s_(t+k)..s_(t+d-1) and s_t..s_(t+k-2); the I rows are constant.
    """
    field, k, n = params.field, params.k, params.n
    w1 = (params.s - i - 1) * k
    d = i * k + params.h
    seq = _recurring_sequence(_family_poly(params, i), field.q**d - 1 + d)
    # each X row is joined to its head: I_k row j for the first k, else zero
    if field.q == 2:
        join = operator.or_
        heads = [1 << d + k - 1 - j for j in range(k)] + [0] * (d - 1)
        ident = [1 << n - 1 - r for r in range(w1)]
    else:
        join = operator.add
        heads = [(0,) * (w1 + j) + (1,) + (0,) * (k - 1 - j) for j in range(k)]
        heads += [(0,) * (w1 + k)] * (d - 1)
        ident = [(0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(w1)]

    def rows(t: int) -> tuple:
        out = list(map(join, heads, seq[t : t + d] + seq[t : t + k - 1]))
        out[d:d] = ident
        return tuple(out)

    return rows


class GeneratorEntry(Frozen):
    """One generator matrix, by its provenance inside the family, as the
    full-type flag of its row prefixes; ``flag.source`` is the matrix.
    ``normal`` is the normal of its row space, a hyperplane.

    ``kind`` is "A", "B" or "M"; ``index`` is the family index i, None for
    M; ``power`` is the group-element exponent t, only for kind "A";
    ``normal`` is a bitmask over GF(2), a code tuple otherwise."""

    __slots__ = ("kind", "index", "power", "flag", "normal")

    def __init__(self, kind: str, index: int | None, power: int | None, flag: Flag, normal: object):
        self._set_fields(kind, index, power, flag, normal)


class GeneratorSet(Frozen):
    """All generator matrices of the construction, the full-type code of
    their flags, and per family i (at index i - 1) the pair (g_i, A_i) that
    the family's matrices A_i g^t were built from.

    This is the one handle the build_* and verify_* functions take: each
    reads the (q, k, h, s) and polynomial choice it was built from in
    ``params``, so a code or report can name no other parameters.

    Every typed code of the construction is a restriction of ``full``; an
    injective one reads the full code's cached distance profile instead of
    scanning its own pairs.  Each typed code is restricted once and kept,
    so every claim on a type reads one code.  The claims read projected
    codes off ``full`` too (flags._words_at, flags._distances_at), and the
    group and orbit claims read ``families``.  Equality, hashing and the
    repr leave the cache of typed codes out.
    """

    __slots__ = ("params", "entries", "full", "families", "_restrictions")

    def __init__(
        self,
        params: ConstructionParams,
        entries: tuple[GeneratorEntry, ...],
        full: FlagCode,
        families: tuple[tuple[MatrixGF, MatrixGF], ...],
    ):
        self._set_fields(params, entries, full, families, {})

    def entry(self, kind: str, index: int | None = None, power: int | None = None) -> GeneratorEntry:
        for e in self.entries:
            if e.kind == kind and e.index == index and e.power == power:
                return e
        raise KeyError(f"no generator entry ({kind}, {index}, {power})")

    def flag_code(self, tv: TypeVector) -> FlagCode:
        """The code of type ``tv``: the full code restricted to its dimensions,
        made on the first request for ``tv`` and the same object after."""
        code = self._restrictions.get(tv)
        if code is None:
            code = self._restrictions[tv] = subsequence_code(self.full, tv)
        return code

    def projected_at_dim(self, m: int) -> SubspaceCode:
        """Row spaces of the first m rows of every generator matrix, as a
        code that scans its own words."""
        return projected_code_at_dim(self.full, m)


def build_generator_set(params: ConstructionParams) -> GeneratorSet:
    """Materialize every A_i g^t, B_i and M, and check each A_i g^t on two
    independent routes.

    The matrix-product route forms A_i g^t from the one before as
    (A_i g^(t-1)) g, g = blockdiag(I, I_k, P_i) the generator of G_i; each
    product must keep full row rank.  The recurrence route writes down the
    rows that the block identity
    A_i g^t = [0 | I_k | X^(k); 0 | 0 | X^[k]; I | 0 | 0; 0 | 0 | X^(k-1)],
    X = P_i^t, gives them: windows of the linear recurring sequence
    x^t mod f_i, made from f_i's coefficients by shift-and-reduce
    (_block_windows).  The two must agree for every t = 1..N,
    N = q^(ik+h) - 1; no power of P_i and no block matrix is formed per t.
    Then the distinct row spaces must number sum q^(ik+h) + 1.

    Each product is checked against its windows as it is formed, and the
    flags and normals of every matrix are made in one batch after
    (flags._flags_from_matrices).  The first failure in entry order is
    raised: a product that loses rank before a mismatch at the same t, and
    a singular B_i or M with flag_from_matrix's own error.

    That check also gives g^N = I, with no power of g formed: x^t mod f_i
    has period N for the primitive f_i, so the windows at t = N are those at
    t = 0, which are A_i's rows, and A_i g^N = A_i.  The last column block
    of A_i's rows holds every row of I_(ik+h), so P_i^N = I and g^N = I.
    The group order claim of run_claim_suite forms g^N once, on the g_i
    kept in ``families``, and still raises when it is not the identity."""
    _check_size(params)
    n = params.n
    families: list[tuple[MatrixGF, MatrixGF]] = []
    full_tv = TypeVector.full(n)
    # every generator matrix, in entry order, with its (kind, i, t), up to
    # the first that fails its block form
    mats: list[MatrixGF] = []
    labels: list[tuple] = []
    mismatch = None
    for i in range(1, params.s):
        gen = build_G_generator(params, i)
        m_t = build_A(params, i)
        families.append((gen, m_t))
        order = params.q ** (i * params.k + params.h) - 1
        windows = _block_windows(params, i)
        step = gen._tabulated()  # g with product tables, for this loop only
        for t in range(1, order + 1):
            m_t = m_t @ step
            mats.append(m_t)
            labels.append(("A", i, t))
            if m_t._rows != windows(t):
                mismatch = f"A_{i} g^{t} does not match its block form"
                break
        if mismatch:
            break
        mats.append(build_B(params, i))
        labels.append(("B", i, None))
    else:
        mats.append(build_M(params))
        labels.append(("M", None, None))

    # the flags and normals of all of them in one batch; a matrix that
    # loses rank comes before any later one, and before a mismatch at its t
    try:
        flags, lanes = _flags_from_matrices(mats, full_tv)
    except RankDeficientPrefix as err:
        kind, i, t = labels[err.index]
        if kind != "A":
            raise
        raise TheoremViolated(f"A_{i} g^{t} lost row rank") from None
    if mismatch:
        raise TheoremViolated(mismatch)
    if lanes is None:
        normals = [_hyperplane_normal(f._rows, n, params.field) for f in flags]
    else:
        normals = lanes.normals()
    entries = [GeneratorEntry(*label, f, c) for label, f, c in zip(labels, flags, normals)]

    # a hyperplane is its normal; no Subspace or key rows are made here
    distinct = len({e.normal for e in entries})
    if distinct != params.expected_size:
        raise CardinalityMismatch(
            f"{distinct} distinct row spaces, expected {params.expected_size}"
        )
    full = FlagCode(full_tv, (e.flag for e in entries))
    return GeneratorSet(params, tuple(entries), full, tuple(families))


def _group_order(g: MatrixGF, n: int) -> int:
    """The multiplicative order of ``g``, certified by prime descent from a
    multiple n of it.

    g^n must be the identity, or TheoremViolated is raised; for the g_i of
    a generator set this is the one g^N a claim suite forms.  Then for each
    prime r dividing n, n is divided by r while g^(n/r) is still the
    identity; what is left is the order.  Each step is one power, O(log n)
    products, where walking the powers up to the identity (matrix_order)
    takes n."""
    ident = MatrixGF.identity(g.field, g.nrows)
    if g**n != ident:
        raise TheoremViolated(f"generator order does not divide {n}")
    for r in factorize(n):
        while n % r == 0 and g ** (n // r) == ident:
            n //= r
    return n


def build_full_flag_code(gen: GeneratorSet) -> FlagCode:
    """One full-type flag per generator matrix, via its row prefixes: the
    generator set's ``full``, whose size build_generator_set has checked."""
    return gen.full


def build_optimum_code(gen: GeneratorSet) -> FlagCode:
    """The admissible-type code of ``gen``, once run_claim_suite's optimum
    claims (_optimum_claims) pass on it: its size, the maximum distance and
    the equivalent tests of optimality (_checked_code)."""
    return _checked_code(gen, _optimum_claims)


def _longer_type(params: ConstructionParams, type_: TypeVector | None) -> TypeVector:
    """``type_``, or the master type when it is None, checked as a type of
    the longer-type family.

    A type that is not a subsequence of the master type raises
    NotASubsequence.  One whose guaranteed distance is 0 (each of its dims
    is 2k+h with s = 4 and h = 0) raises ValueError: its flags may
    coincide, so no claim on its size or distance holds."""
    mt = master_type(params)
    tv = type_ if type_ is not None else mt
    if not tv.is_subsequence_of(mt):
        raise NotASubsequence(f"{tv.dims} is not a subsequence of {mt.dims}")
    if not expected_restricted_distance(params, tv):
        dims = ", ".join(map(str, tv.dims))
        raise ValueError(
            f"type {tv.dims} has guaranteed distance 0: at dim {dims} it is 2h = 0, "
            "so its flags may coincide; keep a dim of positive guarantee"
        )
    return tv


def build_longer_type_code(gen: GeneratorSet, type_: TypeVector | None = None) -> FlagCode:
    """The master-type code of ``gen`` or any subsequence of it (_longer_type),
    once run_claim_suite's longer-type claims (_longer_claims) pass on it:
    its size, distance and cardinality consistency (_checked_code)."""
    return _checked_code(gen, _longer_claims, _longer_type(gen.params, type_))


def _checked_code(gen: GeneratorSet, claims: Callable[..., FlagCode], *args) -> FlagCode:
    """The code that the claim group ``claims`` checks on a report of its
    own; TheoremViolated names every claim of the group that failed."""
    _check_kernel_prime(gen.params.field.p)  # a refused scan breaks no theorem
    rep = VerificationReport(gen.params.describe())
    code = claims(rep, gen, *args)
    failed = "; ".join(f"{c.claim_id}: expected {c.expected!r}, computed {c.computed!r}"
                       for c in rep.claims if not c.passed)
    if failed:
        raise TheoremViolated(failed)
    return code


# -- verification reports -------------------------------------------------------


class Claim(Record):
    """One checked statement with its expected and computed values."""

    __slots__ = ("claim_id", "statement", "expected", "computed", "passed", "seconds")

    def __init__(self, claim_id: str, statement: str, expected: object, computed: object,
                 passed: bool, seconds: float):
        self._set_fields(claim_id, statement, expected, computed, passed, seconds)

    def to_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f'{self.claim_id} {self.expected!r} {self.computed!r} {verdict} "{self.statement}"'


class VerificationReport(Record):
    """Structured pass/fail record of every checked claim."""

    __slots__ = ("params", "type_dims", "claims")

    def __init__(self, params: dict, type_dims: tuple[int, ...] | None = None,
                 claims: list[Claim] | None = None):
        self._set_fields(params, type_dims, [] if claims is None else claims)

    def check(
        self,
        claim_id: str,
        statement: str,
        expected: object,
        compute: Callable[[], object],
    ) -> bool:
        start = perf_counter()
        try:
            computed = compute()
        except Exception as exc:  # report-based: record the failure, keep going
            computed = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        passed = computed == expected
        self.claims.append(Claim(claim_id, statement, expected, computed, passed, elapsed))
        return passed

    def skip(self, claim_id: str, statement: str, reason: str) -> None:
        self.claims.append(Claim(claim_id, statement, reason, reason, True, 0.0))

    def extend(self, other: VerificationReport) -> None:
        self.claims.extend(other.claims)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def totals(self) -> dict:
        return {
            "claims": len(self.claims),
            "passed": sum(c.passed for c in self.claims),
            "failed": sum(not c.passed for c in self.claims),
            "seconds": round(sum(c.seconds for c in self.claims), 6),
        }

    def to_text(self) -> str:
        lines = [c.to_text() for c in self.claims]
        t = self.totals
        lines.append(
            f"# {t['passed']}/{t['claims']} claims passed in {t['seconds']:.3f}s"
        )
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "params": self.params,
            "type": list(self.type_dims) if self.type_dims else None,
            "claims": [
                {
                    "id": c.claim_id,
                    "anchor": c.statement,
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "pass": c.passed,
                    "seconds": round(c.seconds, 6),
                }
                for c in self.claims
            ],
            "totals": self.totals,
        }


def _jsonable(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return repr(value)


# -- verification operations ----------------------------------------------------


def verify_spread_projections(gen: GeneratorSet) -> VerificationReport:
    """Check the k-projection (a partial k-spread of full size) and the
    (n-k)-projection (maximum distance 2k, full size) of ``gen``'s full
    code; the report names ``gen.params``."""
    params = gen.params
    rep = VerificationReport(params.describe())
    k, n = params.k, params.n
    size = params.expected_size

    full = gen.full
    rep.check(
        "projected.k.partial_spread",
        f"the {k}-projected code is a partial {k}-spread",
        True,
        lambda: all(d == 2 * k for d in _distances_at(full, k - 1)),
    )
    rep.check(
        "projected.k.cardinality",
        f"the {k}-projected code has sum(q^(ik+h)) + 1 = {size} words",
        size,
        lambda: _words_at(full, k - 1),
    )
    rep.check(
        "projected.n_minus_k.min_distance",
        f"the {n - k}-projected code attains the maximum distance 2k = {2 * k}",
        2 * k,
        lambda: min(_distances_at(full, n - k - 1)),
    )
    rep.check(
        "projected.n_minus_k.cardinality",
        f"the {n - k}-projected code has {size} words",
        size,
        lambda: _words_at(full, n - k - 1),
    )
    return rep


def verify_intermediate_distances(gen: GeneratorSet) -> VerificationReport:
    """Check the projected codes of ``gen`` at every middle dimension of the
    master type (distance 2k, or 2h at 2k+h when s = 4) and the witness pair
    (A_i g^k, B_i), which must sit at distance exactly 2k at each level.

    The minimum distance at dimension m is read over the flag pairs of the
    full-type code, which is the projected code's minimum whenever the
    projection is injective.  Injectivity (|C| words) is claimed only where
    the guaranteed distance is positive: at 2h = 0 two flags may share their
    m-dimensional part."""
    params = gen.params
    rep = VerificationReport(params.describe())
    k, h, s = params.k, params.h, params.s
    size = params.expected_size

    for m in middle_dims(params):
        expected_d = _guaranteed_distance(params, m)
        rep.check(
            f"middle.dim{m}.min_distance",
            f"the {m}-projected code has minimum distance {expected_d}",
            expected_d,
            lambda m=m: min(vec[m - 1] for vec in gen.full.distance_profile()),
        )
        statement = f"the {m}-projected code has {size} words"
        if expected_d:
            rep.check(f"middle.dim{m}.cardinality", statement, size,
                      lambda m=m: _words_at(gen.full, m - 1))
        else:
            rep.skip(f"middle.dim{m}.cardinality", statement, _unguaranteed_reason(m))
    for i in range(1, s):
        if i == 1 and h == 0:
            continue  # k+1 > ik+h: the witness argument needs i >= 2 or h >= 1
        for m in middle_dims(params):
            rep.check(
                f"witness.family{i}.dim{m}",
                f"distance of (A_{i} g^k, B_{i}) at level {m} equals 2k",
                2 * k,
                lambda i=i, m=m: _witness_distance(gen, i, m),
            )
    return rep


def _unguaranteed_reason(*dims: int) -> str:
    listed = ", ".join(map(str, dims))
    return (f"skipped: the guaranteed distance at dim {listed} is 2h = 0, "
            "so two flags may share that part")


def _witness_distance(gen: GeneratorSet, i: int, m: int) -> int:
    # part m-1 of a full-type flag is the row space of the first m rows
    a_flag = gen.entry("A", i, gen.params.k).flag
    b_flag = gen.entry("B", i).flag
    return subspace_distance(a_flag._part(m - 1), b_flag._part(m - 1))


def verify_orbit_decomposition(gen: GeneratorSet) -> VerificationReport:
    """Check that the generator family ``gen`` is the disjoint union of s-1
    full orbits (trivial stabilizers) plus the s extra spaces from the B_i
    and M.

    Every space here is a hyperplane, and each is compared by its normal
    vector (_hyperplane_normal): a generator matrix's is the one its entry
    keeps (GeneratorEntry.normal), and the seed A_i's is solved from its
    RREF key rows.  The orbit of A_i under G_i is walked on its normal:
    N = q^(ik+h) - 1 steps c_t = g^-1 c_(t-1) give the normals of A_i g^t
    for t = 1..N (_normal_walk), one sparse matrix-vector product each,
    with g^-1 taken from the rref of [g | I].
    The seed A_i and the generator g_i are the ones the generator set was
    built from (GeneratorSet.families); the walk shares no per-step
    arithmetic with the set's products A_i g^t.  The orbit is the set of
    the c_t, and the stabilizer counts the c_t equal to c_0."""
    params = gen.params
    rep = VerificationReport(params.describe())
    k, h, s, n, field = params.k, params.h, params.s, params.n, params.field

    orbit_keys: list[set] = []
    for i, (g, a) in enumerate(gen.families, start=1):
        order = params.q ** (i * k + h) - 1
        seed = _hyperplane_normal(subspace_of(a).key[1], n, field)
        walk = _normal_walk(seed, g, order)
        orbit = set(walk)
        orbit_keys.append(orbit)
        rep.check(
            f"orbit.family{i}.size",
            f"the orbit of A_{i} under G_{i} has q^(ik+h) - 1 = {order} spaces",
            order,
            lambda orbit=orbit: len(orbit),
        )
        rep.check(
            f"orbit.family{i}.stabilizer",
            f"the stabilizer of A_{i} in G_{i} is trivial",
            1,
            lambda walk=walk, seed=seed: walk.count(seed),
        )
    rep.check(
        "orbit.pairwise_disjoint",
        "distinct family orbits share no row space",
        True,
        lambda: all(
            not (orbit_keys[i] & orbit_keys[j])
            for i in range(len(orbit_keys))
            for j in range(i + 1, len(orbit_keys))
        ),
    )
    extras = [gen.entry("B", i) for i in range(1, s)] + [gen.entry("M")]
    extra_keys = {e.normal for e in extras}
    rep.check(
        "orbit.extras_distinct",
        "the B_i and M spaces are mutually distinct and outside every orbit",
        True,
        lambda: len(extra_keys) == s
        and all(not (extra_keys & ok) for ok in orbit_keys),
    )
    rep.check(
        "orbit.union_matches",
        "orbits plus extras reproduce the whole generator family",
        True,
        lambda: set.union(extra_keys, *orbit_keys) == {e.normal for e in gen.entries},
    )
    return rep


def verify_maximality(gen: GeneratorSet) -> VerificationReport:
    """When k > (q^h - 1)/(q - 1), the size of ``gen``'s master-type code
    must match the closed-form maximum partial-spread size; otherwise the
    bound is recorded as not applicable."""
    params = gen.params
    rep = VerificationReport(params.describe())
    statement = "code size attains the maximum partial-spread cardinality"
    try:
        bound = max_partial_spread_size(params.q, params.k, params.n)
    except HypothesisUnmet as exc:
        rep.skip("maximality.cardinality", statement, f"skipped: {exc}")
        return rep
    rep.check(
        "maximality.cardinality",
        statement,
        bound,
        lambda: len(gen.flag_code(master_type(params))),
    )
    return rep


def _deficit_claims(
    rep: VerificationReport, prefix: str, code: FlagCode
) -> None:
    """Claims driven by the observed deficit ell of a code: the inner/outer
    split equivalence, the additive split of the maximum distance, prefix
    cardinalities, and full-type cardinality consistency."""
    tv = code.type
    cls = classify(code)
    ell = cls.deficit
    ab = ab_indices(tv)
    r = tv.r
    if ab.a is None or ab.b is None or ell < 1:
        return
    if ell <= min(ab.a - 1, r - ab.b):
        inner, outer = split_type(tv, ell)
        rep.check(
            f"{prefix}.split_additivity",
            f"max distance of {tv.dims} splits across {inner.dims} + {outer.dims}",
            True,
            lambda: distance_decomposition_check(tv, ell),
        )
        inner_code = subsequence_code(code, inner)
        rep.check(
            f"{prefix}.split_inner_distance",
            f"the {inner.dims} restriction has distance max - {2 * ell}",
            max_flag_distance(inner) - 2 * ell,
            lambda: code_flag_min_distance(inner_code),
        )
        outer_code = subsequence_code(code, outer)
        rep.check(
            f"{prefix}.split_outer_optimum",
            f"the {outer.dims} restriction attains its maximum distance",
            True,
            lambda: classify(outer_code).is_optimum,
        )
        rep.check(
            f"{prefix}.prefix_cardinalities",
            f"the first {ab.a} projected codes all have |C| words",
            True,
            lambda: all(_words_at(code, i) == len(code) for i in range(ab.a)),
        )
    if tv.is_full and ell <= min(ab.a - 1, tv.n - 1 - ab.b):
        rep.check(
            f"{prefix}.cardinality_consistent_by_deficit",
            "a full-type code this close to the maximum is cardinality-consistent",
            True,
            lambda: is_cardinality_consistent(code),
        )


def run_claim_suite(
    params: ConstructionParams,
    type_: TypeVector | None = None,
    loaded: FlagCode | None = None,
) -> VerificationReport:
    """Build the generator set of ``params``, run every claim applicable to
    it and return one report.

    ``type_`` overrides the master type used for the longer-type family,
    which runs only for s >= 3; a ``type_`` at s = 2 raises ValueError, and
    one that _longer_type refuses raises before the set is built.  Before
    either, a field whose pair scans _check_kernel_prime refuses is refused
    first of all, and then an instance _check_size refuses.
    ``loaded`` optionally checks an externally supplied flag code against the
    freshly constructed family of the same type.
    """
    _check_kernel_prime(params.field.p)
    _check_size(params)
    rep = VerificationReport(params.describe())
    size = params.expected_size
    k, h, s = params.k, params.h, params.s
    if type_ is not None and s < 3:
        raise ValueError(
            f"type {type_.dims} applies to the longer-type family, which runs only "
            f"for s >= 3, but s = {s}"
        )
    tv = _longer_type(params, type_)
    rep.type_dims = tv.dims

    gen = build_generator_set(params)
    rep.check(
        "generator.cardinality",
        f"the generator family has sum(q^(ik+h)) + 1 = {size} distinct row spaces",
        size,
        lambda: len({e.normal for e in gen.entries}),
    )
    for i, (g, _) in enumerate(gen.families, start=1):
        order = params.q ** (i * k + h) - 1
        rep.check(
            f"group.family{i}.order",
            f"G_{i} has order q^(ik+h) - 1 = {order}",
            order,
            lambda g=g, order=order: _group_order(g, order),
        )

    rep.extend(verify_spread_projections(gen))

    full_code = gen.full
    rep.check(
        "full.cardinality",
        f"the full-type code has {size} flags",
        size,
        lambda: len(full_code),
    )
    if s == 2:
        expected_d = 2 * k * (k + h)
        rep.check(
            "full.min_distance",
            f"the full-type code has distance 2k(k+h) = {expected_d}",
            expected_d,
            lambda: code_flag_min_distance(full_code),
        )
        rep.check(
            "full.cardinality_consistent",
            "the full-type code is cardinality-consistent",
            True,
            lambda: is_cardinality_consistent(full_code),
        )
        top = max_flag_distance(full_code.type)
        rep.check(
            "full.classification",
            "classification of the full-type code",
            Classification(expected_d, top, (top - expected_d) // 2).label,
            lambda: classify(full_code).label,
        )
    _deficit_claims(rep, "full", full_code)

    _optimum_claims(rep, gen)
    if s >= 3:
        _longer_claims(rep, gen, tv)

    rep.extend(verify_intermediate_distances(gen))
    rep.extend(verify_orbit_decomposition(gen))
    rep.extend(verify_maximality(gen))

    if loaded is not None:
        _loaded_claims(rep, gen, loaded)
    return rep


def _optimum_claims(rep: VerificationReport, gen: GeneratorSet) -> FlagCode:
    """The optimum family's claims on ``rep``: the admissible-type code of
    ``gen``, returned, has its size and attains the maximum distance."""
    params = gen.params
    size = params.expected_size
    tv = admissible_type(params)
    code = gen.flag_code(tv)
    rep.check(
        "optimum.admissible_type",
        f"every type dimension is <= k or >= n-k and k is present: {tv.dims}",
        True,
        lambda: admissible_type_check(tv, params.k),
    )
    rep.check(
        "optimum.cardinality",
        f"the admissible-type code has {size} flags",
        size,
        lambda: len(code),
    )
    rep.check(
        "optimum.min_distance",
        f"the admissible-type code attains the maximum distance {max_flag_distance(tv)}",
        max_flag_distance(tv),
        lambda: code_flag_min_distance(code),
    )
    rep.check(
        "optimum.classification",
        "the admissible-type code classifies as optimum",
        "optimum",
        lambda: classify(code).label,
    )
    rep.check(
        "optimum.ab_equivalence",
        "optimality matches the projected-code test at the pivotal indices",
        True,
        lambda: optimum_check_ab(code),
    )
    rep.check(
        "optimum.cardinality_consistent",
        "the admissible-type code is cardinality-consistent",
        True,
        lambda: is_cardinality_consistent(code),
    )
    rep.check(
        "optimum.projected_equivalence",
        "optimum iff cardinality-consistent with every projection at max distance",
        True,
        lambda: _projected_equivalence(code),
    )
    return code


def _longer_claims(rep: VerificationReport, gen: GeneratorSet, tv: TypeVector) -> FlagCode:
    """The longer-type family's claims on ``rep``: the code of type ``tv``
    (_longer_type), returned, has its size, distance and consistency."""
    params = gen.params
    size = params.expected_size
    code = gen.flag_code(tv)
    expected_d = expected_restricted_distance(params, tv)
    rep.check(
        "longer.cardinality",
        f"the type {tv.dims} code has {size} flags",
        size,
        lambda: len(code),
    )
    rep.check(
        "longer.min_distance",
        f"the type {tv.dims} code has distance {expected_d}",
        expected_d,
        lambda: code_flag_min_distance(code),
    )
    statement = f"the type {tv.dims} code is cardinality-consistent"
    unguaranteed = _unguaranteed_dims(params, tv)
    if unguaranteed:
        rep.skip("longer.cardinality_consistent", statement, _unguaranteed_reason(*unguaranteed))
    else:
        rep.check(
            "longer.cardinality_consistent",
            statement,
            True,
            lambda: is_cardinality_consistent(code),
        )
    _deficit_claims(rep, "longer", code)
    return code


def _projected_equivalence(code: FlagCode) -> bool:
    tv = code.type
    consistent = is_cardinality_consistent(code)
    # the i-th projected code's minimum distance (None for a single word)
    all_max = all(
        min(_distances_at(code, i), default=None) == 2 * min(d, tv.n - d)
        for i, d in enumerate(tv.dims)
    )
    return (consistent and all_max) == classify(code).is_optimum


def _loaded_claims(rep: VerificationReport, gen: GeneratorSet, loaded: FlagCode) -> None:
    """Validate an externally loaded code against the constructed family of
    the same type."""
    params = gen.params
    tv = loaded.type
    size = params.expected_size
    rep.check(
        "loaded.cardinality",
        f"the loaded code has {size} flags",
        size,
        lambda: len(loaded),
    )
    # a longer type of guaranteed distance 0 is one the family refuses
    expected_d = expected_restricted_distance(params, tv)
    longer = tv.is_subsequence_of(master_type(params)) and expected_d > 0
    if not (longer or tv in (TypeVector.full(params.n), admissible_type(params))):
        rep.check(
            "loaded.type_recognized",
            f"the loaded type {tv.dims} matches a constructible family",
            True,
            lambda: False,
        )
        return
    ref = gen.flag_code(tv)
    rep.check(
        "loaded.matches_construction",
        f"the loaded code equals the constructed type {tv.dims} family",
        True,
        lambda: ref == loaded,
    )
    if longer:
        rep.check(
            "loaded.min_distance",
            f"the loaded code has distance {expected_d}",
            expected_d,
            lambda: code_flag_min_distance(loaded),
        )
