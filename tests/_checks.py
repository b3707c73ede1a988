"""Shared oracle-style checks used by both the module tests and the
acceptance suite.

Everything here recomputes its target by a route independent of the code it
checks: vector-set enumeration instead of rank arithmetic, successive
multiplication instead of factored order tests, explicit row-times-matrix
products instead of the shift structure being verified and of the packed
GF(2) product (``mat_mul_oracle``), pair-by-pair
``subspace_distance`` / ``flag_distance`` calls instead of the cached
level-by-level code scan, projected codes built from their own words
instead of read off the flag code's profile and part keys, one
elimination basis per pair instead of the bit-sliced scan over the prime
field, and whole-matrix Gauss-Jordan
elimination (``rref_oracle``, and on it ``normal_form_oracle``) instead of
the one-row-at-a-time echelon pass that ``MatrixGF.rref``, ``subspace_of``
and ``flag_from_matrix`` share, flags rebuilt through the nesting-checked
``Flag`` constructor instead of the unchecked restriction
``subsequence_code`` makes, each orbit image
made from a fresh power g**t instead of stepped by g (``orbit_by_powers``),
and a hyperplane's normal found among all q^n vectors instead of read off
its RREF key (``normal_oracle``).
"""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, product
from pathlib import Path

import flagcodes as fc
from flagcodes.flags import _distances_at, _words_at


def _sweep_script():
    """scripts/run_verification_sweep.py as a module, the one source of the
    instance lists; its main() does not run."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_sweep.py"
    spec = importlib.util.spec_from_file_location("flagcodes_verification_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SWEEP_SCRIPT = _sweep_script()
# the standard sweep's INSTANCES and the --big tier's BIG_INSTANCES, as
# (q, k, h, s)
SWEEP: list[tuple[int, int, int, int]] = _SWEEP_SCRIPT.INSTANCES
BIG_INSTANCES: list[tuple[int, int, int, int]] = _SWEEP_SCRIPT.BIG_INSTANCES


def poly_choices(q: int, k: int, h: int, s: int) -> list[int]:
    """The poly_choice values of 0 and 1 for which the field has that many
    primitive polynomials of every degree the construction needs."""
    field = fc.field_from_order(q)
    return [
        c for c in (0, 1)
        if all(len(list(islice(fc.iter_primitive_polys(field, i * k + h), c + 1))) > c
               for i in range(1, s))
    ]


# every standard sweep instance at each poly choice it has
SWEEP_CHOICES: list[tuple[tuple[int, int, int, int], int]] = [
    (qkhs, c) for qkhs in SWEEP for c in poly_choices(*qkhs)
]


def choice_ids(choices) -> list[str]:
    """Test ids such as "q2k2h1s3-pc0" for ((q, k, h, s), poly choice) pairs."""
    return ["q{}k{}h{}s{}-pc{}".format(*qkhs, c) for qkhs, c in choices]


def strip_seconds(obj):
    """A report's JSON object without its timings: every "seconds" key removed."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


# -- GF(2) subspaces as explicit vector sets ------------------------------------


def enumerate_gf2_subspaces(n: int) -> list[frozenset[int]]:
    """All nonzero subspaces of GF(2)^n as frozensets of packed vectors.

    Built by closing smaller subspaces under one extra generator, which only
    uses XOR; the zero vector is included in every set.
    """
    zero = frozenset({0})
    by_dim: dict[int, set[frozenset[int]]] = {0: {zero}}
    for dim in range(n):
        nxt: set[frozenset[int]] = set()
        for space in by_dim[dim]:
            for v in range(1, 1 << n):
                if v not in space:
                    nxt.add(frozenset(space | {x ^ v for x in space}))
        by_dim[dim + 1] = nxt
    out: list[frozenset[int]] = []
    for dim in range(1, n + 1):
        out.extend(sorted(by_dim[dim], key=sorted))
    return out


def gf2_subspace_from_vectors(vectors: frozenset[int], n: int) -> fc.Subspace:
    gf2 = fc.field_make(2)
    rows = [[(v >> j) & 1 for j in range(n)] for v in sorted(vectors) if v]
    return fc.subspace_of(fc.MatrixGF(gf2, rows, ncols=n))


def check_metric_axioms_exhaustive(n: int) -> int:
    """Symmetry, identity of indiscernibles, and the triangle inequality for
    the subspace distance, over all nonzero subspaces of GF(2)^n.  Returns
    the number of subspaces covered."""
    vecsets = enumerate_gf2_subspaces(n)
    subs = [gf2_subspace_from_vectors(vs, n) for vs in vecsets]
    m = len(subs)
    dist = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            dist[i][j] = dist[j][i] = fc.subspace_distance(subs[i], subs[j])
    for i in range(m):
        assert dist[i][i] == 0
        for j in range(m):
            if i != j:
                assert dist[i][j] > 0, "distinct subspaces at distance zero"
            assert dist[i][j] == dist[j][i]
    for i in range(m):
        di = dist[i]
        for j in range(m):
            dj = dist[j]
            dij = di[j]
            for k in range(m):
                assert di[k] <= dij + dj[k], "triangle inequality failed"
    return m


def check_intersection_oracle(n: int) -> int:
    """Compare the rank-formula intersection dimension against counting the
    common vectors of the two spaces.  Returns the number of pairs checked."""
    vecsets = enumerate_gf2_subspaces(n)
    subs = [gf2_subspace_from_vectors(vs, n) for vs in vecsets]
    pairs = 0
    for i, (vs_u, u) in enumerate(zip(vecsets, subs)):
        for vs_v, v in zip(vecsets[i:], subs[i:]):
            common = len(vs_u & vs_v)
            expected = common.bit_length() - 1  # common is a power of two
            assert 1 << expected == common
            assert fc.intersection_dim(u, v) == expected
            pairs += 1
    return pairs


# -- cyclic orbits ---------------------------------------------------------------


def orbit_by_powers(u: fc.Subspace, g: fc.MatrixGF, order: int) -> tuple[fc.SubspaceCode, int]:
    """(orbit code, stabilizer order) of ``u`` under the cyclic group of
    ``g``, from g**t formed afresh for every t = 1..order and each image the
    explicit product ``mat_mul_oracle`` of u's generator and g**t, reduced by
    ``rref_oracle``; independent of the orbit walk, which steps one image by
    g and canonicalizes it through Subspace.transform."""
    images = []
    for t in range(1, order + 1):
        image = fc.MatrixGF(u.field, mat_mul_oracle(u.canon, g**t), ncols=u.ambient)
        reduced, rank = rref_oracle(image)
        images.append(fc.Subspace(u.field, u.ambient, key_rows_oracle(reduced.first_rows(rank))))
    return fc.SubspaceCode(u.ambient, images), images.count(u)


@lru_cache(maxsize=None)
def scaled_vectors(field: fc.FieldSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """Every vector of GF(q)^n whose last nonzero entry is 1."""
    return tuple(
        v for v in product(range(field.q), repeat=n)
        if any(v) and next(x for x in reversed(v) if x) == 1
    )


def normal_oracle(u: fc.Subspace):
    """The normal c of the hyperplane ``u`` = {x : x.c = 0} whose last
    nonzero entry is 1, found by trying every such vector of GF(q)^n against
    every row of u's generator; in the form of the package's rows, a
    bitmask over GF(2) (column 0 the most significant bit) and a code tuple
    otherwise."""
    field = u.field
    add, mul = field.add, field.mul
    rows = u.canon.int_rows()
    found = []
    for c in scaled_vectors(field, u.ambient):
        for row in rows:
            dot = 0
            for a, b in zip(row, c):
                if a and b:
                    dot = add(dot, mul(a, b))
            if dot:
                break
        else:
            found.append(c)
    assert len(found) == 1, f"{len(found)} normals: not a hyperplane"
    c = found[0]
    return int("".join(map(str, c)), 2) if field.q == 2 else c


# -- companion-matrix row structure ----------------------------------------------


def _row_times_matrix(field: fc.FieldSpec, row: tuple[int, ...], mat: fc.MatrixGF) -> tuple[int, ...]:
    add, mul = field.add, field.mul
    rows = mat.int_rows()
    out = [0] * mat.ncols
    for j, v in enumerate(row):
        if v:
            for c, w in enumerate(rows[j]):
                if w:
                    out[c] = add(out[c], mul(v, w))
    return tuple(out)


def mat_mul_oracle(a: fc.MatrixGF, b: fc.MatrixGF) -> tuple[tuple[int, ...], ...]:
    """The product a*b as a tuple grid of element codes: one explicit
    row-times-matrix product per row of ``a``, on the int_rows() grids and
    the field's add and mul, independent of the packed GF(2) product."""
    assert a.field == b.field and a.ncols == b.nrows
    return tuple(_row_times_matrix(a.field, row, b) for row in a.int_rows())


def check_companion_row_identities(q: int, k: int) -> None:
    """Exhaustively check, for the companion matrix P of the smallest
    primitive degree-k polynomial over GF(q), that for 1 <= i <= q^k - 1 and
    1 <= j <= k the j-th row of P^i equals both (row 1 of P^i) P^(j-1) and
    (row 1 of P) P^(i+j-2), and that early rows coincide with shifted
    identity rows."""
    field = fc.field_from_order(q)
    p = fc.companion(fc.find_primitive_poly(field, k))
    order = q**k - 1
    ident = fc.MatrixGF.identity(field, k).int_rows()
    prows = p.int_rows()
    # (i): row j of P is identity row j+1 for j <= k-1
    for j in range(1, k):
        assert prows[j - 1] == ident[j]

    small_powers = [fc.MatrixGF.identity(field, k)]
    for _ in range(k - 1):
        small_powers.append(small_powers[-1] @ p)

    v11 = prows[0]
    # w[t] = v11 P^t, extended on demand
    w = [v11]
    needed = order + k - 2
    for _ in range(needed):
        w.append(_row_times_matrix(field, w[-1], p))

    power = p
    for i in range(1, order + 1):
        rows_i = power.int_rows()
        vi1 = rows_i[0]
        if i <= k - 1:
            assert vi1 == ident[i]  # (iii)
        for j in range(1, k + 1):
            vij = rows_i[j - 1]
            assert vij == _row_times_matrix(field, vi1, small_powers[j - 1])  # (ii)
            assert vij == w[i + j - 2]  # (ii), second form
        if i < order:
            power = power @ p


def check_row_window_propagation(q: int, k: int, trials: int, seed: int) -> int:
    """Search for cases where every row of a window of P^a lies in the row
    span of a window of P^b, and check the containment survives extending
    both windows by one row.  Returns the number of premise instances found."""
    field = fc.field_from_order(q)
    p = fc.companion(fc.find_primitive_poly(field, k))
    order = q**k - 1
    rng = random.Random(seed)
    powers = [None, p]
    for _ in range(order - 1):
        powers.append(powers[-1] @ p)
    found = 0
    for _ in range(trials):
        a = rng.randrange(1, order)
        b = rng.randrange(a + 1, order + 1)
        x = rng.randrange(1, k - 1)
        y = rng.randrange(x + 1, k)
        x2 = rng.randrange(1, k - 1)
        y2 = rng.randrange(x2 + 1, k)
        inner = powers[a].row_range(x, y)
        outer = powers[b].row_range(x2, y2)
        if fc.rows_in_row_space(inner, outer):
            found += 1
            assert fc.rows_in_row_space(
                powers[a].row_range(x, y + 1), powers[b].row_range(x2, y2 + 1)
            )
    return found


# -- canonical forms --------------------------------------------------------------


def _random_matrix(field: fc.FieldSpec, rng: random.Random, nrows: int, ncols: int) -> fc.MatrixGF:
    return fc.MatrixGF(
        field,
        [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def _random_invertible(field: fc.FieldSpec, rng: random.Random, n: int) -> fc.MatrixGF:
    while True:
        m = _random_matrix(field, rng, n, n)
        if m.rank() == n:
            return m


def check_rref_canonicality(trials: int, max_n: int, seed: int) -> None:
    """Random invertible row mixes must not change the reduced form."""
    rng = random.Random(seed)
    fields = [fc.field_make(2), fc.field_make(3)]
    for _ in range(trials):
        field = rng.choice(fields)
        nrows = rng.randrange(1, max_n + 1)
        ncols = rng.randrange(1, max_n + 1)
        a = _random_matrix(field, rng, nrows, ncols)
        t = _random_invertible(field, rng, nrows)
        assert (t @ a).rref()[0] == a.rref()[0]
        reduced, _ = a.rref()
        assert reduced.rref()[0] == reduced


# -- split additivity --------------------------------------------------------------


def check_split_additivity_exhaustive(max_n: int) -> int:
    """The maximum flag distance must be additive across every valid split of
    every type vector on every ambient dimension up to max_n.  Returns the
    number of (type, depth) pairs checked."""
    checked = 0
    for n in range(2, max_n + 1):
        dims_pool = range(1, n)
        for r in range(1, n):
            for dims in combinations(dims_pool, r):
                tv = fc.TypeVector(n, dims)
                ab = fc.ab_indices(tv)
                if ab.a is not None and ab.b is not None:
                    limit = min(ab.a - 1, tv.r - ab.b)
                elif ab.a is not None:
                    limit = ab.a - 1
                else:
                    limit = tv.r - ab.b
                for ell in range(1, limit + 1):
                    assert fc.distance_decomposition_check(tv, ell)
                    checked += 1
    return checked


# -- the cached code scan against the single-pair API ------------------------------


def pairwise_spectrum(code: fc.SubspaceCode) -> Counter:
    """Distance -> pair count of a subspace code, one subspace_distance per pair."""
    return Counter(fc.subspace_distance(u, v) for u, v in combinations(code.words, 2))


def check_projection(code: fc.FlagCode, i: int) -> tuple[fc.SubspaceCode, Counter]:
    """The i-th (1-based) projected code as the claim suite reads it off
    ``code``'s profile and part keys (flags._words_at, flags._distances_at)
    against the code ``projected_code`` makes: as many words, and the
    distances of its pair-by-pair spectrum.  Returns the projected code and
    that spectrum."""
    projected = fc.projected_code(code, i)
    oracle = pairwise_spectrum(projected)
    assert _words_at(code, i - 1) == len(projected)
    assert _distances_at(code, i - 1) == set(oracle)
    return projected, oracle


def check_scan_against_pairwise(code: fc.FlagCode) -> int:
    """The code's cached distance profile, its flag-distance spectrum, and
    every projected code's spectrum and minimum distance, own scan and as
    read off the code (check_projection), must match the pair-by-pair
    oracle.  Returns the number of flag pairs checked."""
    profile: Counter = Counter()
    sums: Counter = Counter()
    for f, g in combinations(code.flags, 2):
        profile[tuple(fc.subspace_distance(u, v) for u, v in zip(f.parts, g.parts))] += 1
        sums[fc.flag_distance(f, g)] += 1
    assert code.distance_profile() == profile
    if len(code) >= 2:
        assert fc.code_flag_min_distance(code) == min(sums)
    for i in range(1, code.type.r + 1):
        projected, oracle = check_projection(code, i)
        assert projected.spectrum() == oracle
        # the deduplication rule: the projected minimum is the smallest
        # nonzero i-th entry of the profile
        nonzero = [vec[i - 1] for vec in profile if vec[i - 1]]
        assert bool(nonzero) == (len(projected) >= 2)
        if nonzero:
            assert fc.code_min_distance(projected) == min(oracle) == min(nonzero)
    return sum(profile.values())


def check_restriction(code: fc.FlagCode, sub: fc.TypeVector) -> fc.FlagCode:
    """subsequence_code against the same restriction built flag by flag
    through the checked constructor Flag(sub, parts), which re-checks the
    nesting: equal flags in the same order, with equal keys, fields, parts
    and hashes, each restricted flag reading its parent's parts and part
    keys and keeping its source, a key with a source equal to
    ``normal_form_oracle`` of it, and an equal distance profile, the checked
    code scanning its own pairs.  Returns the restricted code."""
    positions = [code.type.dims.index(d) for d in sub.dims]
    got = fc.subsequence_code(code, sub)
    want = fc.FlagCode(sub, (fc.Flag(sub, [f.parts[p] for p in positions]) for f in code))
    by_parts = {tuple(f.parts[p] for p in positions): f for f in code}
    assert want._parent is None
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and hash(g) == hash(w)
        assert g.type == w.type and g.key == w.key and g.field == w.field
        parent = by_parts[g.parts]
        assert all(g.parts[i] is parent.parts[p] for i, p in enumerate(positions))
        assert all(g._key_rows(i) is parent._key_rows(p) for i, p in enumerate(positions))
        if g.source is not None:
            assert g.key == normal_form_oracle(g.source, sub.dims)
        assert g.source is parent.source
        assert w.source is None
        assert g.parts == w.parts
    assert got.distance_profile() == want.distance_profile()
    return got


def every_full_flag_of_gf2_3() -> fc.FlagCode:
    """All 21 full flags of GF(2)^3: 7 points and 7 lines, each shared."""
    gf2 = fc.field_make(2)
    return fc.FlagCode(fc.TypeVector.full(3), (
        fc.flag_from_matrix(fc.MatrixGF(gf2, [[(v >> j) & 1 for j in range(3)] for v in (a, b)]),
                            fc.TypeVector.full(3))
        for a in range(1, 8) for b in range(1, 8) if a != b
    ))


def pairwise_profile(chains) -> Counter:
    """The per-level distance profile of nested chains over any field, one
    elimination basis per pair: the oracle for the bit-sliced scan.  Rows
    are the code tuples of each part's canonical generator, reduced with
    the field's own ``sub`` and ``mul``; each chain's level rows are the
    canonical rows independent of its lower levels, and a pair's basis
    takes both chains' level rows in turn, rk[U_i; V_i] being its rank
    after level i."""

    def insert(piv: dict, row, field) -> bool:
        sub, mul = field.sub, field.mul
        for c in range(len(row)):
            x = row[c]
            if x:
                base = piv.get(c)
                if base is None:
                    inv = field.inv(x)
                    piv[c] = [mul(inv, y) for y in row]
                    return True
                row = [sub(a, mul(x, b)) if b else a for a, b in zip(row, base)]
        return False

    levels = []
    for chain in chains:
        piv: dict = {}
        levels.append([
            ([row for row in part.canon.int_rows() if insert(piv, row, part.field)],
             part.dim, part.field)
            for part in chain
        ])
    profile: Counter = Counter()
    for i, a in enumerate(levels):
        for b in levels[i + 1 :]:
            piv = {}
            rank = 0
            vec = []
            for (rows_a, dim_a, field), (rows_b, dim_b, _) in zip(a, b):
                for row in rows_a + rows_b:
                    rank += insert(piv, row, field)
                vec.append(2 * rank - dim_a - dim_b)
            profile[tuple(vec)] += 1
    return profile


# -- Gauss-Jordan RREF, and prefix subspaces through a fresh RREF per prefix ------


def _rref_gf2(packed: list[int], ncols: int) -> tuple[list[int], list[int]]:
    work = list(packed)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        mask = 1 << c
        pr = next((i for i in range(r, len(work)) if work[i] & mask), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        wr = work[r]
        for i in range(len(work)):
            if i != r and work[i] & mask:
                work[i] ^= wr
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def _rref_generic(rows: list[list[int]], field: fc.FieldSpec) -> tuple[list[list[int]], list[int]]:
    sub, mul, inv = field.sub, field.mul, field.inv
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            pi = inv(piv)
            rows[r] = [mul(pi, x) for x in rows[r]]
        top = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref_oracle(m: fc.MatrixGF) -> tuple[fc.MatrixGF, int]:
    """Reduced row-echelon form and rank of ``m`` by whole-matrix
    Gauss-Jordan elimination (a column at a time: swap a pivot row up,
    clear the column from every other row), padded with zero rows to m's
    shape; independent of the one-row-at-a-time insert ``MatrixGF.rref``
    runs on."""
    field, ncols = m.field, m.ncols
    if field.q == 2:
        packed = [sum(v << j for j, v in enumerate(r)) for r in m.int_rows()]
        work, pivots = _rref_gf2(packed, ncols)
        rows = [tuple((b >> j) & 1 for j in range(ncols)) for b in work]
    else:
        work, pivots = _rref_generic([list(r) for r in m.int_rows()], field)
        rows = [tuple(r) for r in work]
    rank = len(pivots)
    ordered = [r for r in rows if any(r)]
    ordered += [tuple([0] * ncols)] * (m.nrows - len(ordered))
    return fc.MatrixGF(field, ordered, ncols=ncols), rank


def key_rows_oracle(m: fc.MatrixGF) -> tuple:
    """The rows of ``m`` as a Subspace key holds them: over GF(2) each row's
    codes summed as the binary digits of a numeral, column 0 the most
    significant; otherwise the code tuples of int_rows()."""
    rows = m.int_rows()
    if m.field.q != 2:
        return rows
    return tuple(sum(v << (m.ncols - 1 - j) for j, v in enumerate(row)) for row in rows)


def flag_key_oracle(w: fc.MatrixGF, dims) -> tuple:
    """The key of the flag whose components are the row spaces of the first
    t rows of ``w``, t in ``dims``: per component (t, the rows of
    ``rref_oracle`` of that prefix as ``key_rows_oracle`` gives them), the
    form Flag.key takes.  Each prefix must have rank t."""
    key = []
    for t in dims:
        reduced, rank = rref_oracle(w.first_rows(t))
        assert rank == t
        key.append((t, key_rows_oracle(reduced.first_rows(t))))
    return tuple(key)


def normal_form_oracle(w: fc.MatrixGF, dims) -> tuple:
    """The normal form of the flag whose components are the row spaces of
    the first t rows of ``w``, t in ``dims``: per component, the rows of
    ``rref_oracle`` of that prefix at the pivot columns that are no pivots
    of the prefix before, in order, as ``key_rows_oracle`` gives them; the
    form Flag.key takes.  Each prefix must have rank t."""
    key: list = []
    below: set = set()
    for t in dims:
        reduced, rank = rref_oracle(w.first_rows(t))
        assert rank == t
        canon = reduced.first_rows(t)
        lead = [next(j for j, v in enumerate(row) if v) for row in canon.int_rows()]
        key += [row for c, row in zip(lead, key_rows_oracle(canon)) if c not in below]
        below.update(lead)
    return tuple(key)


def prefix_subspace_oracle(w: fc.MatrixGF, t: int) -> tuple[int, fc.Subspace | None]:
    """(rank, row space) of the first t rows of ``w``, the space rebuilt from
    ``rref_oracle(w.first_rows(t))`` alone: its first ``rank`` rows are the
    canonical generator, as ``key_rows_oracle`` gives them.  The space is
    None at rank 0, as for a 0-row matrix."""
    if t == 0:
        return 0, None
    reduced, rank = rref_oracle(w.first_rows(t))
    if rank == 0:
        return 0, None
    return rank, fc.Subspace(w.field, w.ncols, key_rows_oracle(reduced.first_rows(rank)))


def assert_same_subspace(got: fc.Subspace, want: fc.Subspace) -> None:
    """Equal canonical generator, key and hash."""
    assert got.canon == want.canon
    assert got.dim == got.canon.nrows and got.ambient == got.canon.ncols
    assert got.key == (want.canon.nrows, key_rows_oracle(want.canon))
    assert got.canon.int_rows() == want.canon.int_rows()
    assert got.key == want.key
    assert hash(got) == hash(want)
    assert got == want


def check_parts_built(flag: fc.Flag) -> fc.Flag:
    """Flag(type, parts) on the parts of ``flag`` against it: an equal flag
    with the same key and hash and no source.  For both flags the rows of
    levels 1..i of ``_levels()`` number dim U_i and, reduced by
    ``rref_oracle``, give the key rows of U_i.  Returns the rebuilt flag."""
    rebuilt = fc.Flag(flag.type, flag.parts)
    assert rebuilt == flag and hash(rebuilt) == hash(flag)
    assert rebuilt.key == flag.key and rebuilt.source is None
    for f in (flag, rebuilt):
        rows: list = []
        for part, (level, dim) in zip(f.parts, f._levels()):
            rows.extend(level)
            assert dim == part.dim == len(rows)
            reduced, rank = rref_oracle(fc.MatrixGF._wrap(f.field, f.type.n, tuple(rows)))
            assert rank == dim
            assert key_rows_oracle(reduced.first_rows(rank)) == part.key[1]
    return rebuilt


def check_lazy_parts(flag: fc.Flag, w: fc.MatrixGF) -> None:
    """A flag built from ``w`` against prefixes canonicalized on their own:
    each part, made from its key on first read, equals
    ``subspace_of(w.first_rows(t))`` and ``rref_oracle`` of that prefix,
    its key rows are the flag's (_key_rows), and each part contains the
    one below and not the one above.  The flag's key must be
    ``normal_form_oracle`` of ``w``."""
    assert flag.key == flag._rows == normal_form_oracle(w, flag.type.dims)
    for i, t in enumerate(flag.type.dims):
        part = flag._part(i)
        assert part is flag._part(i)
        prefix = w.first_rows(t)
        want = fc.subspace_of(prefix)
        reduced, rank = rref_oracle(prefix)
        assert rank == t
        assert part.key == want.key == (t, key_rows_oracle(reduced.first_rows(t)))
        assert part.key[1] is flag._key_rows(i)
        assert part.canon == want.canon == reduced.first_rows(t)
        assert part == want and hash(part) == hash(want)
    parts = flag.parts
    assert all(part is flag._part(i) for i, part in enumerate(parts))
    for lower, upper in zip(parts, parts[1:]):
        assert upper.contains(lower)
        assert not lower.contains(upper)
