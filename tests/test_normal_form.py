"""A flag is keyed by its normal form, whichever route made it.

For random flags of random types over GF(2), GF(3), GF(4), GF(9) and
GF(25) (q > 16, so no batch route), including levels that add several
rows, four routes must give the key that ``normal_form_oracle`` computes
by whole-matrix elimination, with equal hashes and equality:
flag_from_matrix, Flag(type, parts) on parts spanned by other bases, and
subsequence_code from a full-type flag made from the matrix and from a
longer-type flag made from parts, whose levels it merges.  Every part of
each, read in any order, must equal ``subspace_of`` of its prefix and its
``rref_oracle``.

Over each of these fields the echelon pass also meets prefixes that are
not of full rank (zero rows, dependent rows, repeated lengths, lengths
that stop before the last row, no lengths): its ranks must be
``rref_oracle``'s, and ``flag_from_matrix`` must refuse exactly the
matrices with a deficient prefix.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes.errors import RankDeficientPrefix
from flagcodes.matgf import _echelon

from _checks import (
    _random_invertible,
    _random_matrix,
    field_ops,
    key_rows_oracle,
    normal_form_oracle,
    prefix_subspace_oracle,
    rref_oracle,
)

# GF(2), GF(3), GF(4), GF(9), GF(25)
FIELDS = [(2,), (3,), (2, 2), (3, 2), (5, 2)]
IDS = ["GF2", "GF3", "GF4", "GF9", "GF25"]


def _cases(field, seed, count=50):
    """(matrix, type, flags by every route) for random full-rank matrices
    of n - 1 rows and random types; at least a quarter of the types have a
    level that adds several rows."""
    rng = random.Random(seed)
    cases = []
    several = 0
    while len(cases) < count:
        n = rng.randrange(3, 8)
        w = _random_matrix(field, rng, n - 1, n)
        if rref_oracle(w)[1] != n - 1:
            continue
        tv = fc.TypeVector(n, tuple(sorted(rng.sample(range(1, n), rng.randrange(1, n)))))
        several += any(hi - lo > 1 for lo, hi in zip((0, *tv.dims), tv.dims))
        longer = fc.TypeVector.make(n, tv.dims + tuple(rng.sample(range(1, n), rng.randrange(n))))
        full = fc.TypeVector.full(n)
        routes = [
            fc.flag_from_matrix(w, tv),
            fc.Flag(tv, [fc.subspace_of(_random_invertible(field, rng, t) @ w.first_rows(t)) for t in tv.dims]),
            fc.subsequence_code(fc.FlagCode(full, [fc.flag_from_matrix(w, full)]), tv).flags[0],
            fc.subsequence_code(
                fc.FlagCode(longer, [fc.Flag(longer, [fc.subspace_of(w.first_rows(t)) for t in longer.dims])]),
                tv,
            ).flags[0],
        ]
        cases.append((w, tv, routes))
    assert several >= count // 4
    return cases


@pytest.mark.parametrize("field_args", FIELDS, ids=IDS)
def test_every_route_gives_the_normal_form(field_args):
    field = fc.field_make(*field_args)
    for w, tv, routes in _cases(field, seed=17 * sum(field_args) + len(field_args)):
        want = normal_form_oracle(w, tv.dims)
        first = routes[0]
        for f in routes:
            assert f.key == f._rows == want
            assert f == first and hash(f) == hash(first)
            assert f.type == tv and f.field == field
        assert routes[0].source is w and routes[2].source.first_rows(tv.dims[-1]) == w.first_rows(tv.dims[-1])
        assert routes[1].source is None and routes[3].source is None


@pytest.mark.parametrize("field_args", FIELDS, ids=IDS)
def test_every_part_is_its_prefix_space(field_args):
    # each flag reads its part keys in its own random order, half of them
    # the top part first, so keys are made from scratch and from every
    # lower key read before
    field = fc.field_make(*field_args)
    seed = 29 * sum(field_args) + len(field_args)
    rng = random.Random(seed)
    for w, tv, routes in _cases(field, seed):
        wants = []
        for t in tv.dims:
            rank, want = prefix_subspace_oracle(w, t)
            assert rank == t and fc.subspace_of(w.first_rows(t)) == want
            wants.append(want)
        for f in routes:
            order = rng.sample(range(tv.r), tv.r)
            if rng.random() < 0.5:
                order.remove(tv.r - 1)
                order.insert(0, tv.r - 1)
            for i in order:
                assert f._key_rows(i) == wants[i].key[1]
            for i in rng.sample(range(tv.r), tv.r):
                assert f._part(i) == wants[i] and hash(f._part(i)) == hash(wants[i])


# -- prefixes that are not of full rank ------------------------------------------


def _deficient_cases(field, seed, count=60):
    """(matrix, lengths) with zero rows and rows that are sums of earlier
    rows mixed into random ones, so some prefixes lose rank; the lengths
    repeat, may stop before the last row, and are sometimes empty."""
    rng = random.Random(seed)
    ops = field_ops(field)
    add, mul = ops.add, ops.mul
    cases = []
    for _ in range(count):
        n = rng.randrange(1, 9)
        rows: list = []
        for _ in range(rng.randrange(1, 10)):
            kind = rng.random()
            if kind < 0.2:
                rows.append([0] * n)
            elif kind < 0.45 and rows:
                # a combination of two earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                x, y = rng.randrange(field.q), rng.randrange(field.q)
                rows.append([add(mul(x, u), mul(y, v)) for u, v in zip(a, b)])
            else:
                rows.append([rng.randrange(field.q) for _ in range(n)])
        w = fc.MatrixGF(field, rows, ncols=n)
        if rng.random() < 0.1:
            lengths = ()
        else:
            picks = [rng.randrange(1, w.nrows + 1) for _ in range(rng.randrange(1, 6))]
            lengths = tuple(sorted(picks + picks[: rng.randrange(2)]))
        cases.append((w, lengths))
    return cases


def _spans_normal_form(w, lengths):
    """Per length t, the rows of rref_oracle(first t rows) at the pivots
    that no shorter length has, in order: the normal form of the chain of
    spans, whatever their ranks."""
    key: list = []
    below: set = set()
    for t in lengths:
        reduced, rank = rref_oracle(w.first_rows(t))
        canon = reduced.first_rows(rank) if rank else None
        if canon is None:
            continue
        lead = [next(j for j, v in enumerate(row) if v) for row in canon.int_rows()]
        key += [row for c, row in zip(lead, key_rows_oracle(canon)) if c not in below]
        below.update(lead)
    return tuple(key)


@pytest.mark.parametrize("field_args", FIELDS, ids=IDS)
def test_echelon_of_deficient_prefixes(field_args):
    field = fc.field_make(*field_args)
    deficient = full = 0
    for w, lengths in _deficient_cases(field, seed=41 + field.q):
        rows, ranks = _echelon(w._rows, lengths, field)
        want = [rref_oracle(w.first_rows(t))[1] for t in lengths]
        assert ranks == want
        assert rows == _spans_normal_form(w, lengths)
        # the longest run of lengths from the first whose prefixes have full
        # rank is keyed as normal_form_oracle keys it
        j = next((i for i, (t, r) in enumerate(zip(lengths, ranks)) if r != t), len(lengths))
        if j:
            assert rows[: ranks[j - 1]] == normal_form_oracle(w, lengths[:j])
        deficient += j < len(lengths)
        full += j == len(lengths) and bool(lengths)
    assert deficient >= 10 and full >= 5
    assert _echelon(w._rows, (), field) == ((), [])


@pytest.mark.parametrize("field_args", FIELDS, ids=IDS)
def test_flag_from_matrix_refuses_exactly_the_deficient_prefixes(field_args):
    field = fc.field_make(*field_args)
    refused = built = 0
    for w, lengths in _deficient_cases(field, seed=43 + field.q):
        n = w.ncols
        dims = tuple(sorted({t for t in lengths if t < n}))
        if not dims:
            continue
        tv = fc.TypeVector(n, dims)
        ranks = [rref_oracle(w.first_rows(t))[1] for t in dims]
        bad = next(((t, r) for t, r in zip(dims, ranks) if r != t), None)
        if bad is None:
            assert fc.flag_from_matrix(w, tv).key == normal_form_oracle(w, dims)
            built += 1
        else:
            with pytest.raises(RankDeficientPrefix, match=f"first {bad[0]} rows have rank {bad[1]}$"):
                fc.flag_from_matrix(w, tv)
            refused += 1
    assert refused >= 10 and built >= 5
