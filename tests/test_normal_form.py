"""A flag is keyed by its normal form, whichever route made it.

For random flags of random types over GF(2), GF(3), GF(4) and GF(9),
including levels that add several rows, four routes must give the key that
``normal_form_oracle`` computes by whole-matrix elimination, with equal
hashes and equality: flag_from_matrix, Flag(type, parts) on parts spanned by
other bases, and subsequence_code from a full-type flag made from the
matrix and from a longer-type flag made from parts, whose levels it merges.
Every part of each, read in any order, must equal ``subspace_of`` of its
prefix and its ``rref_oracle``.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc

from _checks import (
    _random_invertible,
    _random_matrix,
    normal_form_oracle,
    prefix_subspace_oracle,
    rref_oracle,
)

# GF(2), GF(3), GF(4), GF(9)
FIELDS = [(2,), (3,), (2, 2), (3, 2)]
IDS = ["GF2", "GF3", "GF4", "GF9"]


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
