"""Flag codes and subspace codes list their members in key order, whatever
route made them.

A code sorts its deduplicated flags (words) by their keys.  Here a code
mixes flags built by flag_from_matrix, by the checked Flag(type, parts)
constructor from differently generated parts, and as restrictions of
full-type flags, over GF(2), GF(3) and GF(4), with some spaces given twice
by different routes.  The order must be that of keys recomputed by
whole-matrix elimination (``flag_key_oracle``), and of each key the flag
given last is the one kept.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc

from _checks import _random_invertible, _random_matrix, flag_key_oracle, rref_oracle

N = 5
SUB = fc.TypeVector(N, (1, 2, 4))


def _full_rank(field: fc.FieldSpec, rng: random.Random) -> fc.MatrixGF:
    while True:
        w = _random_matrix(field, rng, N - 1, N)
        if rref_oracle(w)[1] == N - 1:
            return w


def _flag(route: int, w: fc.MatrixGF, rng: random.Random) -> fc.Flag:
    if route == 0:
        return fc.flag_from_matrix(w, SUB)
    if route == 1:
        # each part from its own mix of the prefix rows
        return fc.Flag(SUB, [
            fc.subspace_of(_random_invertible(w.field, rng, t) @ w.first_rows(t))
            for t in SUB.dims
        ])
    parent = fc.FlagCode(fc.TypeVector.full(N), [fc.flag_from_matrix(w, fc.TypeVector.full(N))])
    return fc.subsequence_code(parent, SUB).flags[0]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_mixed_code_is_in_oracle_key_order(p, e):
    field = fc.field_make(p, e)
    rng = random.Random(1000 * p + e)
    matrices = [_full_rank(field, rng) for _ in range(15)]
    given = []  # (flag, oracle key), in the order the code is given them
    for i, w in enumerate(matrices):
        given.append((_flag(i % 3, w, rng), flag_key_oracle(w, SUB.dims)))
    for i, w in enumerate(matrices[:6]):
        # the same flag again, by the next route
        given.append((_flag((i + 1) % 3, w, rng), flag_key_oracle(w, SUB.dims)))
    code = fc.FlagCode(SUB, [f for f, _ in given])
    keys = sorted({key for _, key in given})
    assert [f.key for f in code] == keys
    last = {key: f for f, key in given}
    assert all(f is last[f.key] for f in code)
    for i in range(SUB.r):
        words = fc.projected_code(code, i + 1).words
        assert [u.key for u in words] == sorted({key[i] for key in keys})


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_gf2_codes_keep_the_order_of_code_tuple_keys(n):
    # GF(2) widths on and around byte boundaries; each code's flags and words
    # must sort as keys of code tuples (per part: dim, canonical rows as
    # int_rows) sort, and a dumped code must read back to the same text
    gf2 = fc.field_make(2)
    rng = random.Random(n)
    top = rng.randrange(3, n)
    tv = fc.TypeVector(n, tuple(sorted(rng.sample(range(1, top + 1), 3))))
    flags = []
    while len(flags) < 40:
        w = _random_matrix(gf2, rng, top, n)
        if rref_oracle(w)[1] == top:
            route = len(flags) % 2
            flags.append(fc.flag_from_matrix(w, tv) if route == 0 else fc.Flag(
                tv, [fc.subspace_of(_random_invertible(gf2, rng, t) @ w.first_rows(t)) for t in tv.dims]
            ))
    code = fc.FlagCode(tv, flags)
    tuple_keys = [
        tuple((t, part.canon.int_rows()) for t, part in zip(tv.dims, f.parts)) for f in code
    ]
    assert tuple_keys == sorted(set(tuple_keys))
    for i in range(tv.r):
        words = fc.projected_code(code, i + 1).words
        rows = [u.canon.int_rows() for u in words]
        assert rows == sorted(set(rows))
    text = fc.dump_flag_code(code)
    assert fc.dump_flag_code(fc.load_flag_code(text)) == text
