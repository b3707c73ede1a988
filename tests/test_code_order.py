"""Flag codes and subspace codes list their members in key order, whatever
route made them.

A code sorts its deduplicated flags by their normal form (``Flag.key``) and
its words by their RREF keys.  Here a code mixes flags built by
flag_from_matrix, by the checked Flag(type, parts) constructor from
differently generated parts, and as restrictions of full-type flags, over
GF(2), GF(3) and GF(4), with some spaces given twice by different routes.
The order must be that of normal forms recomputed by whole-matrix
elimination (``normal_form_oracle``), and of each key the flag given last
is the one kept.  Where the first parts are distinct, as in every code of
the construction, that is also the order of the flags' part keys
(``flag_key_oracle``), by which codes were sorted and written before they
were keyed by their normal form; where first parts tie, the two orders can
differ.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc

from _checks import (
    SWEEP,
    _random_invertible,
    _random_matrix,
    flag_key_oracle,
    normal_form_oracle,
    poly_choices,
    rref_oracle,
)

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
    given = []  # (flag, oracle normal form), in the order the code is given them
    for i, w in enumerate(matrices):
        given.append((_flag(i % 3, w, rng), normal_form_oracle(w, SUB.dims)))
    for i, w in enumerate(matrices[:6]):
        # the same flag again, by the next route
        given.append((_flag((i + 1) % 3, w, rng), normal_form_oracle(w, SUB.dims)))
    code = fc.FlagCode(SUB, [f for f, _ in given])
    keys = sorted({key for _, key in given})
    assert [f.key for f in code] == keys
    last = {key: f for f, key in given}
    assert all(f is last[f.key] for f in code)
    part_keys = {normal_form_oracle(w, SUB.dims): flag_key_oracle(w, SUB.dims) for w in matrices}
    for i in range(SUB.r):
        words = fc.projected_code(code, i + 1).words
        assert [u.key for u in words] == sorted({part_keys[key][i] for key in keys})


# GF(2), GF(3), GF(4), GF(9)
ORDER_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,e", ORDER_FIELDS)
def test_distinct_first_parts_keep_the_part_key_order(p, e):
    # random types, with levels that add several rows; flags from matrices
    # and from parts, and restrictions of full-type flags
    field = fc.field_make(p, e)
    rng = random.Random(300 + 10 * p + e)
    for _ in range(6):
        n = rng.randrange(4, 8)
        top = rng.randrange(2, n)
        tv = fc.TypeVector(n, tuple(sorted(rng.sample(range(1, top + 1), rng.randrange(1, top + 1)))))
        by_first: dict = {}  # first part key -> the matrix of the one flag with it
        while len(by_first) < 12:
            w = _random_matrix(field, rng, n - 1, n)
            if rref_oracle(w)[1] == n - 1:
                by_first.setdefault(flag_key_oracle(w, tv.dims[:1])[0], w)
        full = fc.TypeVector.full(n)
        flags = [
            fc.flag_from_matrix(w, tv) if i % 3 == 0
            else fc.Flag(tv, [fc.subspace_of(w.first_rows(t)) for t in tv.dims]) if i % 3 == 1
            else fc.subsequence_code(fc.FlagCode(full, [fc.flag_from_matrix(w, full)]), tv).flags[0]
            for i, w in enumerate(by_first.values())
        ]
        code = fc.FlagCode(tv, flags)
        oracle = {normal_form_oracle(w, tv.dims): flag_key_oracle(w, tv.dims) for w in by_first.values()}
        assert [f.key for f in code] == sorted(oracle)
        assert [oracle[f.key] for f in code] == sorted(oracle.values())


SWEEP_CHOICES = [(qkhs, c) for qkhs in SWEEP for c in poly_choices(*qkhs)]


@pytest.mark.parametrize(
    "qkhs,choice", SWEEP_CHOICES, ids=["q{}k{}h{}s{}-pc{}".format(*t, c) for t, c in SWEEP_CHOICES]
)
def test_construction_codes_keep_the_part_key_order(qkhs, choice):
    # the first parts of the construction's codes are distinct (its prefix
    # cardinality claims), so they sort and write as when keyed by parts
    params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
    gen = fc.build_generator_set(params)
    for tv in {gen.full.type, fc.admissible_type(params), fc.master_type(params)}:
        code = gen.flag_code(tv)
        assert len({f.parts[0] for f in code}) == len(code)
        keys = [flag_key_oracle(f.source, tv.dims) for f in code]
        assert keys == sorted(keys)


def test_tied_first_parts_sort_by_normal_form():
    # two flags of GF(2)^4 on the point <1100>: the second parts' RREF keys
    # are ((1000), (0100)) and ((1100), (0011)), so by part keys the first
    # flag comes first; their normal forms are ((1100), (0100)) and
    # ((1100), (0011)), so by normal form the second one does
    gf2 = fc.field_make(2)
    tv = fc.TypeVector.full(4)
    a = fc.MatrixGF(gf2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    b = fc.MatrixGF(gf2, [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0]])
    code = fc.FlagCode(tv, [fc.flag_from_matrix(a, tv), fc.flag_from_matrix(b, tv)])
    assert [f.source for f in code] == [b, a]
    assert flag_key_oracle(a, tv.dims) < flag_key_oracle(b, tv.dims)
    assert [f.key for f in code] == sorted([normal_form_oracle(a, tv.dims), normal_form_oracle(b, tv.dims)])


@pytest.mark.parametrize("p,e", ORDER_FIELDS)
def test_tied_first_parts_are_in_normal_form_order(p, e):
    # many flags on few first parts, of random types
    field = fc.field_make(p, e)
    rng = random.Random(500 + 10 * p + e)
    for _ in range(6):
        n = rng.randrange(4, 7)
        tv = fc.TypeVector(n, tuple(sorted(rng.sample(range(1, n), rng.randrange(2, n)))))
        heads = [_random_invertible(field, rng, n).first_rows(tv.dims[0]) for _ in range(2)]
        matrices = []
        while len(matrices) < 14:
            head = rng.choice(heads)
            w = fc.vstack([head, _random_matrix(field, rng, n - 1 - head.nrows, n)])
            if rref_oracle(w)[1] == n - 1:
                matrices.append(w)
        code = fc.FlagCode(tv, [
            fc.flag_from_matrix(w, tv) if i % 2
            else fc.Flag(tv, [fc.subspace_of(_random_invertible(field, rng, t) @ w.first_rows(t)) for t in tv.dims])
            for i, w in enumerate(matrices)
        ])
        assert [f.key for f in code] == sorted({normal_form_oracle(w, tv.dims) for w in matrices})


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_gf2_codes_keep_the_order_of_code_tuple_keys(n):
    # GF(2) widths on and around byte boundaries; each code's flags must
    # sort as their normal forms of code tuples (int_rows) sort, its words
    # as their keys of code tuples, and a dumped code must read back to the
    # same text
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
    forms = [fc.MatrixGF._wrap(gf2, n, f.key).int_rows() for f in code]
    assert forms == sorted(set(forms))
    for i in range(tv.r):
        words = fc.projected_code(code, i + 1).words
        rows = [u.canon.int_rows() for u in words]
        assert rows == sorted(set(rows))
    text = fc.dump_flag_code(code)
    assert fc.dump_flag_code(fc.load_flag_code(text)) == text
