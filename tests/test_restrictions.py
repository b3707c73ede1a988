"""Restrictions of the full-type code, against flags rebuilt with a nesting
check.

``subsequence_code`` makes each restricted flag from its parent's
normal-form rows, reducing only the levels it merges, and lets it read its
parent's parts, without checking the nesting again, since a subsequence of
a nested chain is nested.  For every standard sweep instance and every type
the claim suite restricts to (admissible, master, and the inner and outer
halves of every split), ``_checks.check_restriction`` rebuilds the
restriction through the checked ``Flag`` constructor, and the two must
agree flag for flag and in their distance profile.  ``GeneratorSet.flag_code`` makes each typed code
once.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import flagcodes as fc
import flagcodes.construct

from _checks import (
    SWEEP_CHOICES,
    _random_matrix,
    check_restriction,
    choice_ids,
    every_full_flag_of_gf2_3,
    normal_form_oracle,
    rref_oracle,
    strip_seconds,
)

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.json"


def _split_types(code: fc.FlagCode) -> list[fc.TypeVector]:
    """The inner and outer types the claim suite splits ``code`` into at its
    observed deficit, when that split exists."""
    tv = code.type
    ell = fc.classify(code).deficit
    ab = fc.ab_indices(tv)
    if ab.a is None or ab.b is None or not 1 <= ell <= min(ab.a - 1, tv.r - ab.b):
        return []
    return list(fc.split_type(tv, ell))


@pytest.mark.parametrize("qkhs,choice", SWEEP_CHOICES, ids=choice_ids(SWEEP_CHOICES))
def test_restrictions_match_checked_flags(qkhs, choice):
    params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
    gen = fc.build_generator_set(params)
    parents = [gen.full]
    for tv in (fc.admissible_type(params), fc.master_type(params)):
        code = check_restriction(gen.full, tv)
        assert gen.flag_code(tv) == code
        assert gen.flag_code(tv).distance_profile() == code.distance_profile()
        parents.append(gen.flag_code(tv))
    for parent in parents:
        for sub in _split_types(parent):
            check_restriction(parent, sub)


def test_the_sweep_restricts_splits_of_full_and_master_codes():
    # so test_restrictions_match_checked_flags checks restrictions of
    # restrictions too
    params = fc.ConstructionParams.make(2, 3, 2, 2)
    gen = fc.build_generator_set(params)
    assert _split_types(gen.full)
    assert _split_types(gen.flag_code(fc.master_type(params)))


def test_restricted_flags_share_their_parents_parts():
    # the parent's parts themselves, equal part key rows, and the parent's
    # field and source; the key is the normal form of the restricted type
    params = fc.ConstructionParams.make(2, 2, 1, 3)
    gen = fc.build_generator_set(params)
    tv = fc.master_type(params)
    positions = [gen.full.type.dims.index(d) for d in tv.dims]
    by_parts = {tuple(f.parts[p] for p in positions): f for f in gen.full}
    for f in gen.flag_code(tv):
        parent = by_parts[f.parts]
        for i, p in enumerate(positions):
            assert f.parts[i] is parent.parts[p]
            assert f._key_rows(i) == parent._key_rows(p)
        assert f.key == normal_form_oracle(f.source, tv.dims)
        assert f.source is parent.source and f.field is parent.field


def test_restricted_flags_own_no_parts():
    # a restriction reads its parent's parts and part keys, and so does its
    # dump when no source matrix is kept, but it allocates no part list
    params = fc.ConstructionParams.make(2, 2, 1, 3)
    gen = fc.build_generator_set(params)
    tv = fc.master_type(params)
    sourceless = fc.FlagCode(gen.full.type, [fc.Flag(f.type, f.parts) for f in gen.full])
    for code in (gen.flag_code(tv), fc.subsequence_code(sourceless, tv)):
        text = fc.dump_flag_code(code)
        assert fc.load_flag_code(text) == code
        for f in code:
            parent, positions = f._parent
            assert f.parts == tuple(parent._part(p) for p in positions)
            for i, p in enumerate(positions):
                assert f._part(i) is parent._part(p)
                assert f._key_rows(i) is parent._part(p).key[1]
            assert f._parts is None


def test_restrictions_of_codes_with_shared_first_parts():
    # the 21 full flags of GF(2)^3 share their points in threes, and the
    # GF(3)^5 flags below share two first parts: a restriction that keeps
    # the first part sorts and dedupes by normal form, as one that drops it
    # does
    check_restriction(every_full_flag_of_gf2_3(), fc.TypeVector(3, (1,)))
    check_restriction(every_full_flag_of_gf2_3(), fc.TypeVector(3, (2,)))
    gf3 = fc.field_make(3)
    rng = random.Random(5)
    full = fc.TypeVector.full(5)
    heads = [fc.MatrixGF(gf3, [[1, 0, 2, 0, 1]]), fc.MatrixGF(gf3, [[0, 1, 1, 2, 0]])]
    flags = []
    while len(flags) < 30:
        w = fc.vstack([heads[len(flags) % 2], _random_matrix(gf3, rng, 3, 5)])
        if rref_oracle(w)[1] == 4:
            flags.append(fc.flag_from_matrix(w, full))
    code = fc.FlagCode(full, flags)
    for dims in [(1, 3, 4), (1, 2, 4), (2, 4), (3,)]:
        sub = fc.TypeVector(5, dims)
        got = check_restriction(code, sub)
        assert [f.key for f in got] == sorted({normal_form_oracle(f.source, dims) for f in code})


class TestFlagCodeCache:
    def test_one_code_per_type(self):
        params = fc.ConstructionParams.make(2, 2, 1, 3)
        gen = fc.build_generator_set(params)
        for tv in (fc.admissible_type(params), fc.master_type(params), gen.full.type):
            assert gen.flag_code(tv) is gen.flag_code(tv)
            assert gen.flag_code(tv) == fc.subsequence_code(gen.full, tv)
        assert gen.flag_code(fc.admissible_type(params)) is not gen.flag_code(fc.master_type(params))

    def test_cache_is_not_part_of_equality(self):
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        a = fc.build_generator_set(params)
        b = fc.build_generator_set(params)
        a.flag_code(fc.admissible_type(params))
        assert a == b
        assert "_restrictions" not in repr(a)

    def test_suite_restricts_each_type_of_the_full_code_once(self, monkeypatch):
        # s = 3: the longer-type claims and verify_maximality both read the
        # master-type code
        key = "2,2,1,3,0"
        restrict = flagcodes.construct.subsequence_code
        calls: Counter = Counter()

        def counting(code, sub):
            if code.type.is_full:
                calls[sub.dims] += 1
            return restrict(code, sub)

        monkeypatch.setattr(flagcodes.construct, "subsequence_code", counting)
        params = fc.ConstructionParams.make(2, 2, 1, 3)
        report = fc.run_claim_suite(params)
        assert calls[fc.master_type(params).dims] == 1
        assert calls[fc.admissible_type(params).dims] == 1
        assert set(calls.values()) == {1}
        golden = json.loads(GOLDEN.read_text())[key]
        assert strip_seconds(report.to_json_obj()) == golden

