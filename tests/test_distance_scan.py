"""The cached level-by-level code scan against the pair-by-pair oracle.

Every code caches its profile: ``SubspaceCode.spectrum`` and
``FlagCode.distance_profile``.  A flag code restricted injectively from
another (``subsequence_code``) reads its parent's profile; any other flag
code, and every subspace code (``projected_code`` too), scans its own
pairs.  The claim suite reads each projected code off the flag code
instead: its words and distances from the profile and part keys
(``flags._words_at``, ``flags._distances_at``).  These tests compare every
route with ``subspace_distance`` / ``flag_distance`` called pair by pair,
on the construction's codes, on flags built from explicit parts, and on
codes whose projected codes deduplicate.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
import flagcodes.flags
import flagcodes.subspace
from flagcodes.errors import AmbientMismatch
from flagcodes.flags import _distances_at, _words_at

from _checks import (
    SWEEP,
    check_projection,
    check_scan_against_pairwise,
    every_full_flag_of_gf2_3,
    pairwise_spectrum,
)


def _forbid_scans(monkeypatch):
    def rescan(rows, dims, field, n):
        raise AssertionError("a code was scanned on its own")

    monkeypatch.setattr(flagcodes.flags, "_distance_profile", rescan)
    monkeypatch.setattr(flagcodes.subspace, "_distance_profile", rescan)


def _level_keys(rows, dims, field, n) -> tuple:
    """The part keys of one scan chain: the row space of its rows up to
    each dim."""
    return tuple(fc.subspace_of(fc.MatrixGF._wrap(field, n, tuple(rows[:dim]))).key for dim in dims)


def _counting_scans(monkeypatch) -> list:
    """Record the chains of every scan, as tuples of part keys."""
    scanned = []
    scan = flagcodes.subspace._distance_profile

    def counting(rows, dims, field, n):
        scanned.append([_level_keys(chain, dims, field, n) for chain in rows])
        return scan(rows, dims, field, n)

    monkeypatch.setattr(flagcodes.flags, "_distance_profile", counting)
    monkeypatch.setattr(flagcodes.subspace, "_distance_profile", counting)
    return scanned


@pytest.mark.parametrize("qkhs", SWEEP, ids=lambda t: "q{}k{}h{}s{}".format(*t))
def test_construction_codes_match_oracle(qkhs):
    # the full-type code is the one code of a generator set that scans
    code = fc.build_generator_set(fc.ConstructionParams.make(*qkhs)).full
    n = len(code)
    assert check_scan_against_pairwise(code) == n * (n - 1) // 2


def _split_restrictions(code):
    """The inner and outer restrictions _deficit_claims takes of ``code``."""
    ell = fc.classify(code).deficit
    ab = fc.ab_indices(code.type)
    if ab.a is None or ab.b is None or not 1 <= ell <= min(ab.a - 1, code.type.r - ab.b):
        return []
    return [fc.subsequence_code(code, tv) for tv in fc.split_type(code.type, ell)]


@pytest.mark.parametrize("qkhs", SWEEP, ids=lambda t: "q{}k{}h{}s{}".format(*t))
def test_restrictions_of_the_full_code_match_oracle(qkhs, monkeypatch):
    params = fc.ConstructionParams.make(*qkhs)
    gen = fc.build_generator_set(params)
    gen.full.distance_profile()
    _forbid_scans(monkeypatch)
    admissible = gen.flag_code(fc.admissible_type(params))
    master = gen.flag_code(fc.master_type(params))
    codes = [admissible, master] + _split_restrictions(gen.full) + _split_restrictions(master)
    dims = sorted({params.k, params.n - params.k, *fc.middle_dims(params)})
    for code in codes:
        assert len(code) == params.expected_size
        code.distance_profile()
    for m in dims:
        assert _words_at(gen.full, m - 1) == params.expected_size
        _distances_at(gen.full, m - 1)
    monkeypatch.undo()
    for code in codes:
        check_scan_against_pairwise(code)
    # projected codes scan their own words
    for m in dims:
        words, oracle = check_projection(gen.full, m)
        assert len(words) == params.expected_size
        assert words.spectrum() == oracle


def _parts_built_code(field, tv, count, seed):
    """Flags given by their parts only: each part is the canonical form of a
    random prefix, so a larger part's rows need not extend a smaller one's."""
    rng = random.Random(seed)
    top = tv.dims[-1]
    flags = []
    while len(flags) < count:
        rows = [[rng.randrange(field.q) for _ in range(tv.n)] for _ in range(top)]
        m = fc.MatrixGF(field, rows, ncols=tv.n)
        if m.rank() == top:
            flags.append(fc.Flag(tv, [fc.subspace_of(m.first_rows(t)) for t in tv.dims]))
    return fc.FlagCode(tv, flags)


@pytest.mark.parametrize("field_args", [(3,), (2, 2)], ids=["GF3", "GF4"])
def test_parts_built_flags_match_oracle(field_args):
    field = fc.field_make(*field_args)
    for tv in (fc.TypeVector(5, (1, 3, 4)), fc.TypeVector.full(4)):
        code = _parts_built_code(field, tv, 30, seed=7)
        assert all(f.source is None for f in code)
        check_scan_against_pairwise(code)


def test_deduplicating_projections_match_oracle():
    every = every_full_flag_of_gf2_3()
    assert len(every) == 21 and not fc.is_cardinality_consistent(every)
    assert check_scan_against_pairwise(every) == 210
    assert fc.classify(every).label == "quasi-optimum"
    assert fc.optimum_check_ab(every) is False
    # the three flags through one point: their first projected code is one word
    pencil = fc.FlagCode(every.type, (f for f in every if f.parts[0] == every.flags[0].parts[0]))
    assert len(pencil) == 3 and len(fc.projected_code(pencil, 1)) == 1
    check_scan_against_pairwise(pencil)


def test_non_injective_restrictions_scan_their_own(monkeypatch):
    every = every_full_flag_of_gf2_3()
    every.distance_profile()
    points = fc.subsequence_code(every, fc.TypeVector(3, (1,)))
    lines = fc.projected_code(every, 2)
    assert len(points) == len(lines) == 7
    scanned = _counting_scans(monkeypatch)
    check_scan_against_pairwise(points)
    assert lines.spectrum() == pairwise_spectrum(lines)
    # the restriction, then the projected code of it that
    # check_scan_against_pairwise makes, then the projected code
    assert scanned == [
        [tuple(part.key for part in f.parts) for f in points],
        [(f.parts[0].key,) for f in points],
        [(w.key,) for w in lines],
    ]


def test_mixed_fields_raise(gf2, gf3):
    u = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0]]))
    v = fc.subspace_of(fc.MatrixGF(gf3, [[0, 1, 0]]))
    # both kinds of code refuse mixed fields when they are built, before any scan
    with pytest.raises(AmbientMismatch):
        fc.SubspaceCode(3, [u, v])
    tv = fc.TypeVector(3, (1,))
    with pytest.raises(AmbientMismatch):
        fc.FlagCode(tv, [fc.Flag(tv, [u]), fc.Flag(tv, [v])])


def test_second_query_reads_the_cache(monkeypatch):
    gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 1, 2))
    code = gen.flag_code(fc.TypeVector.full(5))
    words = gen.projected_at_dim(2)
    profile = code.distance_profile()
    spectrum = words.spectrum()
    _forbid_scans(monkeypatch)
    assert code.distance_profile() is profile
    assert words.spectrum() is spectrum
    fc.classify(code)
    fc.optimum_check_ab(code)
    fc.code_min_distance(words)
    fc.is_partial_spread(words)
    assert spectrum == pairwise_spectrum(words)


def test_claim_suite_scans_each_code_once(monkeypatch):
    # every code of the suite is a restriction of the full-type code, and
    # projected codes are read off it, so the suite makes no subspace code
    # and exactly one scan: the full-type chains
    scanned = _counting_scans(monkeypatch)

    def no_subspace_code(self, ambient, words):
        raise AssertionError("the claim suite made a SubspaceCode")

    monkeypatch.setattr(fc.SubspaceCode, "__init__", no_subspace_code)
    for qkhs in SWEEP:
        params = fc.ConstructionParams.make(*qkhs)
        code = fc.build_full_flag_code(fc.build_generator_set(params))
        full = [tuple(part.key for part in f.parts) for f in code]
        scanned.clear()
        assert fc.run_claim_suite(params).all_pass
        assert scanned == [full], qkhs
