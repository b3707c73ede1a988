"""The cached level-by-level code scan against the pair-by-pair oracle.

Every code caches one scan: ``SubspaceCode.spectrum`` and
``FlagCode.distance_profile``.  These tests compare both with
``subspace_distance`` / ``flag_distance`` called pair by pair, on the
construction's codes, on flags built from explicit parts, and on codes whose
projected codes deduplicate.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
import flagcodes.flags
import flagcodes.subspace
from flagcodes.errors import AmbientMismatch

from _checks import check_scan_against_pairwise, pairwise_spectrum

# the standard sweep instances, n <= 9
SWEEP = [(2, 2, 0, 2), (2, 2, 1, 2), (2, 3, 2, 2), (3, 2, 1, 2), (2, 2, 0, 3), (2, 2, 1, 3), (2, 2, 1, 4)]


@pytest.mark.parametrize("qkhs", SWEEP, ids=lambda t: "q{}k{}h{}s{}".format(*t))
def test_construction_codes_match_oracle(qkhs):
    params = fc.ConstructionParams.make(*qkhs)
    gen = fc.build_generator_set(params)
    for tv in (fc.TypeVector.full(params.n), fc.admissible_type(params)):
        code = gen.flag_code(tv)
        n = len(code)
        assert check_scan_against_pairwise(code) == n * (n - 1) // 2


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


def test_deduplicating_projections_match_oracle(gf2):
    # all 21 full flags of GF(2)^3: 7 points and 7 lines, each shared
    every = fc.FlagCode(fc.TypeVector.full(3), (
        fc.flag_from_matrix(fc.MatrixGF(gf2, [[(v >> j) & 1 for j in range(3)] for v in (a, b)]),
                            fc.TypeVector.full(3))
        for a in range(1, 8) for b in range(1, 8) if a != b
    ))
    assert len(every) == 21 and not fc.is_cardinality_consistent(every)
    assert check_scan_against_pairwise(every) == 210
    assert fc.classify(every).label == "quasi-optimum"
    assert fc.optimum_check_ab(every) is False
    # the three flags through one point: their first projected code is one word
    pencil = fc.FlagCode(every.type, (f for f in every if f.parts[0] == every.flags[0].parts[0]))
    assert len(pencil) == 3 and len(fc.projected_code(pencil, 1)) == 1
    check_scan_against_pairwise(pencil)


def test_mixed_fields_raise(gf2, gf3):
    u = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0]]))
    v = fc.subspace_of(fc.MatrixGF(gf3, [[0, 1, 0]]))
    code = fc.SubspaceCode(3, [u, v])
    for query in (fc.code_min_distance, fc.is_partial_spread, lambda c: c.spectrum()):
        with pytest.raises(AmbientMismatch):
            query(code)
    tv = fc.TypeVector(3, (1,))
    flags = fc.FlagCode(tv, [fc.Flag(tv, [u]), fc.Flag(tv, [v])])
    with pytest.raises(AmbientMismatch):
        fc.code_flag_min_distance(flags)


def test_second_query_reads_the_cache(monkeypatch):
    gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 1, 2))
    code = gen.flag_code(fc.TypeVector.full(5))
    words = gen.projected_at_dim(2)
    profile = code.distance_profile()
    spectrum = words.spectrum()

    def rescan(chains):
        raise AssertionError("a cached code was scanned again")

    monkeypatch.setattr(flagcodes.flags, "_distance_profile", rescan)
    monkeypatch.setattr(flagcodes.subspace, "_distance_profile", rescan)
    assert code.distance_profile() is profile
    assert words.spectrum() is spectrum
    fc.classify(code)
    fc.optimum_check_ab(code)
    fc.code_min_distance(words)
    fc.is_partial_spread(words)
    assert spectrum == pairwise_spectrum(words)


def test_claim_suite_scans_each_code_once(monkeypatch):
    scanned = []
    scan = flagcodes.subspace._distance_profile

    def counting(chains):
        scanned.append(tuple(tuple(part.key for part in chain) for chain in chains))
        return scan(chains)

    monkeypatch.setattr(flagcodes.flags, "_distance_profile", counting)
    monkeypatch.setattr(flagcodes.subspace, "_distance_profile", counting)
    assert fc.run_claim_suite(fc.ConstructionParams.make(2, 2, 1, 3)).all_pass
    assert scanned and len(set(scanned)) == len(scanned)
