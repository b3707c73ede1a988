"""The bit-sliced GF(2) scan against the per-pair oracle.

Over GF(2), ``subspace._distance_profile`` runs one elimination per chain
for all of its later partners at once, each partner one bit of a Python
int.  ``gf2_pairwise_profile`` in ``_checks.py`` is the per-pair loop it
replaced, with one basis per pair and rows packed from the canonical
generators; the two must return equal Counters on the construction's codes,
on restrictions that merge flags, on loaded codes, on codes of mixed
dimension, and on random codes whose partner masks cross machine words.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes.subspace import _distance_profile

from _checks import every_full_flag_of_gf2_3, gf2_pairwise_profile, pairwise_spectrum

GF2_SWEEP = [(2, 2, 0, 2), (2, 2, 1, 2), (2, 3, 2, 2), (2, 2, 0, 3), (2, 2, 1, 3), (2, 2, 1, 4)]
# GF(2) has a single primitive quadratic, so these have no poly_choice 1
NO_SECOND_POLY = {(2, 2, 0, 2), (2, 2, 0, 3)}
SWEEP_CHOICES = [(qkhs, c) for qkhs in GF2_SWEEP for c in (0, 1) if not (c and qkhs in NO_SECOND_POLY)]


def check_chains(chains) -> int:
    """The kernel's profile equals the oracle's; returns the pair count."""
    chains = [tuple(chain) for chain in chains]
    got = _distance_profile(chains)
    assert got == gf2_pairwise_profile(chains)
    n = len(chains)
    assert sum(got.values()) == n * (n - 1) // 2
    return n * (n - 1) // 2


@pytest.mark.parametrize(
    "qkhs,choice", SWEEP_CHOICES, ids=["q{}k{}h{}s{}-pc{}".format(*t, c) for t, c in SWEEP_CHOICES]
)
def test_sweep_codes_match_oracle(qkhs, choice):
    params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
    gen = fc.build_generator_set(params)
    for code in (gen.full, gen.flag_code(fc.master_type(params))):
        assert len(code) == params.expected_size
        check_chains(f.parts for f in code)


def test_non_injective_restrictions_match_oracle():
    every = every_full_flag_of_gf2_3()
    points = fc.subsequence_code(every, fc.TypeVector(3, (1,)))
    lines = fc.projected_code(every, 2)
    assert len(every) == 21 and len(points) == len(lines) == 7
    assert check_chains(f.parts for f in every) == 210
    check_chains(f.parts for f in points)
    check_chains((w,) for w in lines)
    # chains that repeat a flag: distance-zero pairs are counted too
    check_chains([f.parts for f in every] * 2)


def test_loaded_codes_match_oracle():
    gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 1, 3))
    loaded = fc.load_flag_code(fc.dump_flag_code(gen.full))
    assert loaded == gen.full and loaded._parent is None
    profile = loaded.distance_profile()  # a loaded code scans its own pairs
    assert profile == gf2_pairwise_profile([f.parts for f in loaded])
    words = fc.SubspaceCode.load(gen.projected_at_dim(2).dump())
    assert words._parent is None and len(words) == 41
    assert words.spectrum() == pairwise_spectrum(words)
    check_chains((w,) for w in words)


def _random_space(gf2, rng, n, dim):
    while True:
        m = fc.MatrixGF(gf2, [[rng.randrange(2) for _ in range(n)] for _ in range(dim)], ncols=n)
        if m.rank() == dim:
            return fc.subspace_of(m)


def test_mixed_dimension_code_matches_oracle(gf2):
    # words of dims 1..5 in GF(2)^6: the kernel's zero-padded row slots and
    # its split of the partners by dim
    rng = random.Random(5)
    code = fc.SubspaceCode(6, (_random_space(gf2, rng, 6, 1 + i % 5) for i in range(70)))
    assert code.constant_dim is None
    assert len({w.dim for w in code}) == 5
    check_chains((w,) for w in code)
    # a code sorts its words by dim; shuffled, every chain's partners mix dims
    check_chains((w,) for w in rng.sample(code.words, len(code)))
    assert code.spectrum() == pairwise_spectrum(code)


def _random_flag_code(gf2, tv, count, seed):
    rng = random.Random(seed)
    flags: dict[tuple, fc.Flag] = {}
    while len(flags) < count:
        rows = [[rng.randrange(2) for _ in range(tv.n)] for _ in range(tv.dims[-1])]
        m = fc.MatrixGF(gf2, rows, ncols=tv.n)
        if all(m.first_rows(t).rank() == t for t in tv.dims):
            f = fc.flag_from_matrix(m, tv)
            flags[f.key] = f
    return fc.FlagCode(tv, flags.values())


@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65])
@pytest.mark.parametrize("dims", [(1, 2, 3, 4, 5, 6), (2, 3, 5)], ids=["full", "2-3-5"])
def test_random_codes_match_oracle(gf2, count, dims):
    tv = fc.TypeVector(7, dims)
    code = _random_flag_code(gf2, tv, count, seed=count)
    assert len(code) == count
    check_chains(f.parts for f in code)
    assert code.distance_profile() == gf2_pairwise_profile([f.parts for f in code])
