"""The bit-sliced scans against the per-pair oracle.

Over every GF(p^e), ``subspace._distance_profile`` runs one elimination
over the prime field GF(p) for a batch of consecutive chains and all of
their later partners at once, each (chain, partner) pair one bit of a
Python int: ``_sliced_insert`` over GF(2), ``_sliced_insertp`` over every
odd p.  ``pairwise_profile`` in ``_checks.py`` is a per-pair loop over any
field, with one basis per pair and rows taken from the canonical
generators, and the only per-pair scan left; the two must return equal
Counters on the construction's codes, on restrictions that merge flags, on
loaded codes, on codes of mixed dimension, and on random codes whose pair
masks cross machine words, over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8),
GF(9) and GF(25).  The batch tests shrink the scan's private bit budget
(``subspace._BATCH_BITS``) so that small codes span several batches, and
pin the batch plan: which chains share an elimination, and how many kernel
calls a scan makes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import flagcodes as fc
from flagcodes import subspace
from flagcodes.subspace import _distance_profile

from _checks import (
    SWEEP_CHOICES,
    check_projection,
    choice_ids,
    every_full_flag_of_gf2_3,
    pairwise_profile,
    pairwise_spectrum,
)

# GF(2) has a single primitive quadratic, so (2,2,0,2) and (2,2,0,3) have no
# poly_choice 1
GF2_CHOICES = [(qkhs, c) for qkhs, c in SWEEP_CHOICES if qkhs[0] == 2]


def check_chains(chains, want: Counter | None = None) -> int:
    """The kernel's profile on the level rows of the flags the chains make
    (Flag(type, parts)._levels()) equals ``want``, the oracle's profile of
    the chains (computed here when not given); returns the pair count."""
    chains = [tuple(chain) for chain in chains]
    field, ambient = (chains[0][0].field, chains[0][0].ambient) if chains else (None, 0)
    levels = [
        fc.Flag(fc.TypeVector(ambient, tuple(p.dim for p in chain)), chain)._levels()
        for chain in chains
    ]
    got = _distance_profile(levels, field, ambient)
    assert got == (pairwise_profile(chains) if want is None else want)
    n = len(chains)
    assert sum(got.values()) == n * (n - 1) // 2
    return n * (n - 1) // 2


def check_code(code: fc.FlagCode) -> int:
    """check_chains on a flag code's parts, and the code's own profile (its
    flags' level rows, or its parent's profile) equal to the oracle's; the
    oracle runs once for both."""
    chains = [f.parts for f in code]
    want = pairwise_profile(chains)
    pairs = check_chains(chains, want)
    assert code.distance_profile() == want
    return pairs


@pytest.mark.parametrize("qkhs,choice", GF2_CHOICES, ids=choice_ids(GF2_CHOICES))
def test_sweep_codes_match_oracle(qkhs, choice):
    params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
    gen = fc.build_generator_set(params)
    for code in (gen.full, gen.flag_code(fc.master_type(params))):
        assert len(code) == params.expected_size
        check_code(code)


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
    assert profile == pairwise_profile([f.parts for f in loaded])
    words = fc.SubspaceCode.load(gen.projected_at_dim(2).dump())
    assert len(words) == 41
    assert words.spectrum() == pairwise_spectrum(words)
    check_chains((w,) for w in words)


def _random_space(field, rng, n, dim):
    while True:
        m = fc.MatrixGF(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)], ncols=n)
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


def _random_flag_code(field, tv, count, seed):
    rng = random.Random(seed)
    flags: dict[tuple, fc.Flag] = {}
    while len(flags) < count:
        rows = [[rng.randrange(field.q) for _ in range(tv.n)] for _ in range(tv.dims[-1])]
        m = fc.MatrixGF(field, rows, ncols=tv.n)
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
    assert code.distance_profile() == pairwise_profile([f.parts for f in code])


# -- fields other than GF(2) ---------------------------------------------------

NONBINARY = [3, 4, 8, 9]
# (q, k, h, s) instances over GF(p^e): e = 1 and 2 over GF(3), e = 2 and 3
# over GF(2), and GF(5) and GF(7)
NONBINARY_SWEEP = [
    (3, 2, 1, 2), (3, 2, 0, 3), (4, 2, 1, 2), (4, 2, 0, 2), (8, 2, 0, 2), (9, 2, 0, 2),
    (5, 2, 0, 2), (7, 2, 0, 2),
]
NONBINARY_CHOICES = [(qkhs, c) for qkhs in NONBINARY_SWEEP for c in (0, 1)]


@pytest.mark.parametrize(
    "qkhs,choice", NONBINARY_CHOICES, ids=["q{}k{}h{}s{}-pc{}".format(*t, c) for t, c in NONBINARY_CHOICES]
)
def test_nonbinary_construction_codes_match_oracle(qkhs, choice):
    params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
    gen = fc.build_generator_set(params)
    for code in (gen.full, gen.flag_code(fc.master_type(params))):
        assert len(code) == params.expected_size
        check_code(code)


def _plane_flags(field, points: int) -> fc.FlagCode:
    """The full flags of GF(q)^3 whose point is one of the first ``points``
    points (first nonzero entry 1, in code order): every line through each.
    Every line through a holds a second point b, so b runs over the points."""
    q = field.q
    vectors = [[v // q**j % q for j in range(3)] for v in range(1, q**3)]
    points_all = [v for v in vectors if v[next(j for j, x in enumerate(v) if x)] == 1]
    chosen = points_all[:points]
    flags = []
    for a in chosen:
        for b in points_all:
            m = fc.MatrixGF(field, [a, b], ncols=3)
            if m.rank() == 2:
                flags.append(fc.flag_from_matrix(m, fc.TypeVector.full(3)))
    return fc.FlagCode(fc.TypeVector.full(3), flags)


@pytest.mark.parametrize("q,points", [(3, 13), (4, 21), (8, 4), (9, 4)])
def test_nonbinary_restrictions_that_merge_match_oracle(q, points):
    field = fc.field_from_order(q)
    code = _plane_flags(field, points)
    assert len(code) == points * (q + 1)
    point_code = fc.subsequence_code(code, fc.TypeVector(3, (1,)))
    lines = fc.projected_code(code, 2)
    assert len(point_code) == points
    assert len(lines) < len(code)  # lines through two chosen points are shared
    assert point_code._parent is None
    # the claim suite's reads of the projected codes, which count part keys
    # where flags share a part
    for c in (code, point_code):
        for i in range(1, c.type.r + 1):
            check_projection(c, i)
    check_chains(f.parts for f in code)
    check_chains(f.parts for f in point_code)
    check_chains((w,) for w in lines)
    assert lines.spectrum() == pairwise_spectrum(lines)
    # chains that repeat a flag: distance-zero pairs are counted too
    check_chains([f.parts for f in code] * 2)


@pytest.mark.parametrize("q", [3, 4, 9])
def test_nonbinary_loaded_codes_match_oracle(q):
    gen = fc.build_generator_set(fc.ConstructionParams.make(q, 2, 0, 2))
    loaded = fc.load_flag_code(fc.dump_flag_code(gen.full))
    assert loaded == gen.full and loaded._parent is None
    assert loaded.distance_profile() == pairwise_profile([f.parts for f in loaded])
    words = fc.SubspaceCode.load(gen.projected_at_dim(2).dump())
    assert len(words) == q**2 + 1
    assert words.spectrum() == pairwise_spectrum(words)
    check_chains((w,) for w in words)


@pytest.mark.parametrize("q", NONBINARY)
def test_nonbinary_mixed_dimension_code_matches_oracle(q):
    field = fc.field_from_order(q)
    rng = random.Random(q)
    words: dict[tuple, fc.Subspace] = {}
    while len(words) < 70:
        w = _random_space(field, rng, 5, 1 + len(words) % 4)
        words[w.key] = w
    code = fc.SubspaceCode(5, words.values())
    assert len(code) == 70 and len({w.dim for w in code}) == 4
    check_chains((w,) for w in code)
    check_chains((w,) for w in rng.sample(code.words, len(code)))
    assert code.spectrum() == pairwise_spectrum(code)


@pytest.mark.parametrize("count", [2, 65, 130])
@pytest.mark.parametrize("q", NONBINARY)
def test_nonbinary_random_codes_match_oracle(q, count):
    # more than 64 chains: partner masks cross machine words
    field = fc.field_from_order(q)
    code = _random_flag_code(field, fc.TypeVector(5, (1, 3, 4)), count, seed=count + q)
    assert len(code) == count
    check_chains(f.parts for f in code)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_parts_built_codes_match_oracle(q):
    # flags rebuilt from their parts record their own level rows, which
    # their restrictions share; the point restriction merges flags for
    # q <= 7, so its code scans its own pairs there
    field = fc.field_from_order(q)
    tv = fc.TypeVector(4, (1, 2, 3))
    code = _random_flag_code(field, tv, 30, seed=q + 40)
    rebuilt = fc.FlagCode(tv, (fc.Flag(tv, f.parts) for f in code))
    assert rebuilt == code
    assert all(f.source is None and f._rows is not g._rows for f, g in zip(rebuilt, code))
    assert rebuilt.distance_profile() == pairwise_profile([f.parts for f in rebuilt])
    for dims in [(1,), (1, 3)]:
        sub = fc.subsequence_code(rebuilt, fc.TypeVector(4, dims))
        chains = [f.parts for f in sub]
        assert sub.distance_profile() == pairwise_profile(chains)
        assert _distance_profile([f._levels() for f in sub], field, 4) == pairwise_profile(chains)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_every_field_makes_one_sliced_scan(monkeypatch, q):
    # one sliced scan over GF(p), on e n columns
    calls = []
    sliced = subspace._sliced_profile

    def spy(levels, n, p):
        calls.append((n, p))
        return sliced(levels, n, p)

    monkeypatch.setattr(subspace, "_sliced_profile", spy)
    field = fc.field_from_order(q)
    code = _random_flag_code(field, fc.TypeVector(4, (1, 2, 3)), 30, seed=q)
    check_chains(f.parts for f in code)
    assert calls == [(field.e * 4, field.p)]


# -- batches of chains ---------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 5, 64])
@pytest.mark.parametrize("w", [1, 7, 8, 13])
def test_blocks_copies_into_every_block(w, k):
    rng = random.Random(w * 100 + k)
    for x in (0, 1, (1 << w) - 1, rng.randrange(1 << w)):
        want = 0
        for j in range(k):
            want |= x << j * w
        assert subspace._blocks(x, w, k) == want


def _spy_batches(monkeypatch, bits: int | None = None) -> list[int]:
    """Shrink the scan's batch budget to ``bits`` (if given) and record the
    ``active`` pair mask of every kernel call; returns the list they go
    into.  All calls of one batch pass the same mask object."""
    if bits is not None:
        monkeypatch.setattr(subspace, "_BATCH_BITS", bits)
    actives: list[int] = []
    for name in ("_sliced_insert", "_sliced_insertp"):
        kernel = getattr(subspace, name)

        def spy(row, has, pivots, active, kernel=kernel):
            actives.append(active)
            return kernel(row, has, pivots, active)

        monkeypatch.setattr(subspace, name, spy)
    return actives


def _batch_pairs(actives: list[int]) -> list[int]:
    """The number of pairs each batch serves, in scan order."""
    batches = [a for i, a in enumerate(actives) if i == 0 or a is not actives[i - 1]]
    return [a.bit_count() for a in batches]


def _plan_pairs(count: int, starts: list[int]) -> list[int]:
    """The pairs of batches of ``count`` chains starting at ``starts``: chain
    a pairs with the count - 1 - a chains after it."""
    ends = starts[1:] + [count - 1]
    return [sum(count - 1 - a for a in range(s, e)) for s, e in zip(starts, ends)]


def test_batch_plan_follows_the_bit_budget(monkeypatch, gf2):
    # 13 chains in 24 bits: a block is one bit per partner after the
    # batch's first chain, so blocks of 12 and 10 bits fit two chains a
    # batch, blocks of 8 bits three and blocks of 5 bits four; the last
    # batch is chain 11 alone, as k is at most its 1 partner
    actives = _spy_batches(monkeypatch, 24)
    code = _random_flag_code(gf2, fc.TypeVector(5, (1, 3)), 13, seed=1)
    check_chains(f.parts for f in code)
    assert _batch_pairs(actives) == _plan_pairs(13, [0, 2, 4, 7, 11])
    assert _plan_pairs(13, [0, 2, 4, 7, 11]) == [23, 19, 21, 14, 1]


def test_sweep_scan_is_one_batch(monkeypatch):
    # (2,2,1,4): 169 full flags of GF(2)^9 add one row at each of 8 levels,
    # so one batch makes 2 kernel calls a level; one chain a batch (a
    # budget of 1 bit) makes 2 x 8 x 168
    gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 1, 4))
    levels = [f._levels() for f in gen.full]
    field = gen.full.flags[0].field
    actives = _spy_batches(monkeypatch)
    profile = _distance_profile(levels, field, 9)
    assert len(actives) == 16 and _batch_pairs(actives) == [169 * 168 // 2]
    actives.clear()
    monkeypatch.setattr(subspace, "_BATCH_BITS", 1)
    assert _distance_profile(levels, field, 9) == profile
    assert len(actives) == 2688 and _batch_pairs(actives) == list(range(168, 0, -1))


BATCH_BITS = [8, 24, 64, 200]


@pytest.mark.parametrize("bits", BATCH_BITS)
@pytest.mark.parametrize("count", [0, 1, 2, 37])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_batched_random_codes_match_oracle(monkeypatch, q, count, bits):
    # 37 chains is no multiple of 8; every budget here splits them into
    # several batches
    actives = _spy_batches(monkeypatch, bits)
    field = fc.field_from_order(q)
    code = _random_flag_code(field, fc.TypeVector(4, (1, 2, 3)), count, seed=count + bits)
    assert check_chains(f.parts for f in code) == sum(_batch_pairs(actives))
    if count == 37:
        assert len(_batch_pairs(actives)) > 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_mixed_dimensions_across_batches_match_oracle(monkeypatch, q):
    # 40 words of dims 1..5 in code order (2, 9, 9, 10 and 10 of each): in
    # 160 bits the batches start at chains 0, 4, 8, 13, 19 and 27, and
    # the dims change (at chains 2, 11, 20 and 30) inside the first, third,
    # fifth and sixth
    field = fc.field_from_order(q)
    rng = random.Random(q + 100)
    words: dict[tuple, fc.Subspace] = {}
    for dim, number in zip(range(1, 6), (2, 9, 9, 10, 10)):
        while sum(w.dim == dim for w in words.values()) < number:
            w = _random_space(field, rng, 6, dim)
            words[w.key] = w
    code = fc.SubspaceCode(6, words.values())
    assert [w.dim for w in code].count(1) == 2 and len(code) == 40
    actives = _spy_batches(monkeypatch, 160)
    check_chains((w,) for w in code)
    assert _batch_pairs(actives) == _plan_pairs(40, [0, 4, 8, 13, 19, 27])
    # shuffled, the chains of every batch and the partners of every block
    # mix dims
    check_chains((w,) for w in rng.sample(code.words, len(code)))


@pytest.mark.parametrize("bits", BATCH_BITS)
@pytest.mark.parametrize("q", [2, 3, 5, 7, 25])
def test_repeated_chains_across_batches_match_oracle(monkeypatch, q, bits):
    # distance-zero pairs inside one batch, and across batch boundaries
    monkeypatch.setattr(subspace, "_BATCH_BITS", bits)
    code = _plane_flags(fc.field_from_order(q), 3)
    chains = [f.parts for f in code]
    check_chains(chains * 2)
    check_chains([c for chain in chains for c in (chain, chain)])


def test_gf3_n8_subset_matches_oracle(monkeypatch):
    # a seeded 120-flag sample of (3,2,0,4) (n = 8, 820 flags), in one batch
    # and in batches of 200 bits; the oracle on all 820 takes about a minute
    gen = fc.build_generator_set(fc.ConstructionParams.make(3, 2, 0, 4))
    chains = [f.parts for f in random.Random(8).sample(gen.full.flags, 120)]
    levels = [fc.Flag(gen.full.type, chain)._levels() for chain in chains]
    field = chains[0][0].field
    oracle = pairwise_profile(chains)
    actives = _spy_batches(monkeypatch)
    assert _distance_profile(levels, field, 8) == oracle
    assert _batch_pairs(actives) == [120 * 119 // 2]
    actives.clear()
    monkeypatch.setattr(subspace, "_BATCH_BITS", 200)
    assert _distance_profile(levels, field, 8) == oracle
    assert len(_batch_pairs(actives)) > 1
