"""Acceptance suite: every headline claim at desk scale, exact arithmetic,
exhaustive pairwise scans, zero tolerance.  One test per criterion; each
prints a PASS line with its measured runtime."""

from __future__ import annotations

from itertools import combinations
from time import perf_counter

import pytest

import flagcodes as fc

from _checks import (
    check_companion_row_identities,
    check_intersection_oracle,
    check_metric_axioms_exhaustive,
    check_rref_canonicality,
    check_split_additivity_exhaustive,
)


@pytest.fixture(scope="module")
def gen223():
    return fc.build_generator_set(fc.ConstructionParams.make(2, 2, 1, 3))


def _report(num: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_1_smallest_full_flag_code():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 0, 2)
    code = fc.build_full_flag_code(fc.build_generator_set(params))
    assert len(code) == 5
    distances = [
        fc.flag_distance(f, g) for f, g in combinations(code.flags, 2)
    ]
    assert len(distances) == 10
    assert set(distances) == {8}
    assert fc.code_flag_min_distance(code) == 8
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "n=4 full code: 5 flags, all 10 pairs at distance 8")


def test_criterion_2_full_flag_code_n5():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 1, 2)
    code = fc.build_full_flag_code(fc.build_generator_set(params))
    assert len(code) == 9
    d = fc.code_flag_min_distance(code)
    assert d == 12 == 2 * params.k * (params.k + params.h)
    assert fc.is_cardinality_consistent(code)
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "n=5 full code: 9 flags, distance 12, cardinality-consistent")


def test_criterion_3_quasi_optimum_n8():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 3, 2, 2)
    code = fc.build_full_flag_code(fc.build_generator_set(params))
    assert len(code) == 33
    cls = fc.classify(code)
    assert cls.max_distance == 32
    assert cls.min_distance == 30
    assert cls.label == "quasi-optimum"
    elapsed = perf_counter() - start
    assert elapsed < 5.0
    _report(3, elapsed, "n=8 full code: 33 flags, distance 30 = 32 - 2, quasi-optimum")


def test_criterion_4_spread_and_optimum_code(gen223):
    start = perf_counter()
    params = gen223.params
    ck = gen223.projected_at_dim(2)
    assert fc.is_partial_spread(ck)
    assert len(ck) == 41 == fc.max_partial_spread_size(2, 2, 7)
    cnk = gen223.projected_at_dim(5)
    assert fc.code_min_distance(cnk) == 4
    assert len(cnk) == 41
    opt = fc.build_optimum_code(gen223)
    assert opt.type.dims == (1, 2, 5, 6)
    assert len(opt) == 41
    assert fc.code_flag_min_distance(opt) == 12
    assert fc.classify(opt).label == "optimum"
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    _report(4, elapsed, "n=7: 41-space partial 2-spread at the size bound; optimum code distance 12")


def test_criterion_5_longer_type_n7(gen223):
    start = perf_counter()
    params = gen223.params
    code = fc.build_longer_type_code(gen223)
    assert code.type.dims == (1, 2, 3, 5, 6)
    assert len(code) == 41
    d = fc.code_flag_min_distance(code)
    k, h, s = params.k, params.h, params.s
    assert d == 16 == 2 * k * (s + h + k - 2)
    assert fc.is_cardinality_consistent(code)
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    _report(5, elapsed, "n=7 longer type (1,2,3,5,6): 41 flags, distance 16")


def test_criterion_6_longer_type_n9():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 1, 4)
    gen = fc.build_generator_set(params)
    code = fc.build_longer_type_code(gen)
    assert code.type.dims == (1, 2, 3, 5, 7, 8)
    assert len(code) == 169
    k, h = params.k, params.h
    d = fc.code_flag_min_distance(code)
    assert d == 18 == 2 * k * (k + h + 1) + 2 * h
    assert fc.code_min_distance(gen.projected_at_dim(5)) == 2 == 2 * h
    assert fc.code_min_distance(gen.projected_at_dim(3)) == 4 == 2 * k
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    _report(6, elapsed, "n=9 longer type: 169 flags, distance 18; middle levels at 2 and 4")


@pytest.mark.slow
def test_criterion_7_longer_type_n11():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 1, 5)
    gen = fc.build_generator_set(params)
    code = gen.flag_code(fc.master_type(params))
    assert code.type.dims == (1, 2, 3, 5, 7, 9, 10)
    assert len(code) == 681
    d = fc.code_flag_min_distance(code)
    assert d == 24
    elapsed = perf_counter() - start
    assert elapsed < 600.0
    _report(7, elapsed, "n=11 longer type: 681 flags, 231540 pairs, distance 24")


def test_criterion_8_property_suites(gen223):
    start = perf_counter()

    count = check_metric_axioms_exhaustive(4)
    assert count == 66  # nonzero subspaces of GF(2)^4

    for n in range(1, 6):
        check_intersection_oracle(n)

    for q, k in [(2, 2), (2, 4), (2, 7), (2, 10), (3, 3), (3, 6), (4, 4), (5, 3), (7, 2), (8, 2), (9, 2)]:
        assert q**k <= 1 << 10
        check_companion_row_identities(q, k)

    checked = check_split_additivity_exhaustive(8)
    assert checked > 0

    # classification agrees with the projected-code equivalence on every
    # constructed instance
    instances = [
        fc.ConstructionParams.make(2, 2, 0, 2),
        fc.ConstructionParams.make(2, 2, 1, 2),
        fc.ConstructionParams.make(3, 2, 1, 2),
    ]
    codes = []
    for params in instances:
        gen = fc.build_generator_set(params)
        codes.append(fc.build_full_flag_code(gen))
        codes.append(fc.build_optimum_code(gen))
    codes.append(fc.build_optimum_code(gen223))
    codes.append(fc.build_longer_type_code(gen223))
    for code in codes:
        optimum = fc.classify(code).is_optimum
        assert fc.optimum_check_ab(code) == optimum
        tv = code.type
        consistent = fc.is_cardinality_consistent(code)
        all_max = consistent and all(
            fc.code_min_distance(fc.projected_code(code, i))
            == 2 * min(tv.dims[i - 1], tv.n - tv.dims[i - 1])
            for i in range(1, tv.r + 1)
        )
        assert all_max == optimum

    # orbit-stabilizer identity on every orbit the constructions build
    for params in instances + [gen223.params]:
        for i in range(1, params.s):
            order = params.q ** (i * params.k + params.h) - 1
            group = fc.GroupElementSeq(fc.build_G_generator(params, i), order)
            seed = fc.subspace_of(fc.build_A(params, i))
            orbit = fc.orbit_code(seed, group)
            assert len(orbit) * fc.stabilizer_order(seed, group) == group.order

    check_rref_canonicality(trials=1000, max_n=8, seed=20240)

    elapsed = perf_counter() - start
    _report(8, elapsed, "metric axioms, intersection oracle, row identities, splits, equivalences, canonical forms")


def test_criterion_9_choice_independence():
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 1, 3, poly_choice=1)
    gen = fc.build_generator_set(params)
    # the alternative seeds genuinely differ
    default = fc.ConstructionParams.make(2, 2, 1, 3)
    assert fc.build_P(params, 1) != fc.build_P(default, 1)
    assert fc.build_P(params, 2) != fc.build_P(default, 2)

    ck = gen.projected_at_dim(2)
    assert fc.is_partial_spread(ck) and len(ck) == 41
    cnk = gen.projected_at_dim(5)
    assert fc.code_min_distance(cnk) == 4 and len(cnk) == 41
    opt = fc.build_optimum_code(gen)
    assert len(opt) == 41 and fc.code_flag_min_distance(opt) == 12
    longer = fc.build_longer_type_code(gen)
    assert len(longer) == 41 and fc.code_flag_min_distance(longer) == 16
    assert fc.is_cardinality_consistent(longer)
    elapsed = perf_counter() - start
    _report(9, elapsed, "second-smallest primitive polynomials reproduce every verdict")


@pytest.mark.slow
def test_criterion_10_claim_suite_n13():
    # 3.72 M pairs: about two minutes with one elimination per pair, a few
    # seconds with the bit-sliced GF(2) scan, so the bound catches a fallback
    start = perf_counter()
    params = fc.ConstructionParams.make(2, 2, 1, 6)
    assert params.n == 13 and params.expected_size == 2729
    report = fc.run_claim_suite(params)
    failed = [c.claim_id for c in report.claims if not c.passed]
    assert report.all_pass, failed
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    _report(10, elapsed, f"n=13 claim suite: 2729 flags, 3722356 pairs, {len(report.claims)} claims pass")
