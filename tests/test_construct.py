from __future__ import annotations

import random

import pytest

import flagcodes as fc
from _checks import (
    SWEEP,
    SWEEP_CHOICES,
    choice_ids,
    enumerate_gf2_subspaces,
    gf2_subspace_from_vectors,
    normal_oracle,
    orbit_by_powers,
    scaled_vectors,
)
from flagcodes import construct, flags, matgf
from flagcodes.errors import (
    CardinalityMismatch,
    DimMismatch,
    FactorizationTooLarge,
    NotASubsequence,
    RankDeficientPrefix,
    ResourceBudgetExceeded,
    Singular,
    TheoremViolated,
)
from flagcodes.subspace import _hyperplane_normal, _normal_walk, _orbit_walk

P223 = fc.ConstructionParams.make(2, 2, 1, 3)
GEN223 = fc.build_generator_set(P223)


def _untimed(claim: fc.Claim) -> tuple:
    """A claim's fields other than its time."""
    return (claim.claim_id, claim.statement, claim.expected, claim.computed, claim.passed)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            fc.ConstructionParams.make(2, 2, 2, 2)  # h must stay below k
        with pytest.raises(ValueError):
            fc.ConstructionParams.make(2, 2, 1, 1)  # s >= 2
        with pytest.raises(ValueError):
            fc.ConstructionParams.make(2, 0, 0, 2)

    def test_derived(self):
        assert P223.n == 7 and P223.q == 2
        assert P223.expected_size == 8 + 32 + 1

    def test_huge_values_named_by_bit_length(self):
        for k, h, s in [(2, 10**4000, 2), (-(10**4000), 0, 2), (2, 0, -(10**4000))]:
            with pytest.raises(ValueError, match="a 13288-bit number") as exc:
                fc.ConstructionParams.make(2, k, h, s)
            assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("q,e", [(2, 18), (3, 12), (5, 8), (251, 3)])
    def test_oversized_instances_refused_first(self, monkeypatch, q, e):
        # q^(e-1) + 1 <= 2^18 < q^e + 1 flags: the set's size decides
        construct._check_size(fc.ConstructionParams.make(q, e - 1, 0, 2))
        monkeypatch.setattr(construct, "iter_primitive_polys", None)
        monkeypatch.setattr(construct, "master_type", None)
        for params in (fc.ConstructionParams.make(q, e, 0, 2), fc.ConstructionParams.make(q, 1, 0, e + 1)):
            for build in (fc.run_claim_suite, fc.build_generator_set):
                with pytest.raises(ResourceBudgetExceeded, match=f"more than 262144 flags: q = {q}, e = \\(s-1\\)k\\+h = {e}$"):
                    build(params)


class TestBuildP:
    def test_h0(self):
        params = fc.ConstructionParams.make(2, 2, 0, 2)
        assert fc.build_P(params, 1) == fc.MatrixGF(params.field, [[0, 1], [1, 1]])

    def test_h1(self):
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        expected = fc.companion(fc.poly_from_text("x^3+x+1 over GF(2)"))
        assert fc.build_P(params, 1) == expected

    @pytest.mark.parametrize("i", [1, 2])
    def test_order(self, i):
        p = fc.build_P(P223, i)
        assert fc.matrix_order(p) == 2 ** (2 * i + 1) - 1

    def test_index_range(self):
        with pytest.raises(ValueError):
            fc.build_P(P223, 3)


class TestPrimitivePolySearch:
    @pytest.fixture
    def searched(self, monkeypatch):
        """The degrees of the searches started, from a cleared search cache."""
        monkeypatch.setattr(construct, "_primitive_searches", {})
        degrees = []
        search = construct.iter_primitive_polys

        def counting(field, degree):
            degrees.append(degree)
            return search(field, degree)

        monkeypatch.setattr(construct, "iter_primitive_polys", counting)
        return degrees

    def test_searched_once_per_degree(self, searched):
        assert fc.run_claim_suite(fc.ConstructionParams.make(2, 2, 1, 3)).all_pass
        assert sorted(searched) == [3, 5]

    def test_later_choice_resumes_the_search(self, searched):
        field = fc.field_from_order(3)
        for choice in (0, 1, 0, 1):
            params = fc.ConstructionParams.make(3, 2, 0, 3, poly_choice=choice)
            for i in (1, 2):
                want = list(fc.iter_primitive_polys(field, 2 * i))[choice]
                assert fc.build_P(params, i) == fc.companion(want)
        assert sorted(searched) == [2, 4]

    def test_missing_polynomial_raises_every_time(self):
        params = fc.ConstructionParams.make(2, 2, 0, 2, poly_choice=1)
        for _ in range(2):
            with pytest.raises(ValueError, match="there are only 1"):
                fc.build_P(params, 1)

    def test_failed_search_raises_every_time(self):
        # 2^67 - 1 = 193707721 * 761838257287: both factors lie past the
        # trial-division bound, so the search fails before its first candidate
        params = fc.ConstructionParams.make(2, 67, 0, 2)
        for _ in range(2):
            with pytest.raises(FactorizationTooLarge, match="beyond 1000000"):
                fc.build_P(params, 1)
            assert (params.field, 67) not in construct._primitive_searches


class TestBuildGroupGenerator:
    def test_s2_shape(self):
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        g = fc.build_G_generator(params, 1)
        f = params.field
        expected = fc.block(
            f,
            [
                [fc.MatrixGF.identity(f, 2), None],
                [None, fc.build_P(params, 1)],
            ],
        )
        assert g == expected

    def test_s3_block_layout(self):
        g = fc.build_G_generator(P223, 1)
        assert (g.nrows, g.ncols) == (7, 7)
        # leading 4x4 corner is the identity; the trailing 3x3 is P_1
        assert g.first_rows(4) == fc.block(
            P223.field,
            [[fc.MatrixGF.identity(P223.field, 4), fc.MatrixGF.zeros(P223.field, 4, 3)]],
        )

    @pytest.mark.parametrize("i", [1, 2])
    def test_order(self, i):
        g = fc.build_G_generator(P223, i)
        assert fc.matrix_order(g) == 2 ** (2 * i + 1) - 1


class TestSeedMatrices:
    def test_row_counts(self):
        for params in (P223, fc.ConstructionParams.make(2, 3, 2, 2)):
            for i in range(1, params.s):
                for m in (fc.build_A(params, i), fc.build_B(params, i)):
                    assert (m.nrows, m.ncols) == (params.n - 1, params.n)
                    assert m.rank() == params.n - 1
            m = fc.build_M(params)
            assert (m.nrows, m.ncols) == (params.n - 1, params.n)

    def test_b1_explicit(self):
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        expected = fc.MatrixGF(
            params.field,
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
        )
        assert fc.build_B(params, 1) == expected

    def test_a_s2_two_block_form(self):
        # for s = 2 the seed reduces to [I_k X^(k); 0 X^[k]; 0 X^(k-1)] with X = I
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        f = params.field
        i3 = fc.MatrixGF.identity(f, 3)
        expected = fc.block(
            f,
            [
                [fc.MatrixGF.identity(f, 2), i3.first_rows(2)],
                [None, i3.rows_after(2)],
                [None, i3.first_rows(1)],
            ],
        )
        assert fc.build_A(params, 1) == expected

    def test_anti_diagonal_prefix_spans(self):
        m = fc.build_M(P223)
        n = P223.n
        ident = fc.MatrixGF.identity(P223.field, n)
        for j in range(1, n):
            assert fc.subspace_of(m.first_rows(j)) == fc.subspace_of(ident.rows_after(n - j))


class TestGeneratorSet:
    @pytest.mark.parametrize(
        "qkhs,size",
        [((2, 2, 0, 2), 5), ((2, 2, 1, 2), 9), ((3, 2, 1, 2), 28), ((2, 2, 1, 4), 169)],
    )
    def test_sizes(self, qkhs, size):
        params = fc.ConstructionParams.make(*qkhs)
        gen = fc.build_generator_set(params)
        assert len({e.flag._part(-1) for e in gen.entries}) == size
        assert len(gen.entries) == sum(
            params.q ** (i * params.k + params.h) for i in range(1, params.s)
        ) + 1

    def test_block_identity_spot_check(self):
        # A_1 g^2 must be the block matrix built from P_1 squared
        entry = GEN223.entry("A", 1, 2)
        p1 = fc.build_P(P223, 1)
        x = p1 @ p1
        f = P223.field
        expected = fc.block(
            f,
            [
                [fc.MatrixGF.zeros(f, 2, 2), fc.MatrixGF.identity(f, 2), x.first_rows(2)],
                [fc.MatrixGF.zeros(f, 1, 2), fc.MatrixGF.zeros(f, 1, 2), x.rows_after(2)],
                [fc.MatrixGF.identity(f, 2), fc.MatrixGF.zeros(f, 2, 2), fc.MatrixGF.zeros(f, 2, 3)],
                [fc.MatrixGF.zeros(f, 1, 2), fc.MatrixGF.zeros(f, 1, 2), x.first_rows(1)],
            ],
        )
        assert entry.flag.source == expected

    def test_identity_element_appears_last(self):
        order = 2**3 - 1
        last = GEN223.entry("A", 1, order)
        assert last.flag.source == fc.build_A(P223, 1)


# one instance per field kind: GF(2), a prime field, and two extensions
ROUTE_INSTANCES = [(2, 2, 1, 2), (3, 2, 0, 2), (4, 2, 0, 2), (9, 2, 0, 2)]
# (instance, family) with a composite group order q^(ik+h) - 1
COMPOSITE_ORDERS = [((2, 2, 0, 3), 2), ((3, 2, 0, 2), 1), ((4, 2, 0, 2), 1), ((9, 2, 0, 2), 1)]
COMPOSITE_IDS = ["q{}k{}h{}s{}-family{}".format(*qkhs, i) for qkhs, i in COMPOSITE_ORDERS]


def _params_id(qkhs) -> str:
    return "q{}k{}h{}s{}".format(*qkhs)


class TestTwoRoutes:
    """The product route A_i g^t against the windows of f_i's recurring
    sequence, the order descent, and the stepped orbit walk: each failure
    reaches its error or its claim."""

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_windows_are_the_block_form(self, qkhs):
        params = fc.ConstructionParams.make(*qkhs)
        for i in range(1, params.s):
            windows = construct._block_windows(params, i)
            assert windows(0) == fc.build_A(params, i)._rows
            p = fc.build_P(params, i)
            x = p
            for t in range(1, min(params.q ** (i * params.k + params.h), 40)):
                assert windows(t) == construct._family_matrix(params, i, x, True)._rows
                x = x @ p

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_wrong_window_fails(self, qkhs, monkeypatch):
        # the recurrence of another primitive polynomial of the same degree
        params = fc.ConstructionParams.make(*qkhs)
        f1 = construct._family_poly(params, 1)
        other = next(f for f in fc.iter_primitive_polys(params.field, f1.degree) if f != f1)
        real = construct._recurring_sequence
        monkeypatch.setattr(
            construct, "_recurring_sequence",
            lambda f, length: real(other if f == f1 else f, length),
        )
        with pytest.raises(TheoremViolated, match=r"A_1 g\^1 does not match its block form"):
            fc.build_generator_set(params)

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_singular_generator_loses_rank(self, qkhs, monkeypatch):
        # a zero first row in the I_k block: A_1 holds that unit vector
        params = fc.ConstructionParams.make(*qkhs)
        real = construct.build_G_generator

        def singular(params, i):
            rows = list(real(params, i).int_rows())
            rows[(params.s - i - 1) * params.k] = (0,) * params.n
            return fc.MatrixGF(params.field, rows)

        monkeypatch.setattr(construct, "build_G_generator", singular)
        with pytest.raises(TheoremViolated, match=r"A_1 g\^1 lost row rank"):
            fc.build_generator_set(params)

    def test_generator_of_wrong_order_fails_the_windows(self, monkeypatch):
        # P_1 the companion matrix of the reducible x^2 + 1, of order 2, which
        # does not divide N = 3: g^N is not the identity, and the product
        # route leaves the windows of the primitive f_1 = x^2 + x + 1 at t = 1
        params = fc.ConstructionParams.make(2, 2, 0, 2)
        reducible = fc.companion(fc.Poly(params.field, [1, 0, 1]))
        monkeypatch.setattr(construct, "build_P", lambda params, i: reducible)
        g = fc.build_G_generator(params, 1)
        assert g**3 != fc.MatrixGF.identity(params.field, 4)
        with pytest.raises(TheoremViolated, match=r"A_1 g\^1 does not match its block form"):
            fc.build_generator_set(params)
        with pytest.raises(TheoremViolated, match="does not divide 3"):
            construct._group_order(g, 3)

    @pytest.mark.parametrize("qkhs,i", COMPOSITE_ORDERS, ids=COMPOSITE_IDS)
    def test_proper_divisor_order_fails_its_claim(self, qkhs, i, monkeypatch):
        # a set that stores g_i^r for g_i, r the least prime of the group
        # order N: g_i^r has order N/r
        params = fc.ConstructionParams.make(*qkhs)
        gen = fc.build_generator_set(params)
        order = params.q ** (i * params.k + params.h) - 1
        r = min(fc.factorize(order))
        families = list(gen.families)
        g, seed = families[i - 1]
        families[i - 1] = (g**r, seed)
        short = fc.GeneratorSet(gen.params, gen.entries, gen.full, tuple(families))
        monkeypatch.setattr(construct, "build_generator_set", lambda params: short)
        report = fc.run_claim_suite(params)
        claims = {c.claim_id: c for c in report.claims}
        claim = claims[f"group.family{i}.order"]
        assert (claim.expected, claim.computed, claim.passed) == (order, order // r, False)
        assert fc.matrix_order(g**r) == order // r
        failed = {c.claim_id for c in report.claims if not c.passed}
        assert failed == {f"group.family{i}.order", f"orbit.family{i}.size",
                          f"orbit.family{i}.stabilizer", "orbit.union_matches"}

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_repeated_row_space_fails_the_build(self, qkhs, monkeypatch):
        # B_1 = M: s = 2, so one B and the M give one row space
        params = fc.ConstructionParams.make(*qkhs)
        assert params.s == 2
        monkeypatch.setattr(construct, "build_B", lambda params, i: construct.build_M(params))
        size = params.expected_size
        with pytest.raises(CardinalityMismatch,
                           match=f"^{size - 1} distinct row spaces, expected {size}$"):
            fc.build_generator_set(params)

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_duplicated_entry_fails_its_claim(self, qkhs, monkeypatch):
        # a set whose entry A_1 g^N repeats the flag and normal of A_1 g^1
        params = fc.ConstructionParams.make(*qkhs)
        gen = fc.build_generator_set(params)
        order = params.q ** (params.k + params.h) - 1
        entries = list(gen.entries)
        first, last = entries.index(gen.entry("A", 1, 1)), entries.index(gen.entry("A", 1, order))
        last_entry = entries[last]
        entries[last] = fc.GeneratorEntry(last_entry.kind, last_entry.index, last_entry.power,
                                          entries[first].flag, entries[first].normal)
        duplicated = fc.GeneratorSet(gen.params, tuple(entries), gen.full, gen.families)
        monkeypatch.setattr(construct, "build_generator_set", lambda params: duplicated)
        report = fc.run_claim_suite(params)
        claims = {c.claim_id: c for c in report.claims}
        claim = claims["generator.cardinality"]
        size = params.expected_size
        assert (claim.expected, claim.computed, claim.passed) == (size, size - 1, False)
        failed = {c.claim_id for c in report.claims if not c.passed}
        assert failed == {"generator.cardinality", "orbit.union_matches"}

    @pytest.mark.parametrize("qkhs,i", COMPOSITE_ORDERS, ids=COMPOSITE_IDS)
    def test_order_not_dividing_raises(self, qkhs, i):
        params = fc.ConstructionParams.make(*qkhs)
        g = fc.build_G_generator(params, i)
        order = params.q ** (i * params.k + params.h) - 1
        assert construct._group_order(g, order) == order
        for wrong in (order - 1, order + 1, 2 * order - 1):
            with pytest.raises(TheoremViolated, match=f"does not divide {wrong}"):
                construct._group_order(g, wrong)

    @pytest.mark.parametrize("q,d", [(2, 4), (3, 3), (4, 2), (9, 2)])
    def test_descent_matches_the_power_walk(self, q, d):
        # every invertible companion matrix of degree d, from a multiple of
        # its order with repeated prime factors
        field = fc.field_from_order(q)
        for m in range(q**d):
            coeffs = [(m // q**j) % q for j in range(d)] + [1]
            if not coeffs[0]:
                continue
            g = fc.companion(fc.Poly(field, coeffs))
            order = fc.matrix_order(g)
            assert construct._group_order(g, 12 * order) == order

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES + [(2, 2, 1, 3)], ids=_params_id)
    def test_stepped_orbit_walk_matches_powers(self, qkhs):
        params = fc.ConstructionParams.make(*qkhs)
        for i in range(1, params.s):
            order = params.q ** (i * params.k + params.h) - 1
            g = fc.build_G_generator(params, i)
            seed = fc.subspace_of(fc.build_A(params, i))
            orbit, fixed = _orbit_walk(seed, fc.GroupElementSeq(g, order))
            assert (orbit, fixed) == orbit_by_powers(seed, g, order)
            assert (len(orbit), fixed) == (order, 1)

    def test_stepped_orbit_walk_matches_powers_with_stabilizer(self):
        gf2 = fc.field_from_order(2)
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        g = fc.block(gf2, [[fc.MatrixGF.identity(gf2, 2), None], [None, p]])
        group = fc.GroupElementSeq(g, 3)
        left = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        mixed = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 1, 0]]))
        assert _orbit_walk(left, group) == orbit_by_powers(left, g, 3)
        assert _orbit_walk(left, group)[1] == 3
        assert _orbit_walk(mixed, group) == orbit_by_powers(mixed, g, 3)
        assert _orbit_walk(mixed, group)[1] == 1

    @pytest.mark.parametrize("q,d", [(2, 4), (2, 6), (3, 4), (4, 2), (9, 2)])
    def test_stepped_orbit_walk_matches_powers_on_a_singer_cycle(self, q, d):
        # g multiplies GF(q^d) by a primitive element a; the subfield GF(q^2),
        # spanned by 1 and a^(N/(q^2-1)), has a stabilizer of order q^2 - 1
        field = fc.field_from_order(q)
        g = fc.companion(fc.find_primitive_poly(field, d))
        order = q**d - 1
        group = fc.GroupElementSeq(g, order)
        # row 0 of g^t is x^t mod f
        beta = (g ** (order // (q * q - 1))).int_rows()[0]
        subfield = [(1,) + (0,) * (d - 1), beta]
        for rows in [subfield, *_small_spaces(field, d)]:
            u = fc.subspace_of(fc.MatrixGF(field, rows))
            walked = _orbit_walk(u, group)
            assert walked == orbit_by_powers(u, g, order)
            assert len(walked[0]) * walked[1] == order
        assert _orbit_walk(fc.subspace_of(fc.MatrixGF(field, subfield)), group)[1] == q * q - 1


# the sweep at every poly choice, and the verify-nonbinary benchmark
# instances, whose suites make 2, 1 and 1 Subspaces at poly choice 0
WORK_CHOICES = SWEEP_CHOICES + [((3, 2, 0, 3), 0), ((4, 2, 1, 2), 0), ((9, 2, 0, 2), 0)]
SUBSPACES_MADE = {(2, 2, 1, 4): 15, (3, 2, 0, 3): 2, (4, 2, 1, 2): 1, (9, 2, 0, 2): 1}


class TestSuiteWork:
    """A claim suite builds each family's G_i and A_i once, in the
    generator set, forms each g_i^N once, in the order claim, and makes no
    Subspace but the witness parts and the orbit claims' seeds."""

    @pytest.mark.parametrize("qkhs", SWEEP, ids=_params_id)
    def test_generator_set_forms_no_power(self, qkhs, monkeypatch):
        def refused(self, e):
            raise AssertionError(f"a power {e} was formed")

        monkeypatch.setattr(fc.MatrixGF, "__pow__", refused)
        fc.build_generator_set(fc.ConstructionParams.make(*qkhs))

    @pytest.mark.parametrize("qkhs,choice", WORK_CHOICES, ids=choice_ids(WORK_CHOICES))
    def test_suite_builds_each_family_once(self, qkhs, choice, monkeypatch):
        params = fc.ConstructionParams.make(*qkhs, poly_choice=choice)
        k, h, s = params.k, params.h, params.s
        calls = {"build_G_generator": [], "build_A": []}
        for name in calls:
            def counting(params, i, real=getattr(construct, name), name=name):
                calls[name].append(i)
                return real(params, i)

            monkeypatch.setattr(construct, name, counting)
        powers = []
        power = fc.MatrixGF.__pow__

        def counting_power(self, e):
            powers.append((self, e))
            return power(self, e)

        monkeypatch.setattr(fc.MatrixGF, "__pow__", counting_power)
        made = []
        init = fc.Subspace.__init__

        def counting_init(self, field, ambient, rows):
            made.append((len(rows), rows))
            init(self, field, ambient, rows)

        monkeypatch.setattr(fc.Subspace, "__init__", counting_init)
        rep = fc.run_claim_suite(params)
        monkeypatch.undo()

        assert rep.all_pass, rep.to_text()
        families = list(range(1, s))
        assert calls == {"build_G_generator": families, "build_A": families}
        for i in families:
            g = fc.build_G_generator(params, i)
            # descent powers g^(N/r) have smaller exponents
            order = params.q ** (i * k + h) - 1
            assert sum(e == order and m == g for m, e in powers) == 1
        gen = fc.build_generator_set(params)
        want = [fc.subspace_of(fc.build_A(params, i)).key for i in families]
        for i in families:
            if i == 1 and h == 0:
                continue  # no witness claim: see verify_intermediate_distances
            for m in fc.middle_dims(params):
                want += [(m, gen.entry(kind, i, power).flag._key_rows(m - 1))
                         for kind, power in (("A", k), ("B", None))]
        assert sorted(made) == sorted(want)
        if choice == 0 and qkhs in SUBSPACES_MADE:
            assert len(made) == SUBSPACES_MADE[qkhs]


def _small_spaces(field, d):
    """The row spaces of a few one- and two-row matrices over field^d."""
    q = field.q
    vectors = [tuple((m // q**j) % q for j in range(d)) for m in range(1, min(q**d, 40))]
    yield from ([v] for v in vectors[:8])
    for a in vectors[:4]:
        for b in vectors[4:8]:
            if fc.MatrixGF(field, [a, b]).rank() == 2:
                yield [a, b]


def _hyperplanes(field, n):
    """Every hyperplane of field^n, found without normals: over GF(2) among
    all subspaces as vector sets, otherwise (n = 3 only) as the spans of two
    distinct projective points."""
    q = field.q
    if q == 2:
        found = [gf2_subspace_from_vectors(vs, n) for vs in enumerate_gf2_subspaces(n)
                 if len(vs) == 2 ** (n - 1)]
    else:
        assert n == 3
        points = scaled_vectors(field, n)
        spans = (fc.subspace_of(fc.MatrixGF(field, [a, b]))
                 for i, a in enumerate(points) for b in points[i + 1:])
        found = list({w.key: w for w in spans}.values())
    assert len(found) == (q**n - 1) // (q - 1)
    return found


def _normal(u):
    """_hyperplane_normal of the Subspace ``u``, from its key rows."""
    return _hyperplane_normal(u.key[1], u.ambient, u.field)


class TestNormalWalk:
    """A hyperplane's orbit walked on its normal vector against the oracle
    normal of every image of the stepped walk and of the walk by powers."""

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (4, 3), (5, 3)])
    def test_closed_form_normal_matches_the_oracle(self, q, n):
        for u in _hyperplanes(fc.field_from_order(q), n):
            assert _normal(u) == normal_oracle(u)

    def test_a_plane_of_gf2_4_is_refused(self):
        gf2 = fc.field_from_order(2)
        plane = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 1], [0, 1, 1, 0]]))
        with pytest.raises(DimMismatch, match="not a hyperplane"):
            _normal(plane)

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES + [(5, 2, 1, 2), (7, 2, 0, 2)], ids=_params_id)
    def test_walk_matches_the_stepped_and_powered_orbits(self, qkhs):
        params = fc.ConstructionParams.make(*qkhs)
        for i in range(1, params.s):
            order = params.q ** (i * params.k + params.h) - 1
            g = fc.build_G_generator(params, i)
            seed = fc.subspace_of(fc.build_A(params, i))
            walk = _normal_walk(_normal(seed), g, order)
            assert len(walk) == order
            # the t-th image of _orbit_walk: U_t = U_(t-1) g by Subspace.transform
            image = seed
            for c in walk:
                image = image.transform(g)
                assert c == normal_oracle(image)
            orbit, fixed = _orbit_walk(seed, fc.GroupElementSeq(g, order))
            powers, powers_fixed = orbit_by_powers(seed, g, order)
            assert (orbit, fixed) == (powers, powers_fixed)
            assert set(walk) == {normal_oracle(w) for w in powers}
            assert walk.count(normal_oracle(seed)) == fixed == 1

    def test_hyperplane_with_stabilizer_three(self):
        # g = blockdiag(I_2, P), P the companion matrix of x^2+x+1, order 3;
        # coordinates from 0, so x_1 lies in the identity block and x_3 in P's
        gf2 = fc.field_from_order(2)
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        g = fc.block(gf2, [[fc.MatrixGF.identity(gf2, 2), None], [None, p]])
        group = fc.GroupElementSeq(g, 3)
        fixed_plane = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        moved_plane = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
        for u, size in ((fixed_plane, 1), (moved_plane, 3)):
            c = _normal(u)
            walk = _normal_walk(c, g, 3)
            orbit, fixed = _orbit_walk(u, group)
            assert (orbit, fixed) == orbit_by_powers(u, g, 3)
            assert (len(set(walk)), walk.count(c)) == (len(orbit), fixed) == (size, 3 // size)
            assert set(walk) == {normal_oracle(w) for w in orbit}
        assert _normal(fixed_plane) == 0b0100

    def test_singular_generator_is_refused(self):
        gf3 = fc.field_from_order(3)
        g = fc.MatrixGF(gf3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
        u = fc.subspace_of(fc.MatrixGF(gf3, [[1, 0, 0], [0, 1, 0]]))
        with pytest.raises(Singular):
            _normal_walk(_normal(u), g, 1)


class TestHyperplaneNormal:
    """_hyperplane_normal solved from rows that are 0 only at the pivots of
    the rows before them, not in RREF, against the oracle normal."""

    @pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4), (9, 4)])
    def test_normal_form_rows_match_the_oracle(self, q, n):
        # the echelon rows at the full type (one row per level, none
        # back-substituted) and at a coarser type (levels of several rows)
        field = fc.field_from_order(q)
        rng = random.Random(q)
        unreduced = 0
        for _ in range(12):
            m = fc.MatrixGF(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n - 1)])
            full, ranks = matgf._echelon(m._rows, range(1, n), field)
            if ranks[-1] != n - 1:
                continue
            coarse = matgf._echelon(m._rows, (2, n - 1), field)[0]
            u = fc.subspace_of(m)
            unreduced += full != u.key[1]
            want = normal_oracle(u)
            assert _hyperplane_normal(full, n, field) == want
            assert _hyperplane_normal(coarse, n, field) == want
        assert unreduced >= 4

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES, ids=_params_id)
    def test_every_entry_normal_matches_the_oracle(self, qkhs):
        gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs))
        for e in gen.entries:
            assert e.normal == normal_oracle(fc.subspace_of(e.flag.source))

    @pytest.mark.parametrize("qkhs", ROUTE_INSTANCES + [(2, 3, 1, 4)], ids=_params_id)
    def test_build_makes_no_back_substitution(self, qkhs, monkeypatch):
        # the seeds are built first: their rank checks reduce by rref
        params = fc.ConstructionParams.make(*qkhs)
        seeds = {(build, i): getattr(construct, build)(params, i)
                 for build in ("build_A", "build_B") for i in range(1, params.s)}
        m = construct.build_M(params)
        for build in ("build_A", "build_B"):
            monkeypatch.setattr(construct, build, lambda params, i, build=build: seeds[build, i])
        monkeypatch.setattr(construct, "build_M", lambda params: m)

        def refused(rows, field):
            raise AssertionError("back-substitution")

        monkeypatch.setattr(matgf, "_back_substitute", refused)
        monkeypatch.setattr(flags, "_back_substitute", refused)
        gen = fc.build_generator_set(params)
        assert len({e.normal for e in gen.entries}) == params.expected_size


class TestErrorOrder:
    """The first failure in the build's order wins: for each family its
    products A_i g^t by t (a lost row rank before a block-form mismatch at
    the same t), then B_i, then after every family M.  A singular B_i or M
    raises flag_from_matrix's own error."""

    @staticmethod
    def _dependent(m: fc.MatrixGF, row: int = 2) -> fc.MatrixGF:
        # ``row`` repeats row 1: the first ``row`` rows have rank row - 1
        rows = list(m.int_rows())
        rows[row - 1] = rows[0]
        return fc.MatrixGF(m.field, rows)

    def _singular_B(self, monkeypatch, family: int):
        real = construct.build_B

        def build_B(params, i):
            m = real(params, i)
            return self._dependent(m) if i == family else m

        monkeypatch.setattr(construct, "build_B", build_B)

    @staticmethod
    def _wrong_window(monkeypatch, params, family: int):
        # the recurrence of another primitive polynomial of the same degree
        f = construct._family_poly(params, family)
        other = next(g for g in fc.iter_primitive_polys(params.field, f.degree) if g != f)
        real = construct._recurring_sequence
        monkeypatch.setattr(
            construct, "_recurring_sequence",
            lambda g, length: real(other if g == f else g, length),
        )

    def _flag_error(self, m: fc.MatrixGF, n: int) -> str:
        with pytest.raises(RankDeficientPrefix) as err:
            fc.flag_from_matrix(m, fc.TypeVector.full(n))
        return str(err.value)

    # (q, k, h, s) with each family 1..s-1 it has: over GF(2), GF(3), and
    # the extension fields GF(4) and GF(9), which the build normal-forms in
    # one byte-sliced batch (matgf._GFqSlices)
    SINGULAR_B = [(qkhs, family) for qkhs in [(2, 2, 1, 3), (3, 2, 0, 3), (4, 2, 0, 3), (4, 2, 1, 2), (9, 2, 0, 2)]
                  for family in range(1, qkhs[3])]

    @pytest.mark.parametrize("qkhs,family", SINGULAR_B,
                             ids=[f"{family}-{_params_id(qkhs)}" for qkhs, family in SINGULAR_B])
    def test_a_singular_B_raises_the_flag_error(self, qkhs, family, monkeypatch):
        params = fc.ConstructionParams.make(*qkhs)
        message = self._flag_error(self._dependent(construct.build_B(params, family)), params.n)
        assert message == "first 2 rows have rank 1"
        self._singular_B(monkeypatch, family)
        with pytest.raises(RankDeficientPrefix, match=f"^{message}$"):
            fc.build_generator_set(params)

    # a later family needs s >= 3: (4,2,1,2) and (9,2,0,2) have one family
    @pytest.mark.parametrize("qkhs", [(2, 2, 1, 3), (3, 2, 0, 3), (4, 2, 0, 3), (9, 2, 0, 3)], ids=_params_id)
    def test_a_singular_B_1_wins_over_a_later_family_mismatch(self, qkhs, monkeypatch):
        params = fc.ConstructionParams.make(*qkhs)
        self._wrong_window(monkeypatch, params, 2)
        with pytest.raises(TheoremViolated, match=r"A_2 g\^1 does not match its block form"):
            fc.build_generator_set(params)
        self._singular_B(monkeypatch, 1)
        with pytest.raises(RankDeficientPrefix, match="first 2 rows have rank 1"):
            fc.build_generator_set(params)

    @pytest.mark.parametrize("qkhs", [(2, 2, 1, 3), (3, 2, 0, 3)], ids=_params_id)
    def test_a_mismatch_wins_over_a_later_singular_B(self, qkhs, monkeypatch):
        params = fc.ConstructionParams.make(*qkhs)
        self._singular_B(monkeypatch, 1)
        self._wrong_window(monkeypatch, params, 1)
        with pytest.raises(TheoremViolated, match=r"A_1 g\^1 does not match its block form"):
            fc.build_generator_set(params)

    @pytest.mark.parametrize("qkhs", [(2, 2, 1, 3), (3, 2, 0, 3)], ids=_params_id)
    def test_a_singular_M_raises_the_flag_error_last(self, qkhs, monkeypatch):
        params = fc.ConstructionParams.make(*qkhs)
        m = self._dependent(construct.build_M(params), 3)
        message = self._flag_error(m, params.n)
        assert message == "first 3 rows have rank 2"
        monkeypatch.setattr(construct, "build_M", lambda params: m)
        with pytest.raises(RankDeficientPrefix, match=f"^{message}$"):
            fc.build_generator_set(params)
        self._singular_B(monkeypatch, params.s - 1)
        with pytest.raises(RankDeficientPrefix, match="first 2 rows have rank 1"):
            fc.build_generator_set(params)


class TestFullFlagCodes:
    @pytest.mark.parametrize(
        "qkhs,size,dist,label",
        [
            ((2, 2, 0, 2), 5, 8, "optimum"),
            ((2, 2, 1, 2), 9, 12, "optimum"),
            ((2, 3, 2, 2), 33, 30, "quasi-optimum"),
            ((3, 2, 1, 2), 28, 12, "optimum"),
        ],
    )
    def test_s2_family(self, qkhs, size, dist, label):
        params = fc.ConstructionParams.make(*qkhs)
        code = fc.build_full_flag_code(fc.build_generator_set(params))
        assert len(code) == size
        assert fc.code_flag_min_distance(code) == dist
        assert fc.classify(code).label == label
        assert fc.is_cardinality_consistent(code)
        k, h = params.k, params.h
        assert dist == 2 * k * (k + h)

    def test_s3_size(self):
        code = fc.build_full_flag_code(GEN223)
        assert len(code) == 41


class TestProjectedIntersections:
    def test_spread_is_zero_intersecting_only(self):
        ck = GEN223.projected_at_dim(2)
        assert fc.is_equidistant_c(ck, 0)
        assert not fc.is_equidistant_c(ck, 1)


class TestOptimumCodes:
    def test_main_instance(self):
        code = fc.build_optimum_code(GEN223)
        assert code.type.dims == (1, 2, 5, 6)
        assert len(code) == 41
        assert fc.code_flag_min_distance(code) == 12
        assert fc.optimum_check_ab(code)
        assert fc.admissible_type_check(code.type, P223.k)

    def test_h0_s3(self):
        params = fc.ConstructionParams.make(2, 2, 0, 3)
        code = fc.build_optimum_code(fc.build_generator_set(params))
        assert code.type.dims == (1, 2, 4, 5)
        assert len(code) == 2**2 + 2**4 + 1 == 21
        assert fc.code_flag_min_distance(code) == 12

    def test_q3(self):
        params = fc.ConstructionParams.make(3, 2, 1, 2)
        code = fc.build_optimum_code(fc.build_generator_set(params))
        assert code.type.dims == (1, 2, 3, 4)
        assert len(code) == 28
        assert fc.code_flag_min_distance(code) == 12

    def test_k1_edge(self):
        params = fc.ConstructionParams.make(2, 1, 0, 3)
        code = fc.build_optimum_code(fc.build_generator_set(params))
        assert code.type.dims == (1, 2)
        assert len(code) == 2 + 4 + 1
        assert fc.classify(code).is_optimum


class TestBuildersRunTheClaimGroups:
    """Each builder raises TheoremViolated exactly when its claim group, the
    one run_claim_suite runs, records a failed claim."""

    @pytest.fixture
    def short_distance(self, monkeypatch):
        # every minimum-distance claim reads one less than the scan gives
        real = construct.code_flag_min_distance
        monkeypatch.setattr(construct, "code_flag_min_distance", lambda code: real(code) - 1)

    @staticmethod
    def named_claims(build) -> list[str]:
        with pytest.raises(TheoremViolated) as exc:
            build(GEN223)
        return [part.split(":")[0] for part in str(exc.value).split("; ")]

    def test_optimum(self, short_distance):
        with pytest.raises(TheoremViolated, match=r"optimum\.min_distance: expected 12, computed 11"):
            fc.build_optimum_code(GEN223)

    def test_longer(self, short_distance):
        with pytest.raises(TheoremViolated, match=r"longer\.min_distance: expected 16, computed 15"):
            fc.build_longer_type_code(GEN223)

    def test_builders_name_the_suites_failed_claims(self, short_distance):
        failed = [c.claim_id for c in fc.run_claim_suite(P223).claims if not c.passed]
        for family, build in (("optimum", fc.build_optimum_code), ("longer", fc.build_longer_type_code)):
            assert self.named_claims(build) == [c for c in failed if c.startswith(family + ".")]

    def test_group_ids_are_the_suites(self):
        ids = [c.claim_id for c in fc.run_claim_suite(P223).claims]
        for group, args in ((construct._optimum_claims, ()), (construct._longer_claims, (fc.master_type(P223),))):
            rep = fc.VerificationReport(P223.describe())
            code = group(rep, GEN223, *args)
            assert rep.all_pass and len(code) == P223.expected_size
            own = [c.claim_id for c in rep.claims]
            start = ids.index(own[0])
            assert ids[start : start + len(own)] == own


class TestMasterType:
    def test_s2_is_full(self):
        params = fc.ConstructionParams.make(2, 3, 2, 2)
        assert fc.master_type(params) == fc.TypeVector.full(8)

    def test_s3(self):
        assert fc.master_type(P223).dims == (1, 2, 3, 5, 6)

    def test_s4(self):
        params = fc.ConstructionParams.make(2, 2, 1, 4)
        assert fc.master_type(params).dims == (1, 2, 3, 5, 7, 8)

    def test_s5(self):
        params = fc.ConstructionParams.make(2, 2, 1, 5)
        assert fc.master_type(params).dims == (1, 2, 3, 5, 7, 9, 10)


class TestLongerCodes:
    def test_main_instance(self):
        code = fc.build_longer_type_code(GEN223)
        assert code.type.dims == (1, 2, 3, 5, 6)
        assert len(code) == 41
        assert fc.code_flag_min_distance(code) == 16
        assert fc.is_cardinality_consistent(code)
        k, h, s = P223.k, P223.h, P223.s
        assert 16 == 2 * k * (s + h + k - 2)

    def test_custom_subsequence(self):
        tv = fc.TypeVector(7, (1, 3, 5))
        code = fc.build_longer_type_code(GEN223, tv)
        # contributions 2*1 + 2k + 2(n-5)
        assert fc.code_flag_min_distance(code) == 10
        assert len(code) == 41

    def test_restriction_matches_optimum(self):
        longer = fc.build_longer_type_code(GEN223)
        optimum = fc.build_optimum_code(GEN223)
        assert fc.subsequence_code(longer, optimum.type) == optimum

    def test_not_a_subsequence(self):
        with pytest.raises(NotASubsequence):
            fc.build_longer_type_code(GEN223, fc.TypeVector(7, (1, 4)))

    def test_expected_distance_table(self):
        assert fc.expected_restricted_distance(P223, fc.master_type(P223)) == 16
        s5 = fc.ConstructionParams.make(2, 2, 1, 5)
        assert fc.expected_restricted_distance(s5, fc.master_type(s5)) == 24
        s4 = fc.ConstructionParams.make(2, 2, 1, 4)
        assert fc.expected_restricted_distance(s4, fc.master_type(s4)) == 18
        # avoiding the special middle dimension drops the 2h bonus term
        no_mid = fc.TypeVector(9, (1, 2, 3, 7, 8))
        assert fc.expected_restricted_distance(s4, no_mid) == 16


class TestVerifiers:
    def test_spread_projections(self):
        rep = fc.verify_spread_projections(GEN223)
        assert rep.all_pass, rep.to_text()

    def test_intermediate_distances(self):
        rep = fc.verify_intermediate_distances(GEN223)
        assert rep.all_pass, rep.to_text()

    def test_orbit_decomposition(self):
        rep = fc.verify_orbit_decomposition(GEN223)
        assert rep.all_pass, rep.to_text()
        sizes = {c.claim_id: c.computed for c in rep.claims if c.claim_id.endswith(".size")}
        assert sizes == {"orbit.family1.size": 7, "orbit.family2.size": 31}

    def test_orbit_decomposition_smallest(self):
        params = fc.ConstructionParams.make(2, 2, 0, 2)
        rep = fc.verify_orbit_decomposition(fc.build_generator_set(params))
        assert rep.all_pass
        sizes = [c.computed for c in rep.claims if c.claim_id.endswith(".size")]
        assert sizes == [3]  # 3 orbit spaces plus B_1 and M give all 5

    def test_maximality(self):
        rep = fc.verify_maximality(GEN223)
        assert rep.all_pass
        assert rep.claims[0].computed == 41

    def test_maximality_not_applicable(self):
        params = fc.ConstructionParams.make(2, 3, 2, 2)
        rep = fc.verify_maximality(fc.build_generator_set(params))
        assert rep.all_pass
        assert "skipped" in str(rep.claims[0].computed)

    @pytest.mark.parametrize("qkhs,choice", SWEEP_CHOICES, ids=choice_ids(SWEEP_CHOICES))
    def test_verifiers_match_the_suite(self, qkhs, choice):
        # each verifier reads the parameters its generator set was built from
        gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
        suite = {c.claim_id: _untimed(c) for c in fc.run_claim_suite(gen.params).claims}
        for verify in (fc.verify_spread_projections, fc.verify_intermediate_distances,
                       fc.verify_orbit_decomposition, fc.verify_maximality):
            rep = verify(gen)
            assert rep.params == gen.params.describe()
            for c in rep.claims:
                assert _untimed(c) == suite[c.claim_id]

    def test_suite_all_pass(self):
        rep = fc.run_claim_suite(P223)
        assert rep.all_pass, rep.to_text()

    def test_suite_s2(self):
        rep = fc.run_claim_suite(fc.ConstructionParams.make(2, 2, 1, 2))
        assert rep.all_pass, rep.to_text()

    def test_suite_refuses_a_type_at_s2(self):
        # the longer-type family, the only one a type selects, needs s >= 3
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        with pytest.raises(ValueError, match="s = 2"):
            fc.run_claim_suite(params, fc.TypeVector(5, (2, 3)))
        # the master type itself is refused too: no claim would read it
        with pytest.raises(ValueError, match="s = 2"):
            fc.run_claim_suite(params, fc.master_type(params))

    def test_suite_quasi_optimum(self):
        rep = fc.run_claim_suite(fc.ConstructionParams.make(2, 3, 2, 2))
        assert rep.all_pass, rep.to_text()
        labels = {c.claim_id: c.computed for c in rep.claims}
        assert labels["full.classification"] == "quasi-optimum"


class TestTwoBlockEquivalence:
    def test_s2_direct_construction_matches(self):
        # rebuild the s = 2 family from scratch in its two-block shape
        # [I_k | X^(k); 0 | X^[k]; 0 | X^(k-1)] under blockdiag(I_k, P^t)
        # and compare the resulting flag code with the general builder
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        f = params.field
        k, h, n = params.k, params.h, params.n
        p = fc.companion(fc.find_primitive_poly(f, k + h))
        ident_k = fc.MatrixGF.identity(f, k)

        def seed(x, with_top):
            return fc.block(
                f,
                [
                    [ident_k, x.first_rows(k) if with_top else None],
                    [None, x.rows_after(k)],
                    [None, x.first_rows(k - 1)],
                ],
            )

        matrices = []
        x = None
        for _ in range(params.q ** (k + h) - 1):
            x = p if x is None else x @ p
            matrices.append(seed(x, True))
        matrices.append(seed(fc.MatrixGF.identity(f, k + h), False))  # the B seed
        anti = fc.MatrixGF(f, [[1 if c == n - j else 0 for c in range(n)] for j in range(1, n)])
        matrices.append(anti)

        tv = fc.TypeVector.full(n)
        direct = fc.FlagCode(tv, (fc.flag_from_matrix(m, tv) for m in matrices))
        assert direct == fc.build_full_flag_code(fc.build_generator_set(params))


class TestDistancePropagation:
    def test_within_family_levels(self):
        # once a within-family pair reaches distance 2k at level k+1, it keeps
        # that distance up to level (s-1)k + h
        params = P223
        k, h, s = params.k, params.h, params.s
        top = (s - 1) * k + h
        for i in range(1, s):
            family = [e.flag.source for e in GEN223.entries if e.kind in ("A", "B") and e.index == i]
            for a in range(len(family)):
                for b in range(a + 1, len(family)):
                    base = fc.subspace_distance(
                        fc.subspace_of(family[a].first_rows(k + 1)),
                        fc.subspace_of(family[b].first_rows(k + 1)),
                    )
                    if base != 2 * k:
                        continue
                    for m in range(k + 1, top + 1):
                        d = fc.subspace_distance(
                            fc.subspace_of(family[a].first_rows(m)),
                            fc.subspace_of(family[b].first_rows(m)),
                        )
                        assert d == 2 * k, (i, a, b, m)


class TestChoiceIndependence:
    def test_second_smallest_polynomials(self):
        alt = fc.ConstructionParams.make(2, 2, 1, 3, poly_choice=1)
        gen = fc.build_generator_set(alt)
        assert len({e.flag._key_rows(-1) for e in gen.entries}) == 41
        opt = fc.build_optimum_code(gen)
        assert fc.code_flag_min_distance(opt) == 12
        longer = fc.build_longer_type_code(gen)
        assert fc.code_flag_min_distance(longer) == 16
        # the seed polynomials really differ from the default choice
        assert fc.build_P(alt, 1) != fc.build_P(P223, 1)


class TestZeroGuaranteeLevel:
    """At s = 4 and h = 0 the guarantee at dim 2k + h is 2h = 0: flags of the
    construction may share that part, so no claim expects the projection
    there to be injective, and its minimum is read over flag pairs."""

    @pytest.mark.parametrize("qkhs", [(2, 2, 0, 4), (2, 3, 0, 4), (3, 2, 0, 4)])
    def test_suite_passes(self, qkhs):
        params = fc.ConstructionParams.make(*qkhs)
        rep = fc.run_claim_suite(params)
        assert rep.all_pass, rep.to_text()
        m = 2 * params.k
        claims = {c.claim_id: c for c in rep.claims}
        # these instances do have flags sharing their m-part
        assert claims[f"middle.dim{m}.min_distance"].computed == 0
        gen = fc.build_generator_set(params)
        assert len(gen.projected_at_dim(m)) < params.expected_size
        for claim_id in (f"middle.dim{m}.cardinality", "longer.cardinality_consistent"):
            assert claims[claim_id].expected.startswith("skipped: ")
        code = fc.build_longer_type_code(gen)
        assert m in code.type.dims and len(code) == params.expected_size

    def test_type_of_zero_guarantee_refused(self, monkeypatch):
        # type (4,) keeps only the dim of guarantee 2h = 0: its flags may
        # coincide, so no size or distance claim on it holds
        params = fc.ConstructionParams.make(2, 2, 0, 4)
        gen = fc.build_generator_set(params)
        with pytest.raises(ValueError, match="guaranteed distance 0: at dim 4"):
            fc.build_longer_type_code(gen, fc.TypeVector(8, (4,)))

        def refused(params):
            raise AssertionError("the generator set was built")

        monkeypatch.setattr(construct, "build_generator_set", refused)
        with pytest.raises(ValueError, match="guaranteed distance 0: at dim 4"):
            fc.run_claim_suite(params, fc.TypeVector(8, (4,)))
        monkeypatch.undo()
        # with dim 1 kept the guarantee is 2 and every claim holds
        tv = fc.TypeVector(8, (1, 4))
        assert len(fc.build_longer_type_code(gen, tv)) == params.expected_size
        rep = fc.run_claim_suite(params, tv)
        assert rep.all_pass and len(rep.claims) == 33, rep.to_text()

    def test_loaded_code_of_zero_guarantee_is_not_recognized(self):
        # a loaded type (4,) code is no longer-type family either: no claim
        # expects its distance to be 0
        params = fc.ConstructionParams.make(2, 2, 0, 4)
        loaded = fc.build_generator_set(params).flag_code(fc.TypeVector(8, (4,)))
        claims = {c.claim_id: c for c in fc.run_claim_suite(params, loaded=loaded).claims}
        assert not claims["loaded.type_recognized"].passed
        assert "loaded.min_distance" not in claims

    def test_positive_guarantee_keeps_the_claims(self):
        rep = fc.run_claim_suite(fc.ConstructionParams.make(2, 2, 1, 4))
        assert not any(str(c.expected).startswith("skipped: ") for c in rep.claims
                       if c.claim_id.startswith(("middle.", "longer.")))
